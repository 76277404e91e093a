#!/usr/bin/env python3
"""The benchmark's own tests, at tiny sizes (under a minute in total).

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names is printed with its
unit on every workload, that a corrupted expected answer or model makes
the run fail, and that two runs at one seed give identical simulated
metrics and per-layer work counts.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("serial_paper", "server_mix", "paged_dml")

# Per-layer metrics that are host times (or depend on them); every other
# per-layer metric is a deterministic count or simulated time.
HOST_TIMED_UNITS = {"us", "us/op"}
HOST_TIMED = {"e2e.recover_s", "frontend.share", "scheduler.self_share",
              "storage.checkpoint_ms", "obs.trace_overhead",
              "unattributed_share"}


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=7, trace=0, extra=()):
    """Runs one tiny benchmark run; returns (exit code, result, properties)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--tiny", *extra],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    properties = json.loads(lines[0]) if lines else None
    return proc.returncode, result, properties


class MetricsPresent(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_workload_properties_recorded(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, props = run(workload)
                p = props["properties"]
                for key in ("seed", "op_counts", "read_share", "write_share",
                            "frontend.text_repeat_share", "flush_policy"):
                    self.assertIn(key, p)
                self.assertTrue("working_set" in p or
                                "working_set_over_pool" in p)


class GatesFire(unittest.TestCase):
    def test_corrupted_answer_or_model_fails_the_run(self):
        for workload, mode in (("serial_paper", "answer"),
                               ("server_mix", "answer"),
                               ("paged_dml", "model")):
            with self.subTest(workload=workload):
                code, result, _ = run(workload, extra=("--corrupt", mode))
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(result["metrics"], {})


class Deterministic(unittest.TestCase):
    def test_same_seed_same_sim_metrics_and_counts(self):
        spec = load_spec()
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, props_a = run(workload, seed=11, trace=1)
                _, second, props_b = run(workload, seed=11, trace=1)
                exact = [name for name, unit in units.items()
                         if unit not in HOST_TIMED_UNITS and
                         name not in HOST_TIMED]
                for name in exact:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                sims = {k: v for k, v in props_a["properties"].items()
                        if k.startswith("e2e.sim")}
                self.assertEqual(
                    sims, {k: v for k, v in props_b["properties"].items()
                           if k.startswith("e2e.sim")})


if __name__ == "__main__":
    unittest.main()
