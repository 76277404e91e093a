// Federation benchmark entry point.
//
//   fedbench --workload serial_paper|server_mix|paged_dml --seed N
//            --seconds S --trace 0|1 [--tiny] [--corrupt answer|model]
//            [--data-dir DIR]
//
// Prints the workload's properties as one JSON line, then (traced runs)
// the per-layer report, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. A run whose
// correctness gates fail prints "correct": false with no metrics and
// exits with status 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"

namespace {

using perfbench::Options;
using perfbench::RunRecord;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--data-dir" && has_value) {
      options->data_dir = argv[++i];
    } else if (arg == "--corrupt" && has_value) {
      options->corrupt = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  RunRecord record;
  if (options.workload == "serial_paper") {
    perfbench::RunSerialPaper(options, &record);
  } else if (options.workload == "server_mix") {
    perfbench::RunServerMix(options, &record);
  } else if (options.workload == "paged_dml") {
    perfbench::RunPagedDml(options, &record);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::string props = "{\"workload\": " +
                      perfbench::JsonString(options.workload) +
                      ", \"trace\": " + (options.trace ? "1" : "0") +
                      ", \"properties\": {";
  for (size_t i = 0; i < record.properties().size(); ++i) {
    const auto& [name, value] = record.properties()[i];
    props += (i ? ", " : "") + perfbench::JsonString(name) + ": " + value;
  }
  std::printf("%s}}\n", props.c_str());
  for (const std::string& line : record.notes()) {
    std::printf("%s\n", line.c_str());
  }

  const bool correct = record.failed() == 0 && record.attempted() > 0;
  std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(record.attempted()) +
      ", \"failed\": " + std::to_string(record.failed()) +
      ", \"metrics\": {";
  if (correct) {
    const auto& specs =
        options.trace ? perfbench::PerLayerSpecs() : perfbench::EndToEndSpecs();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto it = record.metrics().find(specs[i].name);
      if (it == record.metrics().end() && !options.trace) {
        std::fprintf(stderr, "workload did not measure %s\n", specs[i].name);
        return 2;
      }
      const double value = it == record.metrics().end() ? 0.0 : it->second;
      result += std::string(i ? ", " : "") +
                perfbench::JsonString(specs[i].name) +
                ": {\"value\": " + perfbench::JsonNumber(value) +
                ", \"unit\": " + perfbench::JsonString(specs[i].unit) + "}";
    }
  } else {
    for (const std::string& failure : record.failures()) {
      std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
    }
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
