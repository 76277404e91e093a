#ifndef MSQL_CORE_SESSION_SCHEDULER_H_
#define MSQL_CORE_SESSION_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/mdbs_system.h"
#include "dol/engine.h"
#include "obs/monitor.h"

namespace msql::core {

/// Knobs of the concurrent federation server.
struct ServerConfig {
  /// Sessions allowed past admission at once (0 = unlimited). Waiting
  /// sessions are admitted in submit order as running ones finish.
  int max_admitted = 0;
  /// Longest simulated time a session may sit parked on one lock wait
  /// before the scheduler force-aborts it (0 = no timeout).
  int64_t lock_wait_timeout_micros = 5'000'000;
  /// Build the waits-for graph from kBusy blocker reports and abort the
  /// largest-id session of any cycle immediately, instead of waiting
  /// for the lock-wait timeout to fire.
  bool deadlock_detection = true;
  /// Conflict-aware admission: compile each session's static access
  /// summary (analysis::SummarizePlan) and delay admitting a session
  /// whose lock-acquisition order can deadlock against an
  /// already-admitted one (analysis::ConflictGraph). Deadlocks become a
  /// scheduling decision instead of a runtime victim abort.
  bool conflict_aware = false;
  /// Alert-driven adaptive admission (DESIGN.md §16): while the
  /// attached monitor reports an exhausted SLO error budget
  /// (obs::Monitor::shedding()), new-session admission is shed to
  /// one-at-a-time — the federation drains instead of melting down —
  /// and normal admission resumes when the monitor recovers. Requires
  /// set_monitor; a no-op without one.
  bool adaptive_admission = false;
};

/// The scheduler-facing name of the server knobs.
using SchedulerConfig = ServerConfig;

/// Everything the server reports about one submitted session.
struct SessionResult {
  uint64_t session_id = 0;
  /// Hard error before/around the run (parse, prepare, verifier).
  Status status;
  /// The input's report when it ran (or was refused at prepare time).
  std::optional<ExecutionReport> report;
  int64_t submit_micros = 0;
  int64_t admit_micros = 0;
  int64_t finish_micros = 0;
  /// finish - admit on the shared simulated clock.
  int64_t makespan_micros = 0;
  /// Total simulated time spent parked on lock conflicts.
  int64_t lock_wait_micros = 0;
  /// Number of times the session parked on a lock conflict.
  int64_t lock_waits = 0;
  /// kBusy probes issued against busy locks (initial parks + retries
  /// that found the lock still held).
  int64_t busy_probes = 0;
  /// The session was aborted as a deadlock victim.
  bool deadlock_victim = false;
  /// The session was force-aborted by the lock-wait timeout or the
  /// stall breaker.
  bool lock_timeout = false;
  /// Admitted sessions the analyzer classified as contending with this
  /// one at admission time (any read/write or write/write overlap).
  int64_t predicted_conflicts = 0;
  /// Times conflict-aware admission passed this session over because
  /// its lock order could deadlock against an admitted session.
  int64_t admission_deferrals = 0;
  /// Distinct sessions this one was held back from running against —
  /// each a statically predicted deadlock that never got to happen.
  int64_t avoided_deadlocks = 0;
  /// Adaptive admission held this session back while an SLO budget was
  /// burning (the alert decision trail: the matching alert events carry
  /// rule "admission.shed").
  bool admission_shed = false;
  /// Simulated time the session sat unadmitted because of shedding.
  int64_t shed_wait_micros = 0;
  /// Federation sessions observed blocking this one at runtime (every
  /// park's resolved waits-for edges; input to the differential oracle
  /// that checks prediction soundness).
  std::vector<uint64_t> observed_blockers;
  /// The session's static access summary (null when the input never
  /// produced a plan).
  std::shared_ptr<const analysis::AccessSummary> summary;
};

/// Discrete-event scheduler that interleaves N MSQL sessions on the
/// federation's shared simulated clock — the "server" the paper's MDBS
/// would run as.
///
/// Each submitted input is compiled at admission
/// (MultidatabaseSystem::Compile) and its DOL program stepped through
/// DolEngine::BeginRun/Deliver. At every step the scheduler issues the
/// earliest pending RPC across all sessions, so calls hit the netsim in
/// global time order and per-service admission queues see a meaningful
/// arrival order. Lock conflicts surface as kBusy responses, which park
/// the session (the response is withheld from its engine) until a
/// lock-releasing verb completes at that service; the kBusy blocker
/// lists feed a waits-for graph whose cycles are broken by aborting the
/// largest-id member, surfaced as a normal ABORTED outcome through the
/// victim's own DOL recovery path.
class FederationServer {
 public:
  explicit FederationServer(MultidatabaseSystem* system,
                            ServerConfig config = {});

  FederationServer(const FederationServer&) = delete;
  FederationServer& operator=(const FederationServer&) = delete;

  /// Queues one MSQL input (a query or multitransaction) as a session.
  /// Returns the 1-based session id within the current batch.
  uint64_t Submit(std::string msql_text);

  /// Runs every submitted session to completion, interleaving their
  /// plans on the shared simulated clock. Engines' lock managers run
  /// under WaitPolicy::kWait for the duration (restored afterwards).
  /// Returns per-session results in submit order. The server is
  /// reusable: sessions submitted after RunAll form a new batch.
  Result<std::vector<SessionResult>> RunAll();

  /// Final value of the shared simulated clock after the last RunAll.
  int64_t virtual_now() const { return clock_; }

  /// Attaches the federation monitor (not owned; null detaches). The
  /// server samples it on the shared clock each time a window boundary
  /// passes, feeds it every finished session, and — when
  /// `adaptive_admission` is set — follows its shedding() signal.
  void set_monitor(obs::Monitor* monitor) { monitor_ = monitor; }
  obs::Monitor* monitor() const { return monitor_; }

 private:
  enum class SessionState { kWaiting, kReady, kParked, kDone };

  struct Session {
    uint64_t id = 0;
    std::string text;
    SessionState state = SessionState::kWaiting;
    /// Frontend compilation ran (Consider is idempotent).
    bool considered = false;
    /// Outcome of Consider's compile/verify, reported at admission.
    Status compile_status;
    /// Static access summary of the compiled plan (null when the input
    /// was refused or failed to compile).
    std::shared_ptr<const analysis::AccessSummary> summary;
    /// Sessions conflict-aware admission deferred this one against.
    std::set<uint64_t> deferred_against;
    /// The session's pending call is past lock acquisition
    /// (prepare/commit/rollback), mirrored into the conflict graph so
    /// admission stops deferring candidates against it.
    bool quiesced = false;
    std::optional<CompiledInput> compiled;
    std::unique_ptr<dol::DolEngine> engine;
    /// The session's tracer parent stack while it is suspended (holds
    /// the outer stack while the session is swapped in).
    std::vector<uint64_t> span_stack;
    uint64_t root_span = 0;
    /// Earliest simulated time the next pending call may be issued
    /// (pushed forward by lock-wait wakeups).
    int64_t resume_at = 0;
    /// Park bookkeeping: where and since when the session is blocked,
    /// and which federation sessions hold the locks it needs.
    std::string parked_service;
    int64_t parked_since = 0;
    std::vector<uint64_t> waits_for;
    /// Clock value when adaptive shedding started holding this
    /// still-unadmitted session back (-1 = not currently held).
    int64_t shed_since = -1;
    SessionResult result;
  };

  /// RunAll body (RunAll wraps it in the lock-policy save/restore).
  Result<std::vector<SessionResult>> RunBatch();
  /// Admission sweep: re-checks deferred sessions when the admitted set
  /// changed, then fills free slots in submit order, deferring
  /// candidates whose summaries risk a lock-order deadlock when
  /// `conflict_aware` is on.
  void AdmitEligible();
  /// Runs the frontend once on the session (Compile + plan verifier +
  /// access summary); idempotent, so deferred sessions compile once.
  void Consider(Session& s);
  /// Starts the session's DOL program (Consider'd first if needed).
  void Admit(Session& s);
  /// Tracks the session's lock-acquisition phase off its pending call:
  /// once the next verb is prepare/commit/rollback the session cannot
  /// join a new deadlock cycle, so the conflict graph quiesces it and
  /// deferred candidates become admittable while it commits. A later
  /// lock-acquiring verb (compensation, vital-task retry) reactivates
  /// it.
  void ObservePhase(Session& s, const dol::DolEngine::PendingRpc& rpc);
  /// Issues the session's pending RPC at `at`: parks it on kBusy,
  /// delivers the outcome otherwise.
  void Step(Session& s, int64_t at);
  /// Assembles the report of a completed run (swapped-in precondition).
  void Finish(Session& s, Result<dol::DolRunResult> run);
  /// Ends the session's root span and returns its slot (swapped-in
  /// precondition; swaps the outer span context back in).
  void CloseSession(Session& s);
  /// Wakes every session parked on `service`; their retries may not be
  /// issued before `now`.
  void WakeParked(const std::string& service, int64_t now);
  /// Aborts a parked session: rolls back its transaction at the
  /// contended service, delivers a synthesized Aborted outcome (its DOL
  /// program then runs its normal recovery path), and wakes the
  /// sessions it was blocking.
  void AbortParked(Session& s, const std::string& reason, bool deadlock);
  /// Searches the waits-for graph for a cycle through the just-parked
  /// `s`; returns the member with the largest session id, or nullptr.
  Session* FindDeadlockVictim(Session& s);
  /// Every admitted session is parked: force-abort the largest-id one
  /// so the batch keeps making progress (blockers the waits-for graph
  /// could not see, e.g. blocking transactions that already ended).
  void BreakStall();
  /// Toggles the tracer between the session's span context and the
  /// outer one.
  void SwapSpans(Session& s);
  /// True while adaptive admission is shedding (monitor attached, mode
  /// on, budget burning).
  bool ShedActive() const;
  /// Closes monitor windows the clock has passed and, on a shed-state
  /// transition, stamps the waiting sessions' decision trail.
  void SampleMonitor();
  /// Feeds the session's final result to the monitor.
  void RecordSessionSample(const Session& s);

  MultidatabaseSystem* system_;
  ServerConfig config_;
  std::vector<std::unique_ptr<Session>> sessions_;
  /// (service, local session id) -> federation session id, maintained
  /// from delivered OPEN/CLOSE responses. Resolves the local session
  /// ids in kBusy blocker reports into waits-for edges.
  std::map<std::pair<std::string, relational::SessionId>, uint64_t>
      local_owner_;
  size_t next_unadmitted_ = 0;
  /// Indices of considered sessions held back by conflict-aware
  /// admission, in submit order.
  std::vector<size_t> deferred_;
  /// Admitted summaries (conflict-aware admission's view of the
  /// running set).
  analysis::ConflictGraph graph_;
  /// The admitted set changed since deferred_ was last re-checked.
  bool graph_dirty_ = false;
  /// All sessions below this index are kDone (admission order makes the
  /// finished prefix contiguous in the common case); the scheduler's
  /// per-step scans start here.
  size_t watermark_ = 0;
  int active_ = 0;
  int64_t clock_ = 0;
  obs::Monitor* monitor_ = nullptr;
  /// Shed state as of the last SampleMonitor (transition detection).
  bool shed_active_ = false;
};

}  // namespace msql::core

#endif  // MSQL_CORE_SESSION_SCHEDULER_H_
