// The benchmark's three workloads and what they report.
//
//   daily_loop     the offline steering loop at the fig10 shape
//   serve_compile  the production compile path, 6 tenants
//   serve_rank     rank + reward against span-shaped contexts
//
// A timed run (trace = false) fills the end-to-end metrics; a traced run
// (trace = true) fills the per-layer metrics and the stage ledger.
#ifndef QO_PERFBENCH_WORKLOADS_H_
#define QO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "measure.h"
#include "open_loop.h"
#include "workload/workload.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// The fixed open-loop rates of a serve_* workload (requests per second)
/// and the range of the geometric ladder max_qps climbs.
struct RatePlan {
  double low_qps;
  double high_qps;
  double ladder_lo;
  double ladder_hi;
};

/// Closed-loop segments of a serve_* pass: `per_second` per second of
/// the run, at least kCheckedSegments.
int ServeSegments(double seconds, double per_second);
/// The first kCheckedSegments segments of a pass are digested and counted,
/// so outputs and work counters do not depend on the run's length.
inline constexpr int kCheckedSegments = 4;

struct Report {
  MetricTable metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check violations; any entry makes the run exit non-zero.
  std::vector<std::string> violations;
  /// Informational lines printed before the result.
  std::vector<std::string> lines;
  /// Deterministic work counters of one unit of fixed work.
  std::map<std::string, double> counters;
  /// Digest of the checked outputs.
  std::string digest;
  /// Registry series a per-layer metric needed but the registry lacks.
  std::set<std::string> missing;
};

/// Monotonic instant main() started; the first setup is timed from it.
extern uint64_t g_process_start_ns;

void RunDailyLoop(const Options& options, Report* report);
void RunServeCompile(const Options& options, Report* report);
void RunServeRank(const Options& options, Report* report);

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Fresh job occurrences, day after day, from one workload driver. Each
/// occurrence is new (drifted statistics, new script), so its first compile
/// misses every cache.
class JobStream {
 public:
  JobStream(const qo::workload::WorkloadDriver* driver, int first_day)
      : driver_(driver), day_(first_day) {}
  qo::workload::JobInstance Next();
  /// Milliseconds spent generating jobs so far.
  double gen_ms() const { return gen_ns_ * 1e-6; }

 private:
  const qo::workload::WorkloadDriver* driver_;
  int day_;
  std::vector<qo::workload::JobInstance> jobs_;
  size_t next_ = 0;
  double gen_ns_ = 0.0;
};

/// Times one setup: the first from process start, later ones from `start`.
double SetupSeconds(uint64_t start_ns, int repetition);

/// Rewrites the report's metrics as every per-layer metric, in output
/// order: workloads set the ones their layers exercise, the rest read 0.
void FillPerLayerDefaults(Report* report);

/// Per-layer metrics derived from a registry delta (scope, optimizer,
/// cache, engine, exec, bandit spans).
void SetEngineLayerMetrics(RegistryDelta& delta, Report* report);

/// Deterministic work counters from a registry delta.
void SetWorkCounters(RegistryDelta& delta, Report* report);

/// Busy-time ledger of one traced run: splits `busy_ms` (CPU time of the
/// serving threads) across layers from `delta`, prints it, sets the
/// ledger.* metrics and checks `predictions` against it.
struct LedgerPrediction {
  bool scope_optimizer_dominates = false;
  bool scope_optimizer_zero = false;
  bool bandit_dominates = false;
};
void ReportLedger(RegistryDelta& delta, double busy_ms, double extra_bandit_ms,
                  const LedgerPrediction& prediction, Report* report);

/// Untimed hooks around each segment: `begin(first, count)` builds fresh
/// target state, `after(segment)` reads results (digests, registry
/// snapshots) while that state is alive, `end()` tears it down.
struct SegmentHooks {
  std::function<void(uint64_t, uint64_t)> begin;
  std::function<void(const Segment&)> after;
  std::function<void()> end;
};

/// Runs one warm-up segment (its results dropped, `after` not called),
/// then `segments` segments of `count` requests at `rate` (0 = closed
/// loop), continuing the request stream at `*next_index`. The warm-up
/// brings the heap to its working size, so later segments do not pay the
/// first-touch page faults.
std::vector<Segment> RunSegments(Target& target, double rate, int segments,
                                 uint64_t count, const SegmentHooks& hooks,
                                 uint64_t* next_index);

/// Metrics of closed-loop segments: cpu_s (CPU time of the mean segment),
/// jobs_per_s (median segment throughput), p50/p99 at the plan's low and
/// high rates and max_qps (replayed, see ReplayAtRate; each the median
/// over segments).
void SetServiceMetrics(const RatePlan& plan,
                       const std::vector<Segment>& segments, Report* report);

/// Adds the segments' requests and failures to the report.
void Account(const std::vector<Segment>& segments, Report* report);

/// Traced runs: p99 queue wait and generator lateness of paced segments
/// (wall-clock open loop at the fixed rates).
void SetPacedDiagnostics(const std::vector<Segment>& paced, Report* report);

/// Sum of service times, ms (the busy time overhead is judged on).
double ServiceMs(const std::vector<Segment>& segments);

}  // namespace perfbench

#endif  // QO_PERFBENCH_WORKLOADS_H_
