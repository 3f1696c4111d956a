// Request loops and the open-loop latency model.
//
// A segment runs requests [first, first + count) on kServeWorkers worker
// threads, sharded by index (worker = i % kServeWorkers); each worker serves
// its requests in index order, so a workload that maps tenant = i % T with T
// a multiple of kServeWorkers serves every tenant's stream in order on one
// worker. Closed loop (rate 0): each worker issues its next request as soon
// as the previous one completes. Paced (rate > 0): request i is due at
// t0 + (i - first) / rate and its latency runs from that due time.
//
// When a target builds per-request payloads (fresh jobs), the calling thread
// is the generator: it builds request i ahead of its due time and hands it
// over through a bounded ring. How late the generator ran is recorded per
// request, separately from the latency.
//
// Open-loop latency at a fixed rate is computed by replaying the service
// demands a closed-loop segment measured through kServeWorkers servers with
// arrivals at that rate (ReplayAtRate). A paced segment measures the
// same thing against the wall clock, but on a shared virtual machine its
// tail is set by host scheduling stalls of several milliseconds that hit
// every request due during the stall, so the paced run only supplies the
// queue-wait and generator-lateness diagnostics of the traced run.
#ifndef QO_PERFBENCH_OPEN_LOOP_H_
#define QO_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Serving threads of every workload (plus one generator or trainer thread:
/// four threads in all).
inline constexpr int kServeWorkers = 3;

/// What a segment drives. Generate() runs on the generator thread in index
/// order; Serve() runs on worker `index % kServeWorkers`.
class Target {
 public:
  virtual ~Target() = default;
  /// True when requests carry a payload Generate() must build first.
  virtual bool generates() const { return false; }
  virtual void Generate(uint64_t index) { (void)index; }
  /// Serves one request; false marks an unexpected failure.
  virtual bool Serve(uint64_t index) = 0;
};

/// Slots in the generator's hand-over ring (a multiple of kServeWorkers, so
/// a slot is only ever reused by the worker that consumed it).
inline constexpr uint64_t kRingSlots = 3 * 512;

struct Segment {
  double rate = 0.0;  ///< requests per second; 0 = closed loop
  uint64_t first = 0;
  uint64_t count = 0;
  double wall_s = 0.0;  ///< start of the segment to its last completion
  /// CPU seconds of every thread but the generator (the system's work).
  double cpu_s = 0.0;
  uint64_t failed = 0;
  std::vector<double> service_us;   ///< start -> done, wall clock
  /// CPU time of the serving thread per request: the service demand, free
  /// of the time the host took the virtual CPU away.
  std::vector<double> demand_us;
  std::vector<bool> ok;             ///< per request
  std::vector<double> queue_us;     ///< paced: due -> start of service
  std::vector<double> gen_late_us;  ///< paced: payload ready after due
};

/// Runs requests [first, first + count) closed-loop (rate 0) or paced.
Segment RunSegment(Target& target, double rate, uint64_t first,
                   uint64_t count);

/// Latencies (due -> done, +inf when failed) of `segment`'s requests had
/// they arrived at `rate` at kServeWorkers servers taking them first come,
/// first served, each request needing its measured demand. `backlog` is set
/// when the queue still grows at the end: the median wait of the last
/// tenth of the requests exceeds `limit_us`.
std::vector<double> ReplayAtRate(const Segment& segment, double rate,
                                 double limit_us, bool* backlog);

/// Geometric rate ladder of `rungs` steps from `lo` to `hi` (inclusive).
std::vector<double> RateLadder(double lo, double hi, int rungs);

}  // namespace perfbench

#endif  // QO_PERFBENCH_OPEN_LOOP_H_
