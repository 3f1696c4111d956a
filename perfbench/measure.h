// Measurement primitives shared by the benchmark workloads: clocks, process
// CPU and memory, sample quantiles, an output digest, registry deltas and
// the ordered metric table main() prints as JSON.
#ifndef QO_PERFBENCH_MEASURE_H_
#define QO_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Monotonic time in nanoseconds.
uint64_t NowNs();
/// User + system CPU seconds of the whole process (getrusage RUSAGE_SELF).
double ProcessCpuSec();
/// CPU time of the calling thread in ns (CLOCK_THREAD_CPUTIME_ID, which
/// excludes time stolen by the hypervisor where the kernel accounts it).
uint64_t ThreadCpuNs();
/// Peak resident set size of the process in MiB (ru_maxrss).
double PeakRssMb();

/// Sample quantile with linear interpolation between order statistics
/// (the "type 7" estimator). Infinite samples sort last, so a failed
/// request counts as missing any limit. Empty input gives 0.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// FNV-1a 64-bit digest over everything fed to it.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddLine(std::string_view line) {
    Add(line);
    Add("\n");
  }
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// The difference between two registry snapshots. A series absent from the
/// later snapshot is recorded as missing (and reads 0); one absent only from
/// the earlier snapshot counts from 0, which is how collector series of
/// objects built inside the measured interval appear.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const qo::obs::MetricsSnapshot& before,
                const qo::obs::MetricsSnapshot& after);

  /// Added number of recordings of histogram `name`.
  double Count(std::string_view name);
  /// Added sum of histogram `name`, converted from ns to ms.
  double SumMs(std::string_view name);
  /// Added value of series `name`.
  double Series(std::string_view name);

  /// Folds another delta in (stage deltas add up to a run's delta).
  void Add(const RegistryDelta& other);

  const std::set<std::string>& missing() const { return missing_; }

 private:
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::pair<std::string, double>> sums_ns_;
  std::vector<std::pair<std::string, double>> series_;
  std::set<std::string> missing_;
};

/// Snapshot of the process-wide metrics registry.
qo::obs::MetricsSnapshot TakeSnapshot();

/// Ordered (name, value, unit) rows, printed as the result's "metrics".
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  rows() const {
    return rows_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

/// Pins the calling thread's timer slack to 1 ns so sleep_until wakes at
/// the requested instant instead of up to 50 us later; open-loop workers
/// call this before waiting on due times.
void TightenTimerSlack();

/// Sleeps until the monotonic instant `due_ns`.
void SleepUntilNs(uint64_t due_ns);

}  // namespace perfbench

#endif  // QO_PERFBENCH_MEASURE_H_
