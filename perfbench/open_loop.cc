#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "measure.h"

namespace perfbench {

namespace {

/// The generator builds a request at most this long before it is due.
constexpr uint64_t kLookaheadNs = 25'000'000;
/// Paced segments start this long after set-up, so the generator is ahead
/// and every worker is waiting when the first request falls due.
constexpr uint64_t kPacedStartNs = 60'000'000;

struct alignas(64) PaddedIndex {
  std::atomic<uint64_t> v{0};
};

/// Yields briefly, then sleeps in short steps, until `ready()` holds.
template <typename Pred>
void WaitFor(const Pred& ready) {
  for (int spins = 0; !ready(); ++spins) {
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

}  // namespace

Segment RunSegment(Target& target, double rate, uint64_t first,
                   uint64_t count) {
  Segment seg;
  seg.rate = rate;
  seg.first = first;
  seg.count = count;
  seg.service_us.assign(count, 0.0);
  seg.demand_us.assign(count, 0.0);
  seg.ok.assign(count, true);
  const bool paced = rate > 0.0;
  const bool generates = target.generates();
  if (paced) seg.queue_us.assign(count, 0.0);
  if (paced && generates) seg.gen_late_us.assign(count, 0.0);

  const double period_ns = paced ? 1e9 / rate : 0.0;
  TightenTimerSlack();
  const uint64_t t0 = NowNs() + (paced ? kPacedStartNs : 0);
  auto due_of = [&](uint64_t i) {
    return t0 + static_cast<uint64_t>(static_cast<double>(i - first) *
                                      period_ns);
  };

  // ready: every index below it has its payload built. done[w]: one past
  // the last index worker w finished.
  std::atomic<uint64_t> ready{generates ? first : first + count};
  PaddedIndex done[kServeWorkers];
  for (auto& d : done) d.v.store(first, std::memory_order_relaxed);
  std::atomic<uint64_t> failed{0};

  const double cpu0 = ProcessCpuSec();
  const uint64_t gen_cpu0 = ThreadCpuNs();

  std::vector<std::thread> workers;
  for (int w = 0; w < kServeWorkers; ++w) {
    workers.emplace_back([&, w] {
      TightenTimerSlack();
      uint64_t i = first;
      while (i % kServeWorkers != static_cast<uint64_t>(w)) ++i;
      for (; i < first + count; i += kServeWorkers) {
        WaitFor([&] { return ready.load(std::memory_order_acquire) > i; });
        const size_t k = static_cast<size_t>(i - first);
        const uint64_t due = paced ? due_of(i) : 0;
        if (paced) SleepUntilNs(due);
        const uint64_t start = NowNs();
        const uint64_t cpu_start = ThreadCpuNs();
        const bool ok = target.Serve(i);
        seg.demand_us[k] =
            static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-3;
        const uint64_t end = NowNs();
        seg.service_us[k] = static_cast<double>(end - start) * 1e-3;
        if (paced) seg.queue_us[k] = static_cast<double>(start - due) * 1e-3;
        if (!ok) {
          seg.ok[k] = false;
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        done[w].v.store(i + 1, std::memory_order_release);
      }
    });
  }

  if (generates) {
    for (uint64_t i = first; i < first + count; ++i) {
      // Slot i % kRingSlots last held i - kRingSlots, served by the same
      // worker (kRingSlots is a multiple of kServeWorkers).
      if (i >= first + kRingSlots) {
        const uint64_t prev = i - kRingSlots;
        WaitFor([&] {
          return done[prev % kServeWorkers].v.load(
                     std::memory_order_acquire) > prev;
        });
      }
      if (paced) SleepUntilNs(due_of(i) - std::min(due_of(i), kLookaheadNs));
      target.Generate(i);
      if (paced) {
        const uint64_t made = NowNs();
        const uint64_t due = due_of(i);
        seg.gen_late_us[static_cast<size_t>(i - first)] =
            made > due ? static_cast<double>(made - due) * 1e-3 : 0.0;
      }
      ready.store(i + 1, std::memory_order_release);
    }
  }
  for (auto& t : workers) t.join();

  seg.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  seg.cpu_s = (ProcessCpuSec() - cpu0) -
              static_cast<double>(ThreadCpuNs() - gen_cpu0) * 1e-9;
  seg.failed = failed.load();
  return seg;
}

std::vector<double> ReplayAtRate(const Segment& segment, double rate,
                                 double limit_us, bool* backlog) {
  const size_t n = segment.demand_us.size();
  std::vector<double> latency(n), wait(n);
  double free_at[kServeWorkers] = {};
  const double period_us = 1e6 / rate;
  for (size_t k = 0; k < n; ++k) {
    const double arrival = static_cast<double>(k) * period_us;
    double& free = *std::min_element(free_at, free_at + kServeWorkers);
    const double start = std::max(arrival, free);
    free = start + segment.demand_us[k];
    wait[k] = start - arrival;
    latency[k] = segment.ok[k] ? free - arrival
                               : std::numeric_limits<double>::infinity();
  }
  *backlog = false;
  if (n >= 10) {
    std::vector<double> tail(wait.end() - static_cast<long>(n / 10),
                             wait.end());
    *backlog = Median(std::move(tail)) > limit_us;
  }
  return latency;
}

std::vector<double> RateLadder(double lo, double hi, int rungs) {
  std::vector<double> ladder;
  for (int k = 0; k < rungs; ++k) {
    const double f = rungs > 1 ? static_cast<double>(k) / (rungs - 1) : 0.0;
    ladder.push_back(std::round(lo * std::pow(hi / lo, f)));
  }
  return ladder;
}

}  // namespace perfbench
