// Allocation budget of the compile path: a counting global operator new
// measures heap allocations per CompileSource and per Optimizer::Optimize
// over fixed fig10-shaped jobs. Counts are noise-free (no timer), so a
// change that brings node-based containers or per-candidate copies back
// into the compile path fails here even when no benchmark can resolve it.
//
// The counts depend on the standard library's container growth policy, so
// the test asserts bounds with a little headroom, not exact values.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "scope/compiler.h"
#include "workload/workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacements are not inlinable: inlined into a caller, gcc 12 pairs
// the malloc()/free() inside them with that caller's operator delete/new
// and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qo {
namespace {

/// Allocations made while `fn` runs, on this thread (the test is
/// single-threaded).
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The first jobs of day 0 of the fig10 workload (seed 2022): the scripts
/// the compile golden pins.
std::vector<workload::JobInstance> BudgetJobs() {
  workload::WorkloadDriver driver(
      {.num_templates = 90, .jobs_per_day = 150, .seed = 2022});
  std::vector<workload::JobInstance> jobs = driver.DayJobs(0);
  jobs.resize(48);
  return jobs;
}

/// The default configuration plus flips that switch on exploration rules
/// and switch off an implementation, so the budget covers the search's
/// wider paths as well as the default one.
std::vector<opt::RuleConfig> BudgetConfigs() {
  using opt::RuleConfig;
  namespace rules = opt::rules;
  return {RuleConfig::Default(),
          RuleConfig::DefaultWithFlip(rules::kJoinAssociativity),
          RuleConfig::DefaultWithFlip(rules::kEagerAggregationLeft),
          RuleConfig::DefaultWithFlip(rules::kBroadcastJoinAggressive),
          RuleConfig::DefaultWithFlip(rules::kHashJoinImpl)};
}

// Per-call means measured on the compile path this test guards (gcc 12,
// libstdc++); the bounds leave ~10% headroom for library differences.
constexpr double kMaxAllocsPerCompileSource = 47;
constexpr double kMaxAllocsPerOptimize = 127;

TEST(AllocBudgetTest, CompilePathAllocationsStayWithinBudget) {
  const std::vector<workload::JobInstance> jobs = BudgetJobs();
  const std::vector<opt::RuleConfig> configs = BudgetConfigs();
  // Warm-up pass: interns every name, so the counted pass measures the
  // steady state (the symbol table only grows on first sight of a name).
  std::vector<scope::LogicalPlan> plans;
  for (const workload::JobInstance& job : jobs) {
    auto plan = scope::CompileSource(job.script, job.catalog);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (const opt::RuleConfig& config : configs) {
      (void)opt::Optimizer(job.catalog).Optimize(*plan, config);
    }
    plans.push_back(std::move(plan).value());
  }

  uint64_t compile_allocs = 0;
  for (const workload::JobInstance& job : jobs) {
    compile_allocs += CountAllocations([&] {
      auto plan = scope::CompileSource(job.script, job.catalog);
      ASSERT_TRUE(plan.ok());
    });
  }
  uint64_t optimize_allocs = 0;
  size_t optimizes = 0;
  size_t feasible = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const opt::Optimizer optimizer(jobs[j].catalog);
    for (const opt::RuleConfig& config : configs) {
      optimize_allocs += CountAllocations([&] {
        auto out = optimizer.Optimize(plans[j], config);
        if (out.ok()) ++feasible;
      });
      ++optimizes;
    }
  }
  // Most configurations must compile, or the budget measures error paths.
  EXPECT_GT(feasible, optimizes * 3 / 4);

  const double per_compile =
      static_cast<double>(compile_allocs) / static_cast<double>(jobs.size());
  const double per_optimize =
      static_cast<double>(optimize_allocs) / static_cast<double>(optimizes);
  std::printf("allocations per CompileSource: %.1f\n", per_compile);
  std::printf("allocations per Optimize: %.1f\n", per_optimize);
  EXPECT_LE(per_compile, kMaxAllocsPerCompileSource);
  EXPECT_LE(per_optimize, kMaxAllocsPerOptimize);
}

}  // namespace
}  // namespace qo
