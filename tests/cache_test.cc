// Tests for the compile cache (src/cache/ front-end memo + per-job
// cross-config memo): sharded-LRU semantics, fingerprint keys, failure
// caching, concurrency, byte-identity against a fresh parse + optimize, and
// a pinned digest of pipeline output at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cache/compilation_cache.h"
#include "cache/fingerprint.h"
#include "cache/sharded_lru.h"
#include "bandit/personalizer.h"
#include "common/hash.h"
#include "core/pipeline.h"
#include "core/recommend.h"
#include "core/span.h"
#include "engine/engine.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "scope/compiler.h"
#include "sis/sis.h"
#include "workload/workload.h"

namespace qo {
namespace {

// ---------------------------------------------------------------------------
// ShardedLruCache semantics.
// ---------------------------------------------------------------------------

struct IntHasher {
  size_t operator()(int k) const { return static_cast<size_t>(k); }
};

using IntCache = cache::ShardedLruCache<int, int, IntHasher>;

/// Registry series the test caches count into.
constexpr char kLruSeries[] = "test.lru";

/// Value of a registry series; counts are process-wide, so tests that read
/// them zero the registry first.
double Series(const std::string& name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

TEST(ShardedLruTest, HitMissCounters) {
  obs::Registry::Get().ZeroAllForTest();
  IntCache c(/*capacity=*/8, /*num_shards=*/1, kLruSeries);
  EXPECT_FALSE(c.Get(1).has_value());
  c.Insert(1, 100);
  auto hit = c.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100);
  EXPECT_EQ(Series("test.lru.hits"), 1.0);
  EXPECT_EQ(Series("test.lru.misses"), 1.0);
  EXPECT_EQ(Series("test.lru.evictions"), 0.0);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.capacity(), 8u);
}

TEST(ShardedLruTest, EvictsLeastRecentlyUsedInOrder) {
  obs::Registry::Get().ZeroAllForTest();
  IntCache c(/*capacity=*/3, /*num_shards=*/1, kLruSeries);
  c.Insert(1, 10);
  c.Insert(2, 20);
  c.Insert(3, 30);
  // Touch 1 so 2 becomes the LRU entry.
  EXPECT_TRUE(c.Get(1).has_value());
  c.Insert(4, 40);  // evicts 2
  EXPECT_FALSE(c.Get(2).has_value());
  // Recency is now 4 > 1 > 3: the next eviction takes 3.
  c.Insert(5, 50);
  EXPECT_FALSE(c.Get(3).has_value());
  EXPECT_TRUE(c.Get(1).has_value());
  EXPECT_TRUE(c.Get(4).has_value());
  EXPECT_TRUE(c.Get(5).has_value());
  EXPECT_EQ(Series("test.lru.evictions"), 2.0);
}

TEST(ShardedLruTest, CapacityBoundHoldsAcrossShards) {
  obs::Registry::Get().ZeroAllForTest();
  const size_t kCapacity = 64;
  IntCache c(kCapacity, /*num_shards=*/7, kLruSeries);
  for (int i = 0; i < 10000; ++i) c.Insert(i, i);
  // Per-shard slices round up, so allow one extra entry per shard.
  EXPECT_LE(c.size(), kCapacity + c.num_shards());
  EXPECT_GE(Series("test.lru.evictions"),
            static_cast<double>(10000u - kCapacity - c.num_shards()));
}

TEST(ShardedLruTest, InsertRaceKeepsFirstValue) {
  IntCache c(/*capacity=*/4, /*num_shards=*/1, kLruSeries);
  EXPECT_EQ(c.Insert(7, 70), 70);
  // A second writer loses and receives the resident value.
  EXPECT_EQ(c.Insert(7, 71), 70);
  EXPECT_EQ(*c.Get(7), 70);
}

TEST(ShardedLruTest, GetOrComputeOnlyComputesOnMiss) {
  IntCache c(/*capacity=*/4, /*num_shards=*/2, kLruSeries);
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return 42;
  };
  EXPECT_EQ(c.GetOrCompute(9, compute), 42);
  EXPECT_EQ(c.GetOrCompute(9, compute), 42);
  EXPECT_EQ(computed, 1);
}

TEST(ShardedLruTest, ConcurrentMixedAccessIsConsistent) {
  obs::Registry::Get().ZeroAllForTest();
  IntCache c(/*capacity=*/128, /*num_shards=*/8, kLruSeries);
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, &wrong, t] {
      for (int i = 0; i < 2000; ++i) {
        int key = (i * 31 + t) % 512;
        int got = c.GetOrCompute(key, [key] { return key * 3; });
        if (got != key * 3) wrong = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever the interleaving, a key can only ever map to its own value.
  EXPECT_FALSE(wrong);
  EXPECT_EQ(Series("test.lru.hits") + Series("test.lru.misses"),
            8.0 * 2000.0);
}

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

TEST(FingerprintTest, CatalogFingerprintIsOrderIndependentAndSensitive) {
  scope::TableStats a;
  a.true_rows = 1e6;
  a.est_rows = 5e5;
  a.columns["k"] = {100.0, 90.0};
  scope::TableStats b;
  b.true_rows = 2e6;

  scope::Catalog ab, ba;
  ab.RegisterTable("/data/a", a);
  ab.RegisterTable("/data/b", b);
  ba.RegisterTable("/data/b", b);
  ba.RegisterTable("/data/a", a);
  EXPECT_EQ(ab.StatsFingerprint(), ba.StatsFingerprint());

  // Any stats drift must change the fingerprint (invalidation-by-miss).
  scope::Catalog drifted;
  scope::TableStats a2 = a;
  a2.est_rows = 5.1e5;
  drifted.RegisterTable("/data/a", a2);
  drifted.RegisterTable("/data/b", b);
  EXPECT_NE(ab.StatsFingerprint(), drifted.StatsFingerprint());

  scope::Catalog extra_col = ab;
  scope::TableStats a3 = a;
  a3.columns["v"] = {50.0, 50.0};
  extra_col.RegisterTable("/data/a", a3);
  EXPECT_NE(ab.StatsFingerprint(), extra_col.StatsFingerprint());
}

TEST(FingerprintTest, OptionsFingerprintSeparatesEngines) {
  opt::OptimizerOptions defaults;
  opt::OptimizerOptions tweaked;
  tweaked.broadcast_threshold_bytes *= 2.0;
  EXPECT_NE(cache::OptimizerOptionsFingerprint(defaults),
            cache::OptimizerOptionsFingerprint(tweaked));
  EXPECT_EQ(cache::OptimizerOptionsFingerprint(defaults),
            cache::OptimizerOptionsFingerprint(opt::OptimizerOptions{}));
}

// ---------------------------------------------------------------------------
// Engine-level semantics.
// ---------------------------------------------------------------------------

std::vector<workload::JobInstance> Jobs(int templates = 12, int jobs = 24) {
  workload::WorkloadDriver driver(
      {.num_templates = templates, .jobs_per_day = jobs, .seed = 404});
  return driver.DayJobs(0);
}

/// The reference compile: a fresh parse + optimize, with no cache or memo.
Result<opt::CompilationOutput> FreshCompile(const workload::JobInstance& job,
                                            const opt::RuleConfig& config) {
  QO_ASSIGN_OR_RETURN(scope::LogicalPlan plan,
                      scope::CompileSource(job.script, job.catalog));
  return opt::Optimizer(job.catalog, {}).Optimize(plan, config);
}

/// Full-fidelity serialization of a compilation for byte-identity checks.
std::string Serialize(const opt::CompilationOutput& out) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g", out.est_cost);
  return out.plan.ToString() + "|" + cost + "|" + out.signature.ToString();
}

TEST(CompilationCacheTest, CachedEqualsFreshCompileAcrossConfigs) {
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine cached;
  std::vector<opt::RuleConfig> configs = {
      opt::RuleConfig::Default(),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kEagerAggregationLeft),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kBroadcastJoinAggressive),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kJoinCommute),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kHashJoinImpl),
  };
  for (const auto& job : Jobs()) {
    for (const auto& config : configs) {
      auto a = cached.Compile(job, config);
      auto b = FreshCompile(job, config);
      ASSERT_EQ(a.ok(), b.ok()) << job.job_id;
      if (!a.ok()) {
        // Failures must be identical too (the span fix-point observes them).
        EXPECT_EQ(a.status(), b.status()) << job.job_id;
        continue;
      }
      EXPECT_EQ(Serialize(*a), Serialize(*b)) << job.job_id;
      // And the cached engine must keep answering identically from cache.
      auto again = cached.Compile(job, config);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(Serialize(*a), Serialize(*again)) << job.job_id;
    }
  }
  EXPECT_GT(Series("cache.front_end.hits"), 0.0);
  EXPECT_GT(Series("cache.front_end.misses"), 0.0);
  // Every repeat is served by the memo's full tier, without an optimizer run.
  EXPECT_GT(Series("optimizer.memo.full_hits"), 0.0);
}

TEST(CompilationCacheTest, RepeatedCompileSharesOneEntry) {
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine engine;
  workload::JobInstance job = Jobs(4, 4)[0];
  auto first = engine.CompileShared(job, opt::RuleConfig::Default());
  auto second = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(first.ok() && second.ok());
  // Same immutable output, not a copy.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
  EXPECT_EQ(Series("cache.front_end.hits"), 1.0);
  EXPECT_EQ(Series("optimizer.memo.misses"), 1.0);
  EXPECT_EQ(Series("optimizer.memo.full_hits"), 1.0);
  EXPECT_EQ(Series("optimizer.memo.norm_hits"), 0.0);
}

TEST(CompilationCacheTest, FrontEndMemoParsesEachJobOnce) {
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine engine;
  workload::JobInstance job = Jobs(4, 8)[0];
  auto span = advisor::ComputeJobSpan(engine, job);
  ASSERT_TRUE(span.ok());
  // The fix-point compiled `iterations` distinct configs but parsed once.
  EXPECT_GE(span->iterations, 2);
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
  EXPECT_EQ(Series("cache.front_end.hits") + Series("cache.front_end.misses"),
            span->iterations);
  EXPECT_EQ(Series("optimizer.memo.full_hits") +
                Series("optimizer.memo.norm_hits") +
                Series("optimizer.memo.misses"),
            span->iterations);

  // The front-end plan is shared by every consumer of this job.
  auto fe1 = engine.CompileFrontEnd(job);
  auto fe2 = engine.CompileFrontEnd(job);
  ASSERT_TRUE(fe1.ok() && fe2.ok());
  EXPECT_EQ(fe1->get(), fe2->get());
}

TEST(CompilationCacheTest, ParseErrorsAreCachedAndIdentical) {
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine cached;
  workload::JobInstance job = Jobs(4, 4)[0];
  job.script = "THIS IS NOT SCOPE";
  auto a = cached.Compile(job, opt::RuleConfig::Default());
  auto b = cached.Compile(job, opt::RuleConfig::Default());
  auto c = FreshCompile(job, opt::RuleConfig::Default());
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status(), b.status());
  EXPECT_EQ(a.status(), c.status());
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
}

TEST(CompilationCacheTest, ConcurrentCompilesAreIdenticalToSerial) {
  engine::ScopeEngine cached;
  std::vector<workload::JobInstance> jobs = Jobs(8, 32);
  std::vector<std::string> serial(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto out = FreshCompile(jobs[i], opt::RuleConfig::Default());
    ASSERT_TRUE(out.ok());
    serial[i] = Serialize(*out);
  }
  // 8 threads hammer the shared cache, repeating each job 4 times so the
  // same keys are hit while still warm and while being inserted.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < 4; ++r) {
        for (size_t i = t % 2; i < jobs.size(); i += 2) {
          auto out = cached.CompileShared(jobs[i], opt::RuleConfig::Default());
          if (!out.ok() || Serialize(**out) != serial[i]) mismatch = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch);
}

TEST(CompilationCacheTest, EvaluateFlipToleratesHandBuiltFeatures) {
  // Tools (e.g. examples/whatif_explorer) assemble JobFeatures by hand;
  // a null default_compilation must fall back to a cached default compile,
  // not crash, and must produce the same result as the populated path.
  engine::ScopeEngine engine;
  bandit::PersonalizerService personalizer({.seed = 17});
  advisor::Recommender recommender(&engine, &personalizer, {});
  workload::JobInstance job = Jobs(6, 12)[0];
  auto span = advisor::ComputeJobSpan(engine, job);
  ASSERT_TRUE(span.ok());
  ASSERT_TRUE(span->span.Any());
  int rule = span->span.Positions()[0];

  advisor::JobFeatures populated;
  populated.row.job_id = job.job_id;
  populated.row.instance = job;
  populated.span = span->span;
  populated.default_compilation = span->default_compilation;
  advisor::JobFeatures bare = populated;
  bare.default_compilation = nullptr;

  for (int r : {rule, -1}) {
    advisor::Recommendation a = recommender.EvaluateFlip(populated, r);
    advisor::Recommendation b = recommender.EvaluateFlip(bare, r);
    EXPECT_EQ(a.est_cost_default, b.est_cost_default);
    EXPECT_EQ(a.est_cost_new, b.est_cost_new);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.reward, b.reward);
  }
}

// ---------------------------------------------------------------------------
// End to end: fig10-style pipeline output must match a pinned digest at any
// thread count (the bar runtime_test set for threading).
// ---------------------------------------------------------------------------

/// Everything externally visible from a mini fig10 run: per-day pipeline
/// reports, the SIS upload history, and the hinted eval-day execution.
struct MiniFig10Output {
  std::string reports;
  std::vector<std::string> sis_files;
  size_t active_hints = 0;
  std::string eval_view;
};

MiniFig10Output RunMiniFig10(int threads) {
  experiments::ExperimentEnv env({.num_templates = 24,
                                  .jobs_per_day = 48,
                                  .seed = 31,
                                  .threads = threads});
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 6;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config,
                                      env.runtime());
  MiniFig10Output out;
  char buf[128];
  const int kTrainDays = 6;
  for (int day = 0; day < kTrainDays; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    EXPECT_TRUE(report.ok());
    if (!report.ok()) continue;
    std::snprintf(buf, sizeof(buf),
                  "d%d jobs=%zu fwd=%zu flights=%zu/%zu val=%zu up=%zu "
                  "budget=%.17g\n",
                  report->day, report->feature_gen.input_jobs,
                  report->recommender.forwarded, report->flights_success,
                  report->flight_requests, report->validated,
                  report->hints_uploaded, report->flight_budget_used_hours);
    out.reports += buf;
  }
  for (const auto& file : sis.history()) {
    out.sis_files.push_back(file.Serialize());
  }
  out.active_hints = sis.active_hints();
  // The eval day runs under whatever hints went live — the paper's Table 2 /
  // fig10 measurement path, exercising the hinted-recompile fallback too.
  telemetry::WorkloadView view = env.BuildDayView(kTrainDays, &sis);
  for (const auto& row : view.rows) {
    std::snprintf(buf, sizeof(buf), "%s c=%.17g l=%.17g pn=%.17g v=%d\n",
                  row.job_id.c_str(), row.est_cost, row.latency_sec,
                  row.pn_hours, row.total_vertices);
    out.eval_view += row.rule_signature.ToString(64) + buf;
  }
  return out;
}

/// Digest of everything a mini fig10 run makes visible.
uint64_t Digest(const MiniFig10Output& out) {
  std::string all = out.reports;
  for (const std::string& file : out.sis_files) {
    all += file;
    all += '\n';
  }
  all += std::to_string(out.active_hints);
  all += '\n';
  all += out.eval_view;
  return HashString(all);
}

// Recorded from the uncached, unprepared reference path (a fresh parse +
// optimize per compile, a fresh stage decomposition per run) before that
// path was removed. An intentional output change updates this value and
// says why in CHANGES.md.
constexpr uint64_t kMiniFig10Digest = 0x53138a11f5bb5983ULL;

TEST(CompilationCacheTest, PipelineOutputMatchesPinnedDigest) {
  for (int threads : {1, 4}) {
    MiniFig10Output run = RunMiniFig10(threads);
    // The pipeline must actually have produced steering output to compare.
    EXPECT_FALSE(run.reports.empty());
    EXPECT_FALSE(run.eval_view.empty());
    EXPECT_FALSE(run.sis_files.empty());
    EXPECT_EQ(Digest(run), kMiniFig10Digest) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace qo
