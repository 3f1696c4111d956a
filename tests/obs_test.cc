// Observability tests: histogram bucket math and deterministic quantiles
// against hand-computed goldens, snapshot-merge associativity across shards,
// concurrent increment stress (exercised under TSAN in CI), registry
// collector plumbing, run-report formatting, the Chrome-trace sink, and —
// the load-bearing property — byte-identity of the fig10/table2 pipeline
// with metrics on vs off.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "service/advisor_service.h"
#include "sis/sis.h"
#include "workload/workload.h"

namespace qo::obs {
namespace {

// Restores env-derived metrics dispatch after each test that forces it.
struct MetricsOverrideGuard {
  explicit MetricsOverrideGuard(int state) { SetMetricsEnabledForTest(state); }
  ~MetricsOverrideGuard() { SetMetricsEnabledForTest(-1); }
};

// --- Bucket math ------------------------------------------------------------

TEST(HistogramBucketTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(hist::BucketIndex(v), v);
    EXPECT_EQ(hist::BucketLowerBound(v), v);
    EXPECT_EQ(hist::BucketUpperBound(v), v);
  }
}

TEST(HistogramBucketTest, HandComputedGoldens) {
  // [4, 8) splits into 4 sub-buckets of width 1: indices 4..7.
  EXPECT_EQ(hist::BucketIndex(4), 4u);
  EXPECT_EQ(hist::BucketIndex(5), 5u);
  EXPECT_EQ(hist::BucketIndex(7), 7u);
  // [8, 16) -> width-2 sub-buckets: 8,9 -> idx 8; 14,15 -> idx 11.
  EXPECT_EQ(hist::BucketIndex(8), 8u);
  EXPECT_EQ(hist::BucketIndex(9), 8u);
  EXPECT_EQ(hist::BucketIndex(14), 11u);
  EXPECT_EQ(hist::BucketIndex(15), 11u);
  // 100 lies in [64, 128), sub-bucket width 16: [96, 112) -> idx 4+(6-2)*4+2.
  EXPECT_EQ(hist::BucketIndex(100), 22u);
  EXPECT_EQ(hist::BucketLowerBound(22), 96u);
  EXPECT_EQ(hist::BucketUpperBound(22), 111u);
}

TEST(HistogramBucketTest, BoundsRoundTripEveryBucket) {
  for (size_t idx = 0; idx < hist::kNumBuckets; ++idx) {
    const uint64_t lo = hist::BucketLowerBound(idx);
    const uint64_t hi = hist::BucketUpperBound(idx);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(hist::BucketIndex(lo), idx);
    EXPECT_EQ(hist::BucketIndex(hi), idx);
    if (idx + 1 < hist::kNumBuckets) {
      EXPECT_EQ(hist::BucketLowerBound(idx + 1), hi + 1);
    }
  }
  EXPECT_EQ(hist::BucketUpperBound(hist::kNumBuckets - 1), UINT64_MAX);
}

// --- Quantiles --------------------------------------------------------------

TEST(HistogramQuantileTest, DeterministicGoldensFor1To100) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  // p50 -> rank 50 -> bucket [48, 55] (value 50 lands there): upper bound 55.
  EXPECT_EQ(snap.Quantile(0.50), 55u);
  // p95 -> rank 95 -> bucket [80, 95]: upper bound 95.
  EXPECT_EQ(snap.Quantile(0.95), 95u);
  // p99 -> rank 99 -> bucket [96, 111]: upper bound 111.
  EXPECT_EQ(snap.Quantile(0.99), 111u);
  EXPECT_EQ(snap.MaxValue(), 111u);
  // Extremes clamp to the first/last occupied rank.
  EXPECT_EQ(snap.Quantile(0.0), 1u);
  EXPECT_EQ(snap.Quantile(1.0), 111u);
}

TEST(HistogramQuantileTest, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0u);
  EXPECT_EQ(h.Snapshot().MaxValue(), 0u);
  h.Record(42);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Snapshot().Quantile(q), hist::BucketUpperBound(
                                            hist::BucketIndex(42)));
  }
}

TEST(HistogramQuantileTest, QuantilesAreOrderIndependent) {
  Histogram forward;
  Histogram backward;
  for (uint64_t v = 1; v <= 1000; ++v) forward.Record(v * 7);
  for (uint64_t v = 1000; v >= 1; --v) backward.Record(v * 7);
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    EXPECT_EQ(forward.Snapshot().Quantile(q), backward.Snapshot().Quantile(q));
  }
}

// --- Merge associativity ----------------------------------------------------

TEST(SnapshotMergeTest, ShardMergesAssociativeInAnyGrouping) {
  Histogram h;
  // Record from several threads so multiple shards are populated.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t v = 0; v < 500; ++v) h.Record(v * (t + 1));
    });
  }
  for (auto& th : threads) th.join();

  const HistogramSnapshot full = h.Snapshot();
  EXPECT_EQ(full.total, 8u * 500u);

  // Left fold: ((s0 + s1) + s2) + s3.
  HistogramSnapshot left;
  for (unsigned s = 0; s < Histogram::kHistShards; ++s) {
    left.Merge(h.ShardSnapshot(s));
  }
  // Pairwise tree: (s0 + s2) + (s3 + s1).
  HistogramSnapshot a = h.ShardSnapshot(0);
  a.Merge(h.ShardSnapshot(2));
  HistogramSnapshot b = h.ShardSnapshot(3);
  b.Merge(h.ShardSnapshot(1));
  a.Merge(b);

  EXPECT_EQ(left.counts, full.counts);
  EXPECT_EQ(a.counts, full.counts);
  EXPECT_EQ(left.total, full.total);
  EXPECT_EQ(a.total, full.total);
  EXPECT_EQ(left.sum, full.sum);
  EXPECT_EQ(a.sum, full.sum);
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(left.Quantile(q), full.Quantile(q));
    EXPECT_EQ(a.Quantile(q), full.Quantile(q));
  }
}

TEST(SnapshotMergeTest, CounterShardsSumToValue) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), 60000u);
  uint64_t shard_sum = 0;
  for (unsigned s = 0; s < detail::kShards; ++s) shard_sum += c.ShardValue(s);
  EXPECT_EQ(shard_sum, 60000u);
}

// --- Concurrent stress (TSAN coverage) --------------------------------------

TEST(ConcurrencyStressTest, CountersHistogramsAndSnapshotsRace) {
  MetricsOverrideGuard on(1);
  Counter& counter = Registry::Get().counter("obs_test.stress_counter");
  Histogram& histo = Registry::Get().histogram("obs_test.stress_hist");
  Gauge& gauge = Registry::Get().gauge("obs_test.stress_gauge");
  counter.ResetForTest();
  histo.ResetForTest();

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add();
        histo.Record(static_cast<uint64_t>(i % 257));
        if (i % 512 == 0) gauge.Set(static_cast<double>(t));
      }
    });
  }
  // Snapshot concurrently with the writers: must be race-free (values are
  // only monotone-approximate while writers run).
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = Registry::Get().Snapshot();
    EXPECT_LE(snap.SeriesValue("obs_test.stress_counter"),
              static_cast<double>(kThreads) * kIters);
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(histo.Snapshot().total, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ConcurrencyStressTest, SpanSitesRaceOnFirstResolve) {
  MetricsOverrideGuard on(1);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 2000; ++i) {
        QO_OBS_SPAN("obs_test.stress_span");
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap =
      Registry::Get().histogram("span.obs_test.stress_span").Snapshot();
  EXPECT_GE(snap.total, static_cast<uint64_t>(kThreads) * 2000u);
}

// --- Registry + collectors --------------------------------------------------

TEST(RegistryTest, StablePointersAndHeterogeneousLookup) {
  Counter& a = Registry::Get().counter("obs_test.registry_counter");
  Counter& b = Registry::Get().counter(std::string("obs_test.registry_counter"));
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::Get().histogram("obs_test.registry_hist");
  Histogram& h2 = Registry::Get().histogram("obs_test.registry_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, CollectorsExportAndSumDuplicateSeries) {
  const int id1 = Registry::Get().AddCollector(
      [](SeriesSink& sink) { sink.Add("obs_test.collector_series", 2.0); });
  const int id2 = Registry::Get().AddCollector(
      [](SeriesSink& sink) { sink.Add("obs_test.collector_series", 3.0); });
  MetricsSnapshot snap = Registry::Get().Snapshot();
  EXPECT_EQ(snap.SeriesValue("obs_test.collector_series"), 5.0);
  Registry::Get().RemoveCollector(id1);
  Registry::Get().RemoveCollector(id2);
  snap = Registry::Get().Snapshot();
  EXPECT_FALSE(snap.HasSeries("obs_test.collector_series"));
}

TEST(SpanTest, DisabledSpansRecordNothing) {
  MetricsOverrideGuard off(0);
  Histogram& h = Registry::Get().histogram("span.obs_test.noop_span");
  const uint64_t before = h.Snapshot().total;
  for (int i = 0; i < 100; ++i) {
    QO_OBS_SPAN("obs_test.noop_span");
  }
  EXPECT_EQ(h.Snapshot().total, before);
}

TEST(SpanTest, SamplingRecordsEveryNthExecution) {
  MetricsOverrideGuard on(1);
  SetSampleEveryForTest(10);
  Histogram& h = Registry::Get().histogram("span.obs_test.sampled_span");
  const uint64_t before = h.Snapshot().total;
  for (int i = 0; i < 100; ++i) {
    QO_OBS_SPAN("obs_test.sampled_span");
  }
  SetSampleEveryForTest(0);
  // The site counter starts at this test's first execution, so exactly
  // executions 0, 10, ..., 90 record.
  EXPECT_EQ(h.Snapshot().total, before + 10);
}

TEST(SpanTest, DefaultSamplingRecordsEverySpan) {
  MetricsOverrideGuard on(1);
  SetSampleEveryForTest(1);
  Histogram& h = Registry::Get().histogram("span.obs_test.unsampled_span");
  const uint64_t before = h.Snapshot().total;
  for (int i = 0; i < 25; ++i) {
    QO_OBS_SPAN("obs_test.unsampled_span");
  }
  SetSampleEveryForTest(0);
  EXPECT_EQ(h.Snapshot().total, before + 25);
}

// --- Run report -------------------------------------------------------------

TEST(RunReportTest, JsonLineHasSeriesAndQuantiles) {
  MetricsOverrideGuard on(1);
  Registry::Get().counter("obs_test.report_counter").Add(7);
  Histogram& h = Registry::Get().histogram("obs_test.report_hist");
  h.ResetForTest();
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);

  const std::string line =
      RunReportJsonLine("report \"label\"", 3, Registry::Get().Snapshot());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"label\":\"report \\\"label\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"day\":3"), std::string::npos);
  EXPECT_NE(line.find("\"obs_test.report_counter\":7"), std::string::npos);
  EXPECT_NE(line.find("\"obs_test.report_hist\":{\"count\":100,\"sum_ns\":5050,"
                      "\"p50_ns\":55,\"p95_ns\":95,\"p99_ns\":111,"
                      "\"max_ns\":111}"),
            std::string::npos);
}

TEST(RunReportTest, TextDumpListsSeries) {
  MetricsOverrideGuard on(1);
  Registry::Get().counter("obs_test.text_counter").Add(11);
  const std::string text = RunReportText(Registry::Get().Snapshot());
  EXPECT_NE(text.find("obs_test.text_counter"), std::string::npos);
}

// --- Chrome trace sink ------------------------------------------------------

TEST(TraceTest, WritesChromeTraceJson) {
  MetricsOverrideGuard on(1);
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  SetTracePathForTest(path.c_str());
  EXPECT_TRUE(TraceEnabled());
  {
    QO_OBS_SPAN("obs_test.traced_span");
  }
  EXPECT_TRUE(FlushTraceNow());
  SetTracePathForTest(nullptr);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"obs_test.traced_span\""),
            std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("\"ts\":"), std::string::npos);
  EXPECT_NE(content.find("\"dur\":"), std::string::npos);
}

TEST(TraceTest, DisabledWithoutPathOrMetrics) {
  SetTracePathForTest(nullptr);  // env QO_TRACE unset in the test harness
  {
    MetricsOverrideGuard on(1);
    EXPECT_FALSE(TraceEnabled());
  }
  const std::string path = ::testing::TempDir() + "/obs_test_trace_off.json";
  SetTracePathForTest(path.c_str());
  {
    MetricsOverrideGuard off(0);
    EXPECT_FALSE(TraceEnabled());
  }
  SetTracePathForTest(nullptr);
}

// --- Byte-identity of the fig10/table2 pipeline, metrics on vs off ----------

experiments::AggregateImpactResult RunSmallImpact(int threads) {
  // 60x90 with 14 train days is the smallest scale at which the validation
  // model accumulates enough samples for hints to go live (see the
  // EndToEndPipelineImpactIsNetPositive comment in experiments_test), so the
  // matched_jobs > 0 guard below has teeth.
  experiments::ExperimentEnv env(
      {.num_templates = 60, .jobs_per_day = 90, .threads = threads});
  return experiments::RunAggregateImpact(env, /*train_days=*/14,
                                         /*eval_days=*/4);
}

TEST(MetricsIdentityTest, Fig10PipelineByteIdenticalMetricsOnOff) {
  SetMetricsEnabledForTest(1);
  experiments::AggregateImpactResult on1 = RunSmallImpact(/*threads=*/1);
  experiments::AggregateImpactResult on4 = RunSmallImpact(/*threads=*/4);
  SetMetricsEnabledForTest(0);
  experiments::AggregateImpactResult off1 = RunSmallImpact(/*threads=*/1);
  experiments::AggregateImpactResult off4 = RunSmallImpact(/*threads=*/4);
  SetMetricsEnabledForTest(-1);

  ASSERT_GT(on1.matched_jobs, 0);
  auto expect_equal = [](const experiments::AggregateImpactResult& a,
                         const experiments::AggregateImpactResult& b,
                         const char* label) {
    EXPECT_EQ(a.matched_jobs, b.matched_jobs) << label;
    EXPECT_EQ(a.active_hints, b.active_hints) << label;
    EXPECT_EQ(a.pn_hours_reduction, b.pn_hours_reduction) << label;
    EXPECT_EQ(a.latency_reduction, b.latency_reduction) << label;
    EXPECT_EQ(a.vertices_reduction, b.vertices_reduction) << label;
    EXPECT_EQ(a.pn_deltas, b.pn_deltas) << label;
    EXPECT_EQ(a.latency_deltas, b.latency_deltas) << label;
    EXPECT_EQ(a.vertices_deltas, b.vertices_deltas) << label;
  };
  expect_equal(on1, off1, "threads=1 on vs off");
  expect_equal(on1, on4, "on: threads 1 vs 4");
  expect_equal(on1, off4, "threads=4 off vs threads=1 on");
}

// A pipeline run surfaces every subsystem's counters, the pipeline's state
// collector and the phase timers in one snapshot.
TEST(MetricsIdentityTest, PipelineRunExportsAllTelemetrySurfaces) {
  MetricsOverrideGuard on(1);
  // Earlier tests in this process have already recorded spans; zero
  // everything so the per-phase counts below are deterministic.
  Registry::Get().ZeroAllForTest();
  experiments::ExperimentEnv env(
      {.num_templates = 30, .jobs_per_day = 40, .threads = 1});
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.runtime = env.runtime_options();
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config,
                                      env.runtime());
  for (int day = 0; day < 2; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    ASSERT_TRUE(report.ok());
  }
  MetricsSnapshot snap = Registry::Get().Snapshot();
  // One representative series per ported surface.
  EXPECT_TRUE(snap.HasSeries("cache.front_end.hits"));
  EXPECT_TRUE(snap.HasSeries("optimizer.memo.full_hits"));
  EXPECT_TRUE(snap.HasSeries("exec.prepares"));
  EXPECT_TRUE(snap.HasSeries("bandit.ranks"));
  EXPECT_TRUE(snap.HasSeries("bandit.retention_window"));
  EXPECT_TRUE(snap.HasSeries("flight.budget_total_hours"));
  EXPECT_TRUE(snap.HasSeries("sis.active_hints"));
  EXPECT_TRUE(snap.HasSeries("pipeline.days"));
  EXPECT_EQ(snap.SeriesValue("pipeline.days"), 2.0);
  // Phase timers populated by the run.
  const HistogramSnapshot* compile = snap.FindHistogram("span.compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_GT(compile->total, 0u);
  EXPECT_GT(compile->Quantile(0.5), 0u);
  const HistogramSnapshot* run_day = snap.FindHistogram("span.run_day");
  ASSERT_NE(run_day, nullptr);
  EXPECT_EQ(run_day->total, 2u);
}

// --- Counts live in the registry, not in their owners ----------------------

std::vector<workload::JobInstance> CounterJobs() {
  workload::WorkloadDriver driver(
      {.num_templates = 6, .jobs_per_day = 12, .seed = 5});
  return driver.DayJobs(0);
}

// Compiles every job under the default config; returns how many compiled.
double CompileAll(const engine::ScopeEngine& engine,
                  const std::vector<workload::JobInstance>& jobs) {
  double ok = 0.0;
  for (const auto& job : jobs) {
    ok += engine.CompileShared(job, opt::RuleConfig::Default()).ok() ? 1 : 0;
  }
  return ok;
}

double MemoLookups(const MetricsSnapshot& snap) {
  return snap.SeriesValue("optimizer.memo.full_hits") +
         snap.SeriesValue("optimizer.memo.norm_hits") +
         snap.SeriesValue("optimizer.memo.misses");
}

TEST(RegistryCountersTest, EngineCountsOutliveTheEngine) {
  Registry::Get().ZeroAllForTest();
  const std::vector<workload::JobInstance> jobs = CounterJobs();
  double compiled = 0.0;
  {
    engine::ScopeEngine engine;
    compiled = CompileAll(engine, jobs);
  }
  ASSERT_GT(compiled, 0.0);
  // The engine is gone; its front-end and memo counts are not.
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  EXPECT_GT(snap.SeriesValue("cache.front_end.misses"), 0.0);
  EXPECT_EQ(snap.SeriesValue("cache.front_end.hits") +
                snap.SeriesValue("cache.front_end.misses"),
            static_cast<double>(jobs.size()));
  EXPECT_GT(snap.SeriesValue("optimizer.memo.misses"), 0.0);
  EXPECT_EQ(MemoLookups(snap), compiled);
}

TEST(RegistryCountersTest, CountsSumAcrossEnginesAndNoRatiosAreExported) {
  Registry::Get().ZeroAllForTest();
  const std::vector<workload::JobInstance> jobs = CounterJobs();
  // Two engines, each compiling the same jobs twice: the second pass of
  // each is served by that engine's own front end and memo.
  engine::ScopeEngine first;
  CompileAll(first, jobs);
  CompileAll(first, jobs);
  const MetricsSnapshot one = Registry::Get().Snapshot();
  engine::ScopeEngine second;
  CompileAll(second, jobs);
  CompileAll(second, jobs);
  const MetricsSnapshot both = Registry::Get().Snapshot();

  for (const char* name :
       {"cache.front_end.hits", "cache.front_end.misses",
        "optimizer.memo.full_hits", "optimizer.memo.misses"}) {
    EXPECT_GT(one.SeriesValue(name), 0.0) << name;
    // The second engine repeats the first one's work exactly, so the
    // process-wide count is the sum over both engines.
    EXPECT_EQ(both.SeriesValue(name), 2.0 * one.SeriesValue(name)) << name;
  }
  // Ratios and capacities do not sum across instances, so none is exported:
  // readers derive rates from the counts.
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const auto& [name, value] : both.series) {
    EXPECT_FALSE(ends_with(name, "_rate")) << name;
    EXPECT_FALSE(ends_with(name, ".capacity")) << name;
    EXPECT_FALSE(ends_with(name, ".entries")) << name;
  }
}

TEST(RegistryCountersTest, GuardAndFlightCountsRecordWithMetricsOff) {
  // QO_METRICS=0 gates timing only: a chaos pipeline day still counts its
  // guardrail and flight activity.
  MetricsOverrideGuard off(0);
  Registry::Get().ZeroAllForTest();
  experiments::ExperimentConfig econfig{
      .num_templates = 24, .jobs_per_day = 48, .seed = 31, .threads = 1};
  econfig.faults.seed = 1337;
  econfig.faults.compile_error_prob = 0.05;
  econfig.faults.flight_failure_prob = 0.10;
  econfig.faults.telemetry_drop_prob = 0.05;
  experiments::ExperimentEnv env(econfig);
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.runtime = env.runtime_options();
  config.flighting.total_budget_machine_hours = 1e6;
  config.recommender.uniform_probes_per_job = 3;
  config.guard.enabled = true;
  config.guard.faults = econfig.faults;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config,
                                      env.runtime());
  ASSERT_TRUE(pipeline.RunDay(env.BuildDayView(0, &sis)).ok());

  const MetricsSnapshot snap = Registry::Get().Snapshot();
  double guard = 0.0, flight = 0.0;
  for (const auto& [name, value] : snap.series) {
    if (name.rfind("guard.", 0) == 0) guard += value;
    if (name.rfind("flight.", 0) == 0 && name != "flight.budget_total_hours" &&
        name != "flight.budget_used_hours") {
      flight += value;
    }
  }
  EXPECT_GT(guard, 0.0);
  EXPECT_GT(flight, 0.0);
  EXPECT_EQ(snap.SeriesValue("pipeline.days"), 1.0);
  // No timer recorded anything.
  const HistogramSnapshot* run_day = snap.FindHistogram("span.run_day");
  EXPECT_TRUE(run_day == nullptr || run_day->total == 0);
}

TEST(RegistryCountersTest, ServiceRunReportOutlivesTheService) {
  // The service_load shape: serve compile/rank/reward traffic, destroy the
  // service, then write the run report. Its engines' and learners' counts
  // must still be in the report.
  MetricsOverrideGuard on(1);
  Registry::Get().ZeroAllForTest();
  const std::vector<workload::JobInstance> jobs = CounterJobs();
  {
    service::AdvisorService advisor;
    auto session = advisor.OpenTenant("tenant_0");
    ASSERT_TRUE(session.ok()) << session.status();
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(session->Compile(jobs[i]).ok());
      service::RankRequest rank;
      rank.event_id = "e";
      rank.event_id += std::to_string(i);
      rank.context.AddNamed("tpl:" + jobs[i].template_name, 1.0);
      for (int rule = 0; rule < 3; ++rule) {
        bandit::RankableAction action;
        action.action_id = "flip_";
        action.action_id += std::to_string(rule);
        action.features.AddNamed(action.action_id, 1.0);
        rank.actions.push_back(std::move(action));
      }
      auto ranked = session->Rank(rank);
      ASSERT_TRUE(ranked.ok()) << ranked.status();
      ASSERT_TRUE(session->Reward(ranked->event, 1.0).ok());
    }
  }
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  const std::string line = RunReportJsonLine("service_load", -1, snap);
  for (const char* name :
       {"\"optimizer.memo.full_hits\":", "\"optimizer.memo.norm_hits\":",
        "\"optimizer.memo.misses\":", "\"cache.front_end.misses\":",
        "\"bandit.ranks\":", "\"service.rank_requests\":"}) {
    EXPECT_NE(line.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(snap.SeriesValue("bandit.ranks"),
            static_cast<double>(jobs.size()));
  EXPECT_EQ(snap.SeriesValue("bandit.reward_joins"),
            static_cast<double>(jobs.size()));
  EXPECT_GT(snap.SeriesValue("optimizer.memo.misses"), 0.0);
}

}  // namespace
}  // namespace qo::obs
