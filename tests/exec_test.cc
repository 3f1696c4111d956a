// Execution simulator tests: stage decomposition (including shared-subtree
// and cyclic-stage-graph DAG golden cases), metric determinism,
// byte-identity of the prepared execution path against a per-run
// decomposition (standalone and under concurrency), a pinned digest of the
// full fig10-12/table2 pipeline, and the variability model's statistical
// structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "exec/cluster.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "scope/compiler.h"
#include "workload/workload.h"

namespace qo::exec {
namespace {

/// Exact (bitwise) equality over every JobMetrics field — the prepared
/// execution path must not perturb a single ulp.
void ExpectMetricsBitEqual(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.latency_sec, b.latency_sec);
  EXPECT_EQ(a.pn_hours, b.pn_hours);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.data_read_bytes, b.data_read_bytes);
  EXPECT_EQ(a.data_written_bytes, b.data_written_bytes);
  EXPECT_EQ(a.max_memory_bytes, b.max_memory_bytes);
  EXPECT_EQ(a.avg_memory_bytes, b.avg_memory_bytes);
  EXPECT_EQ(a.cpu_hours, b.cpu_hours);
  EXPECT_EQ(a.io_hours, b.io_hours);
}

scope::Catalog SimCatalog() {
  scope::Catalog catalog;
  scope::TableStats fact;
  fact.true_rows = 4e7;
  fact.est_rows = 4e7;
  fact.avg_row_bytes = 80;
  fact.columns["k"] = {1e5, 1e5};
  fact.columns["grp"] = {30, 30};
  fact.columns["v"] = {1e6, 1e6};
  catalog.RegisterTable("fact", fact);
  scope::TableStats dim;
  dim.true_rows = 1e6;
  dim.est_rows = 1e6;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {1e6, 1e6};
  dim.columns["attr"] = {100, 100};
  catalog.RegisterTable("dim", dim);
  return catalog;
}

opt::PhysicalPlan CompileTestPlan(const scope::Catalog& catalog) {
  const char* script = R"(
    f = EXTRACT k:long, grp:string, v:double FROM "fact";
    d = EXTRACT pk:long, attr:string FROM "dim";
    j = SELECT * FROM f JOIN d ON k == pk @ 1.0;
    a = SELECT grp, SUM(v) AS s FROM j GROUP BY grp;
    OUTPUT a TO "out";
  )";
  auto logical = scope::CompileSource(script, catalog);
  EXPECT_TRUE(logical.ok());
  opt::Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, opt::RuleConfig::Default());
  EXPECT_TRUE(out.ok());
  return out->plan;
}

TEST(StageDecompositionTest, BoundariesAtExchanges) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig config;
  auto stages = DecomposeIntoStages(plan, catalog, config);
  // Every node appears in exactly one stage.
  size_t assigned = 0;
  for (const auto& s : stages) assigned += s.node_ids.size();
  EXPECT_EQ(assigned, plan.size());
  // The number of stages is 1 + number of exchanges (each exchange opens
  // exactly one producer-side stage in a tree-shaped plan).
  EXPECT_EQ(stages.size(), 1u + static_cast<size_t>(plan.ExchangeCount()));
  for (const auto& s : stages) {
    EXPECT_GE(s.partitions, 1);
    EXPECT_GE(s.cpu_sec, 0.0);
  }
}

TEST(StageDecompositionTest, UpstreamEdgesPointAcrossStages) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  auto stages = DecomposeIntoStages(plan, catalog, {});
  for (size_t i = 0; i < stages.size(); ++i) {
    for (int up : stages[i].upstream) {
      EXPECT_NE(static_cast<size_t>(up), i);
      EXPECT_LT(static_cast<size_t>(up), stages.size());
    }
  }
}

TEST(ClusterSimTest, SameSeedSameMetrics) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics a = sim.Execute(plan, catalog, 123);
  JobMetrics b = sim.Execute(plan, catalog, 123);
  EXPECT_DOUBLE_EQ(a.latency_sec, b.latency_sec);
  EXPECT_DOUBLE_EQ(a.pn_hours, b.pn_hours);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(ClusterSimTest, ByteCountersAreSeedIndependent) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics a = sim.Execute(plan, catalog, 1);
  JobMetrics b = sim.Execute(plan, catalog, 2);
  EXPECT_DOUBLE_EQ(a.data_read_bytes, b.data_read_bytes);
  EXPECT_DOUBLE_EQ(a.data_written_bytes, b.data_written_bytes);
  EXPECT_EQ(a.vertices, b.vertices);
  // Scans read at least the two input tables.
  EXPECT_GE(a.data_read_bytes, 4e7 * 80 + 1e6 * 40);
}

TEST(ClusterSimTest, LatencyVarianceExceedsPnHoursVariance) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  RunningStats latency, pn;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    JobMetrics m = sim.Execute(plan, catalog, seed);
    latency.Add(m.latency_sec);
    pn.Add(m.pn_hours);
  }
  // Paper Sec. 5.1: latency is far noisier than PNhours.
  EXPECT_GT(latency.cv(), 0.05);
  EXPECT_LT(pn.cv(), latency.cv());
}

TEST(ClusterSimTest, PnHoursIsCpuPlusIo) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics m = sim.Execute(plan, catalog, 5);
  EXPECT_NEAR(m.pn_hours, m.cpu_hours + m.io_hours, 1e-12);
  EXPECT_GT(m.cpu_hours, 0);
  EXPECT_GT(m.io_hours, 0);
}

TEST(ClusterSimTest, MoreTokensReduceLatencyOfWideJobs) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig few = {};
  few.tokens = 4;
  ClusterConfig many = {};
  many.tokens = 512;
  // Average over seeds to defeat noise.
  double lat_few = 0, lat_many = 0;
  for (uint64_t s = 0; s < 20; ++s) {
    lat_few += ClusterSimulator(few).Execute(plan, catalog, s).latency_sec;
    lat_many += ClusterSimulator(many).Execute(plan, catalog, s).latency_sec;
  }
  EXPECT_LT(lat_many, lat_few);
}

TEST(ClusterSimTest, RelativeDeltaHelper) {
  EXPECT_NEAR(RelativeDelta(90, 100), -0.1, 1e-12);
  EXPECT_NEAR(RelativeDelta(110, 100), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(RelativeDelta(5, 0), 0.0);
}

TEST(ClusterSimTest, MetricsToStringMentionsFields) {
  JobMetrics m;
  m.latency_sec = 12.5;
  m.pn_hours = 0.5;
  m.vertices = 7;
  std::string s = m.ToString();
  EXPECT_NE(s.find("latency"), std::string::npos);
  EXPECT_NE(s.find("vertices=7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared-subtree DAGs: golden decomposition.
// ---------------------------------------------------------------------------

/// Two outputs sharing one scan; one consumer reads it through an exchange,
/// the other directly:
///
///   Output(3) <- HashAgg(2) <- ExchangeShuffle(1) <- Scan(0)
///   Output(5) <- Project(4) <-----------------------/
opt::PhysicalPlan SharedSubtreeDag() {
  opt::PhysicalPlan plan;
  auto add = [&](opt::PhysOpKind kind, std::vector<int> children, int parts,
                 double rows, double bytes) {
    opt::PhysicalNode n;
    n.kind = kind;
    n.children = std::move(children);
    n.partitions = parts;
    n.true_rows = rows;
    n.true_bytes = bytes;
    return plan.AddNode(std::move(n));
  };
  int scan = add(opt::PhysOpKind::kScan, {}, 8, 1e6, 8e7);
  int exchange = add(opt::PhysOpKind::kExchangeShuffle, {scan}, 4, 1e6, 8e7);
  int agg = add(opt::PhysOpKind::kHashAgg, {exchange}, 4, 1e3, 8e4);
  int out_a = add(opt::PhysOpKind::kOutput, {agg}, 1, 1e3, 8e4);
  int project = add(opt::PhysOpKind::kProject, {scan}, 8, 1e6, 4e7);
  int out_b = add(opt::PhysOpKind::kOutput, {project}, 1, 1e6, 4e7);
  plan.roots = {out_a, out_b};
  return plan;
}

TEST(StageDecompositionTest, SharedSubtreeDagGolden) {
  opt::PhysicalPlan plan = SharedSubtreeDag();
  scope::Catalog catalog;  // scans fall back to node bytes: no table stats
  auto stages = DecomposeIntoStages(plan, catalog, {});
  ASSERT_EQ(stages.size(), 3u);
  // Root A's pipeline, then the exchange-opened producer stage, then root
  // B's pipeline (stage creation follows the DFS visit order).
  EXPECT_EQ(stages[0].node_ids, (std::vector<int>{3, 2}));
  EXPECT_EQ(stages[1].node_ids, (std::vector<int>{1, 0}));
  EXPECT_EQ(stages[2].node_ids, (std::vector<int>{5, 4}));
  // Both consumers wait on the shared producer stage; the producer waits on
  // nothing.
  EXPECT_EQ(stages[0].upstream, (std::vector<int>{1}));
  EXPECT_TRUE(stages[1].upstream.empty());
  EXPECT_EQ(stages[2].upstream, (std::vector<int>{1}));
  // The exchange runs in its producer's partitions; the agg stage is 4-wide.
  EXPECT_EQ(stages[0].partitions, 4);
  EXPECT_EQ(stages[1].partitions, 8);
  EXPECT_EQ(stages[2].partitions, 8);
  // The shared scan's work lands in exactly one stage.
  size_t assigned = 0;
  for (const auto& s : stages) assigned += s.node_ids.size();
  EXPECT_EQ(assigned, plan.size());
}

// ---------------------------------------------------------------------------
// Prepared execution: byte-identity, batching, concurrency, counters.
// ---------------------------------------------------------------------------

TEST(PreparedExecutionTest, ByteIdenticalToUnpreparedAcrossSeeds) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  EXPECT_EQ(profile.topo_order.size(), profile.stages.size());
  for (uint64_t seed = 0; seed < 64; ++seed) {
    ExpectMetricsBitEqual(sim.Execute(plan, catalog, seed),
                          sim.Execute(profile, seed));
  }
}

TEST(PreparedExecutionTest, SharedSubtreeDagByteIdentical) {
  opt::PhysicalPlan plan = SharedSubtreeDag();
  scope::Catalog catalog;
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  for (uint64_t seed = 100; seed < 132; ++seed) {
    ExpectMetricsBitEqual(sim.Execute(plan, catalog, seed),
                          sim.Execute(profile, seed));
  }
}

/// A self-join over a shared scan whose second branch crosses an exchange:
///
///   Output(4) <- HashJoin(3) <- Scan(0)
///                            <- ExchangeShuffle(2) <- Project(1) <- Scan(0)
///
/// The scan runs in the join's stage, and the exchange's producer stage
/// reads it, so the two stages wait on each other.
opt::PhysicalPlan CyclicStageDag() {
  opt::PhysicalPlan plan;
  auto add = [&](opt::PhysOpKind kind, std::vector<int> children, int parts,
                 double rows, double bytes) {
    opt::PhysicalNode n;
    n.kind = kind;
    n.children = std::move(children);
    n.partitions = parts;
    n.true_rows = rows;
    n.true_bytes = bytes;
    return plan.AddNode(std::move(n));
  };
  int scan = add(opt::PhysOpKind::kScan, {}, 8, 1e6, 8e7);
  int project = add(opt::PhysOpKind::kProject, {scan}, 8, 1e6, 4e7);
  int exchange =
      add(opt::PhysOpKind::kExchangeShuffle, {project}, 16, 1e6, 4e7);
  int join = add(opt::PhysOpKind::kHashJoin, {scan, exchange}, 16, 2e6, 1.2e8);
  int out = add(opt::PhysOpKind::kOutput, {join}, 1, 2e6, 1.2e8);
  plan.roots = {out};
  return plan;
}

/// Order-sensitive digest over every JobMetrics field of a run sequence.
uint64_t MetricsDigest(const std::vector<JobMetrics>& runs) {
  uint64_t h = kFnvOffsetBasis;
  for (const JobMetrics& m : runs) {
    h = HashU64(static_cast<uint64_t>(m.vertices), h);
    for (double v : {m.latency_sec, m.pn_hours, m.data_read_bytes,
                     m.data_written_bytes, m.max_memory_bytes,
                     m.avg_memory_bytes, m.cpu_hours, m.io_hours}) {
      h = HashDouble(v, h);
    }
  }
  return h;
}

// Recorded from the lane-blocked ExecuteRuns build, whose cyclic-graph
// branch already ran the memoized recursion per seed.
constexpr uint64_t kCyclicStageDagDigest = 0x1d349c6861f32b93ULL;

TEST(PreparedExecutionTest, CyclicStageGraphGolden) {
  opt::PhysicalPlan plan = CyclicStageDag();
  scope::Catalog catalog;  // scans fall back to node bytes: no table stats
  auto stages = DecomposeIntoStages(plan, catalog, {});
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].node_ids, (std::vector<int>{4, 3, 0}));
  EXPECT_EQ(stages[1].node_ids, (std::vector<int>{2, 1}));
  EXPECT_EQ(stages[0].upstream, (std::vector<int>{1}));
  EXPECT_EQ(stages[1].upstream, (std::vector<int>{0}));

  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  constexpr uint64_t kBase = 300;
  constexpr int kRuns = 23;
  std::vector<JobMetrics> batch = sim.ExecuteRuns(profile, kBase, kRuns);
  ASSERT_EQ(batch.size(), static_cast<size_t>(kRuns));
  for (int i = 0; i < kRuns; ++i) {
    const uint64_t seed = kBase + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const JobMetrics from_plan = sim.Execute(plan, catalog, seed);
    ExpectMetricsBitEqual(from_plan, sim.Execute(profile, seed));
    ExpectMetricsBitEqual(from_plan, batch[i]);
    // Repeatable: the same seed reproduces the same bytes.
    ExpectMetricsBitEqual(from_plan, sim.Execute(profile, seed));
    EXPECT_GT(from_plan.latency_sec, 0.0);
  }
  EXPECT_EQ(MetricsDigest(batch), kCyclicStageDagDigest)
      << std::hex << MetricsDigest(batch);
}

TEST(PreparedExecutionTest, ExecuteRunsMatchesIndividualRuns) {
  // Batch lengths cover a multiple of four and a 4k+3 remainder, at two
  // seed bases; a non-positive count yields no runs.
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  for (auto [base, runs] : {std::pair<uint64_t, int>{7000, 20}, {500, 23}}) {
    std::vector<JobMetrics> batch = sim.ExecuteRuns(profile, base, runs);
    ASSERT_EQ(batch.size(), static_cast<size_t>(runs));
    for (int i = 0; i < runs; ++i) {
      const uint64_t seed = base + static_cast<uint64_t>(i);
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExpectMetricsBitEqual(batch[i], sim.Execute(profile, seed));
    }
  }
  EXPECT_TRUE(sim.ExecuteRuns(profile, 0, 0).empty());
  EXPECT_TRUE(sim.ExecuteRuns(profile, 0, -3).empty());
}

TEST(PreparedExecutionTest, ConcurrentProfileRunsMatchSerial) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  auto profile =
      std::make_shared<const ExecutionProfile>(sim.Prepare(plan, catalog));
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 64;
  std::vector<JobMetrics> serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      serial.push_back(
          sim.Execute(*profile, static_cast<uint64_t>(t * 1000 + r)));
    }
  }
  // The same runs, fanned out: one immutable profile hammered from four
  // threads (the PR 2 runtime-pool usage pattern) must reproduce the serial
  // metrics exactly.
  std::vector<JobMetrics> parallel(serial.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        parallel[t * kRunsPerThread + r] =
            sim.Execute(*profile, static_cast<uint64_t>(t * 1000 + r));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectMetricsBitEqual(parallel[i], serial[i]);
  }
}

/// Value of a registry series; counts are process-wide, so tests that read
/// them zero the registry first.
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

TEST(PreparedExecutionTest, TelemetryCountersTrack) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  obs::Registry::Get().ZeroAllForTest();
  ClusterSimulator sim;
  EXPECT_EQ(Series("exec.prepares"), 0.0);
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  EXPECT_EQ(Series("exec.prepares"), 1.0);
  sim.Execute(profile, 1);
  sim.ExecuteRuns(profile, 2, 3);
  EXPECT_EQ(Series("exec.prepared_runs"), 4.0);
  sim.Execute(plan, catalog, 1);  // prepares inline, then runs the profile
  EXPECT_EQ(Series("exec.prepared_runs"), 5.0);
  EXPECT_EQ(Series("exec.prepares"), 2.0);
  // A copy adds to the same process-wide counts.
  ClusterSimulator copy = sim;
  copy.Execute(profile, 5);
  EXPECT_EQ(Series("exec.prepared_runs"), 6.0);
}

TEST(PreparedExecutionTest, AAVarianceStructure) {
  // Paper Figs. 3/5 through the prepared path: A/A latency is noisy (CV
  // well above the 5% line) while PNhours stays bounded.
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  RunningStats latency, pn;
  for (const JobMetrics& m : sim.ExecuteRuns(profile, 0, 40)) {
    latency.Add(m.latency_sec);
    pn.Add(m.pn_hours);
  }
  EXPECT_GT(latency.cv(), 0.05);
  EXPECT_LT(pn.cv(), 0.15);
  EXPECT_LT(pn.cv(), latency.cv());
}

// ---------------------------------------------------------------------------
// Engine integration: shared compilations, batches, cluster configs, drift.
// ---------------------------------------------------------------------------

const workload::JobInstance& EngineTestJob() {
  static const auto* job = [] {
    workload::WorkloadDriver driver(
        {.num_templates = 6, .jobs_per_day = 8, .seed = 77});
    return new workload::JobInstance(driver.DayJobs(0)[0]);
  }();
  return *job;
}

TEST(EnginePreparedTest, SharedProfileAgreesWithFreshProfileAndBatch) {
  engine::ScopeEngine engine;
  const workload::JobInstance& job = EngineTestJob();
  auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(compiled.ok());
  for (uint64_t salt : {0ull, 1ull, 17ull, 123456789ull}) {
    // The cached compilation and a private copy of it run identically.
    JobMetrics via_shared = engine.Execute(job, **compiled, salt);
    JobMetrics via_copy =
        engine.Execute(job, opt::CompilationOutput(**compiled), salt);
    ExpectMetricsBitEqual(via_shared, via_copy);
  }
  std::vector<JobMetrics> batch = engine.ExecuteRuns(job, **compiled, 50, 8);
  ASSERT_EQ(batch.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    ExpectMetricsBitEqual(batch[i], engine.Execute(job, **compiled, 50 + i));
  }
}

TEST(EnginePreparedTest, SharedCompilationAcrossClusterConfigs) {
  // One compilation executed by engines with different cluster configs,
  // interleaved: each run must follow its own engine's config, exactly as
  // that engine's runs of its own compile of the job do.
  ClusterConfig wide_config;
  wide_config.tokens = 64;
  ClusterConfig narrow_config;
  narrow_config.tokens = 8;
  engine::ScopeEngine wide({}, wide_config);
  engine::ScopeEngine narrow({}, narrow_config);
  const workload::JobInstance& job = EngineTestJob();
  auto shared = wide.CompileShared(job, opt::RuleConfig::Default());
  auto narrow_own = narrow.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(narrow_own.ok());
  bool configs_differ = false;
  for (uint64_t salt : {0ull, 1ull, 17ull, 123456789ull}) {
    SCOPED_TRACE("salt " + std::to_string(salt));
    JobMetrics on_wide = wide.Execute(job, **shared, salt);
    JobMetrics on_narrow = narrow.Execute(job, **shared, salt);
    ExpectMetricsBitEqual(on_narrow, narrow.Execute(job, **narrow_own, salt));
    ExpectMetricsBitEqual(on_wide, wide.Execute(job, **shared, salt));
    configs_differ |= on_wide.latency_sec != on_narrow.latency_sec;
  }
  std::vector<JobMetrics> wide_batch = wide.ExecuteRuns(job, **shared, 50, 4);
  std::vector<JobMetrics> narrow_batch =
      narrow.ExecuteRuns(job, **shared, 50, 4);
  for (int i = 0; i < 4; ++i) {
    ExpectMetricsBitEqual(narrow_batch[i],
                          narrow.Execute(job, **narrow_own, 50 + i));
    ExpectMetricsBitEqual(wide_batch[i], wide.Execute(job, **shared, 50 + i));
  }
  // The token budget must actually change the runs for this to mean
  // anything.
  EXPECT_TRUE(configs_differ);
}

TEST(EnginePreparedTest, CatalogDriftInvalidatesProfileReuse) {
  // A profile bakes in scan sizes from the catalog; if a job's statistics
  // drift, later runs of an existing compilation must see the new sizes.
  engine::ScopeEngine engine;
  workload::JobInstance job;
  job.job_id = "drift_job";
  job.script = R"(
    f = EXTRACT k:long, grp:string, v:double FROM "fact";
    d = EXTRACT pk:long, attr:string FROM "dim";
    j = SELECT * FROM f JOIN d ON k == pk @ 1.0;
    a = SELECT grp, SUM(v) AS s FROM j GROUP BY grp;
    OUTPUT a TO "out";
  )";
  job.catalog = SimCatalog();
  auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(compiled.ok());
  JobMetrics before = engine.Execute(job, **compiled, 3);
  // Drift: double the fact table on this job's private catalog copy.
  scope::TableStats fact = *job.catalog.Lookup(Sym("fact")).value();
  fact.true_rows *= 2;
  job.catalog.RegisterTable("fact", fact);
  JobMetrics after = engine.Execute(job, **compiled, 3);
  // The shared compilation carries no execution state from the first run:
  // it runs exactly like a private copy against the drifted catalog (and
  // the drift actually changes the metrics).
  ExpectMetricsBitEqual(
      after, engine.Execute(job, opt::CompilationOutput(**compiled), 3));
  EXPECT_NE(before.pn_hours, after.pn_hours);
}

// ---------------------------------------------------------------------------
// Full pipeline identity: the fig10-12/table2 aggregate-impact runs (train +
// eval) must match a pinned digest at 1 or 4 worker threads.
// ---------------------------------------------------------------------------

experiments::AggregateImpactResult RunPipeline(int threads) {
  experiments::ExperimentEnv env({.threads = threads});
  return experiments::RunAggregateImpact(env, /*train_days=*/12,
                                         /*eval_days=*/3);
}

void ExpectAggregateEqual(const experiments::AggregateImpactResult& a,
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
}

/// Digest of every field ExpectAggregateEqual compares.
uint64_t Digest(const experiments::AggregateImpactResult& r) {
  std::string all = std::to_string(r.matched_jobs);
  all += ',';
  all += std::to_string(r.active_hints);
  char buf[40];
  auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), ",%.17g", v);
    all += buf;
  };
  add(r.pn_hours_reduction);
  add(r.latency_reduction);
  add(r.vertices_reduction);
  for (const std::vector<double>* deltas :
       {&r.pn_deltas, &r.latency_deltas, &r.vertices_deltas}) {
    all += '|';
    for (double v : *deltas) add(v);
  }
  return HashString(all);
}

// Recorded from the uncached, unprepared reference path (a fresh parse +
// optimize per compile, a fresh stage decomposition per run) before that
// path was removed. An intentional output change updates this value and
// says why in CHANGES.md.
constexpr uint64_t kAggregateImpactDigest = 0xaff6223ec0ba80d2ULL;

TEST(PreparedPipelineTest, AggregateImpactMatchesPinnedDigest) {
  experiments::AggregateImpactResult reference = RunPipeline(/*threads=*/1);
  // The pipeline must have produced hints and matched jobs for the
  // comparison to mean anything.
  ASSERT_GT(reference.matched_jobs, 0);
  ASSERT_GT(reference.active_hints, 0u);
  EXPECT_EQ(Digest(reference), kAggregateImpactDigest) << "threads=1";
  // Four worker threads must reproduce the single-threaded run field by
  // field (the per-field diff names what drifted) and so the digest too.
  experiments::AggregateImpactResult threaded = RunPipeline(/*threads=*/4);
  ExpectAggregateEqual(reference, threaded, "threads=4 vs threads=1");
  EXPECT_EQ(Digest(threaded), kAggregateImpactDigest) << "threads=4";
}

// Parameterized: the variability knobs behave monotonically.
class NoiseKnobTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseKnobTest, HigherCongestionSigmaRaisesLatencyCv) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig quiet = {};
  quiet.stage_congestion_sigma = 0.01;
  quiet.job_congestion_sigma = 0.01;
  quiet.straggler_prob = 0.0;
  ClusterConfig noisy = quiet;
  noisy.stage_congestion_sigma = GetParam();
  RunningStats cv_quiet, cv_noisy;
  for (uint64_t s = 0; s < 30; ++s) {
    cv_quiet.Add(ClusterSimulator(quiet).Execute(plan, catalog, s).latency_sec);
    cv_noisy.Add(ClusterSimulator(noisy).Execute(plan, catalog, s).latency_sec);
  }
  EXPECT_GT(cv_noisy.cv(), cv_quiet.cv());
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseKnobTest,
                         ::testing::Values(0.2, 0.4, 0.8));

}  // namespace
}  // namespace qo::exec
