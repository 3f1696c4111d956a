// Microbenchmarks (google-benchmark) for the hot paths of the pipeline:
// compilation/optimization throughput, span computation, bandit ranking,
// and the bitvector primitives everything rests on.
#include <benchmark/benchmark.h>

#include <memory>

#include "bandit/cb_model.h"
#include "bandit/personalizer.h"
#include "common/bitvector.h"
#include "core/feature_gen.h"
#include "core/span.h"
#include "engine/engine.h"
#include "flighting/flighting.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "scope/compiler.h"
#include "service/advisor_service.h"
#include "telemetry/workload_view.h"
#include "workload/workload.h"

namespace {

using namespace qo;  // NOLINT

const workload::WorkloadDriver& Driver() {
  static const auto* driver = new workload::WorkloadDriver(
      {.num_templates = 20, .jobs_per_day = 30, .seed = 99});
  return *driver;
}

const std::vector<workload::JobInstance>& Jobs() {
  static const auto* jobs =
      new std::vector<workload::JobInstance>(Driver().DayJobs(0));
  return *jobs;
}

void BM_CompileDefaultConfig(benchmark::State& state) {
  engine::ScopeEngine engine;
  size_t i = 0;
  for (auto _ : state) {
    auto out =
        engine.Compile(Jobs()[i % Jobs().size()], opt::RuleConfig::Default());
    benchmark::DoNotOptimize(out);
    ++i;
  }
}
BENCHMARK(BM_CompileDefaultConfig);

void BM_CompileWithFlip(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto config =
      opt::RuleConfig::DefaultWithFlip(opt::rules::kEagerAggregationLeft);
  size_t i = 0;
  for (auto _ : state) {
    auto out = engine.Compile(Jobs()[i % Jobs().size()], config);
    benchmark::DoNotOptimize(out);
    ++i;
  }
}
BENCHMARK(BM_CompileWithFlip);

void BM_ExecuteSimulation(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto compiled = engine.Compile(Jobs()[0], opt::RuleConfig::Default());
  uint64_t salt = 0;
  for (auto _ : state) {
    auto m = engine.Execute(Jobs()[0], *compiled, salt++);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ExecuteSimulation);

// --- Prepared execution profiles (src/exec/): the A/A amortization story.
// Unprepared re-derives the stage decomposition per run; prepared pays it
// once in Prepare and keeps only the stochastic draws per run.

void BM_PrepareProfile(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto compiled = engine.Compile(Jobs()[0], opt::RuleConfig::Default());
  exec::ClusterSimulator sim;
  for (auto _ : state) {
    auto profile = sim.Prepare(compiled->plan, Jobs()[0].catalog);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_PrepareProfile);

void BM_ExecuteUnprepared(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto compiled = engine.Compile(Jobs()[0], opt::RuleConfig::Default());
  exec::ClusterSimulator sim;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto m = sim.Execute(compiled->plan, Jobs()[0].catalog, seed++);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ExecuteUnprepared);

void BM_ExecutePrepared(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto compiled = engine.Compile(Jobs()[0], opt::RuleConfig::Default());
  exec::ClusterSimulator sim;
  exec::ExecutionProfile profile =
      sim.Prepare(compiled->plan, Jobs()[0].catalog);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto m = sim.Execute(profile, seed++);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ExecutePrepared);

// --- Interned symbol table + cross-config memo (src/common/, src/optimizer/):
// the compile hot path does integer array reads where it used to probe
// unordered_map<std::string>, and the per-job memo serves config flips of
// unconsulted rules without re-running the optimizer at all.

void BM_CatalogLookupInterned(benchmark::State& state) {
  // A catalog shaped like a generated job's: a wide fact table plus dims.
  scope::Catalog catalog;
  std::vector<std::pair<Symbol, Symbol>> keys;
  for (int t = 0; t < 4; ++t) {
    std::string path = "tbl";
    path += std::to_string(t);
    scope::TableStats stats;
    stats.true_rows = 1e7;
    stats.est_rows = 1.2e7;
    for (int c = 0; c < 12; ++c) {
      std::string col = "col";
      col += std::to_string(c);
      stats.columns[col] = {1e4, 1.1e4};
      // Intern once up front — the optimizer carries these ids in its plan
      // structures, so steady-state lookups never touch the strings.
      keys.emplace_back(Sym(path), Sym(col));
    }
    catalog.RegisterTable(path, std::move(stats));
  }
  size_t i = 0;
  for (auto _ : state) {
    const scope::ColumnStats& stats =
        catalog.LookupColumn(keys[i % keys.size()].first,
                             keys[i % keys.size()].second);
    benchmark::DoNotOptimize(stats);
    ++i;
  }
}
BENCHMARK(BM_CatalogLookupInterned);

void BM_StatsFingerprintInterned(benchmark::State& state) {
  // Registration recomputes the table's content hash over interned ids;
  // StatsFingerprint itself is O(1) (an incrementally maintained sum).
  scope::TableStats stats;
  stats.true_rows = 5e7;
  stats.est_rows = 6e7;
  for (int c = 0; c < 16; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    stats.columns[name] = {1e5, 1.2e5};
  }
  scope::Catalog catalog;
  for (auto _ : state) {
    catalog.RegisterTable("fact", stats);
    benchmark::DoNotOptimize(catalog.StatsFingerprint());
  }
}
BENCHMARK(BM_StatsFingerprintInterned);

void BM_OptimizeCrossConfigMemoHit(benchmark::State& state) {
  // Rotating configs land on the front-end entry's cross-config memo: each
  // flipped rule is an unwired placeholder the optimizer never consults, so
  // the memo's full tier serves the stored output without an optimizer run.
  engine::ScopeEngine engine;
  std::vector<opt::RuleConfig> configs;
  for (int rule = 64; rule < 128; ++rule) {
    configs.push_back(opt::RuleConfig::DefaultWithFlip(rule));
  }
  // Warm: the one real optimizer run whose footprint covers every flip.
  benchmark::DoNotOptimize(engine.Compile(Jobs()[0], opt::RuleConfig::Default()));
  const obs::MetricsSnapshot before = obs::Registry::Get().Snapshot();
  size_t i = 0;
  for (auto _ : state) {
    auto out = engine.Compile(Jobs()[0], configs[i % configs.size()]);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  // Memo counts added by the timed loop, read from the registry.
  const obs::MetricsSnapshot after = obs::Registry::Get().Snapshot();
  auto added = [&](const char* name) {
    return after.SeriesValue(name) - before.SeriesValue(name);
  };
  const double hits =
      added("optimizer.memo.full_hits") + added("optimizer.memo.norm_hits");
  const double lookups = hits + added("optimizer.memo.misses");
  state.counters["memo_hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
}
BENCHMARK(BM_OptimizeCrossConfigMemoHit);

void BM_SpanComputation(benchmark::State& state) {
  engine::ScopeEngine engine;
  size_t i = 0;
  for (auto _ : state) {
    auto span = advisor::ComputeJobSpan(engine, Jobs()[i % Jobs().size()]);
    benchmark::DoNotOptimize(span);
    ++i;
  }
}
BENCHMARK(BM_SpanComputation);

// --- Compile cache (src/cache/ front-end memo + cross-config memo): cached
// vs uncached pairs. The cached variants measure the steady state of the
// daily pipeline, where every stage after the first compiles each
// (job, config) from cache; the uncached ones pay a fresh parse per job.

void BM_CompileFrontEndUncached(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const workload::JobInstance& job = Jobs()[i % Jobs().size()];
    auto plan = scope::CompileSource(job.script, job.catalog);
    benchmark::DoNotOptimize(plan);
    ++i;
  }
}
BENCHMARK(BM_CompileFrontEndUncached);

void BM_CompileFrontEndCached(benchmark::State& state) {
  engine::ScopeEngine engine;
  size_t i = 0;
  for (auto _ : state) {
    auto plan = engine.CompileFrontEnd(Jobs()[i % Jobs().size()]);
    benchmark::DoNotOptimize(plan);
    ++i;
  }
}
BENCHMARK(BM_CompileFrontEndCached);

void BM_SpanFixpointUncached(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    // A fresh engine per iteration: every fix-point probe starts cold.
    engine::ScopeEngine engine;
    auto span = advisor::ComputeJobSpan(engine, Jobs()[i % Jobs().size()]);
    benchmark::DoNotOptimize(span);
    ++i;
  }
}
BENCHMARK(BM_SpanFixpointUncached);

void BM_SpanFixpointCached(benchmark::State& state) {
  engine::ScopeEngine engine;
  size_t i = 0;
  for (auto _ : state) {
    auto span = advisor::ComputeJobSpan(engine, Jobs()[i % Jobs().size()]);
    benchmark::DoNotOptimize(span);
    ++i;
  }
}
BENCHMARK(BM_SpanFixpointCached);

// --- Contextual bandit (src/bandit/): the canonical sparse representation.
// CombineFeatures builds one canonical (context x action) vector; TrainEpoch
// is the linear SGD sweep over shared combined vectors; Retrain measures the
// Personalizer's incremental retraining path (pending batch only, no
// history rescan, no feature deep-copies).

bandit::FeatureVector BenchContext() {
  bandit::JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50, 160, 203, 204});
  ctx.row_count = 1e8;
  ctx.est_cost = 1e4;
  return bandit::BuildContextFeatures(ctx);
}

void BM_CombineFeatures(benchmark::State& state) {
  bandit::FeatureVector shared = BenchContext();
  bandit::FeatureVector action = bandit::BuildActionFeatures(41, false);
  for (auto _ : state) {
    auto combined = bandit::CombineFeatures(shared, action);
    benchmark::DoNotOptimize(combined);
  }
}
BENCHMARK(BM_CombineFeatures);

void BM_CbTrainEpoch(benchmark::State& state) {
  bandit::FeatureVector shared = BenchContext();
  std::vector<bandit::LoggedExample> examples;
  for (int i = 0; i < 256; ++i) {
    bandit::FeatureVector action =
        bandit::BuildActionFeatures(41 + (i % 6), false);
    examples.push_back({bandit::CombineFeaturesShared(shared, action),
                        i % 2 == 0 ? 1.5 : 0.5, 1.0 / 7.0});
  }
  bandit::CbModel model;
  for (auto _ : state) {
    model.TrainEpoch(examples);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(examples.size()));
}
BENCHMARK(BM_CbTrainEpoch);

void BM_PersonalizerRetrain(benchmark::State& state) {
  bandit::PersonalizerService service(
      {.seed = 5, .retrain_interval = 1000000});
  bandit::FeatureVector context = BenchContext();
  std::vector<bandit::RankableAction> actions;
  for (int bit : {41, 44, 50, 160, 203, 204}) {
    actions.push_back({std::to_string(bit),
                       bandit::BuildActionFeatures(bit, false)});
  }
  uint64_t i = 0;
  const int kBatch = 256;
  for (auto _ : state) {
    // Feed one retrain batch off the clock; measure only the retrain.
    state.PauseTiming();
    auto inputs = std::make_shared<const bandit::RankInputs>(
        bandit::RankInputs{context, actions});
    for (int k = 0; k < kBatch; ++k) {
      bandit::RankRequest req;
      // Reserved build + move assign: sidesteps the GCC 12 -Wrestrict
      // false positive on the string grow path (see BM_PersonalizerRank).
      std::string event_id;
      event_id.reserve(24);
      event_id.push_back('r');
      event_id += std::to_string(i++);
      req.event_id = std::move(event_id);
      req.inputs = inputs;
      req.explore_uniform = true;
      auto resp = service.Rank(req);
      service.Reward(resp->event_id, k % 2 == 0 ? 1.5 : 0.5).ok();
    }
    state.ResumeTiming();
    service.Retrain();
    benchmark::DoNotOptimize(service);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_PersonalizerRetrain);

void BM_PersonalizerRank(benchmark::State& state) {
  bandit::PersonalizerService service({.seed = 3});
  bandit::JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50, 160, 203, 204});
  ctx.row_count = 1e8;
  ctx.est_cost = 1e4;
  bandit::FeatureVector shared = bandit::BuildContextFeatures(ctx);
  std::vector<bandit::RankableAction> actions;
  for (int bit : ctx.span.Positions()) {
    actions.push_back({std::to_string(bit),
                       bandit::BuildActionFeatures(bit, false)});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    bandit::RankRequest req;
    // Reserved build + move assign: GCC 12's -Wrestrict false-positives on
    // the string grow path here (char* assign + append under ASan inlining,
    // operator+ at -O3), and the reserve keeps both codegens out of it.
    std::string event_id;
    event_id.reserve(24);
    event_id.push_back('e');
    event_id += std::to_string(i++);
    req.event_id = std::move(event_id);
    req.inputs = std::make_shared<const bandit::RankInputs>(
        bandit::RankInputs{shared, actions});
    auto resp = service.Rank(req);
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_PersonalizerRank);

// One advisor-service Rank + typed Reward on a 9-arm request (an 8-bit span:
// 97 context features, the no-op plus 8 flips) — the serve_rank request
// shape. Every 128 rewards a retrain drains the pending batch off the clock,
// as serve_rank's trainer thread does.
void BM_AdvisorRankReward(benchmark::State& state) {
  service::AdvisorService advisor;
  service::TenantSession session = *advisor.OpenTenant("bench");
  bandit::JobContext ctx;
  ctx.span = BitVector256::FromPositions({3, 41, 44, 50, 101, 160, 203, 204});
  ctx.row_count = 1e8;
  ctx.est_cost = 1e4;
  service::RankRequest req;
  req.context = bandit::BuildContextFeatures(ctx);
  req.actions.push_back({"noop", bandit::BuildActionFeatures(-1, true)});
  for (int bit : ctx.span.Positions()) {
    req.actions.push_back({"flip_" + std::to_string(bit),
                           bandit::BuildActionFeatures(bit, false)});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    req.event_id = std::to_string(i++);
    auto ranked = session.Rank(req);
    auto rewarded = session.Reward(ranked->event, 1.0);
    benchmark::DoNotOptimize(rewarded);
    if (i % 128 == 0) {
      state.PauseTiming();
      session.TrainAndPublish();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_AdvisorRankReward);

// --- Data plane: batched A/A runs over one prepared profile and the
// combine arena.

void BM_ExecuteRuns(benchmark::State& state) {
  engine::ScopeEngine engine;
  auto compiled = engine.Compile(Jobs()[0], opt::RuleConfig::Default());
  exec::ClusterSimulator sim;
  exec::ExecutionProfile profile =
      sim.Prepare(compiled->plan, Jobs()[0].catalog);
  constexpr int kRuns = 64;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto runs = sim.ExecuteRuns(profile, seed, kRuns);
    benchmark::DoNotOptimize(runs);
    seed += kRuns;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRuns);
}
BENCHMARK(BM_ExecuteRuns);

void BM_CombineArena(benchmark::State& state) {
  // Twelve span bits put hundreds of entries in the shared vector, and the
  // quadratic (shared x action) cross pushes the raw entry count well past
  // the arena cutover — this measures the bump-arena build plus the
  // CollectNonzeroWords sparse-emit scan, not the small-vector sort path.
  bandit::JobContext ctx;
  ctx.span = BitVector256::FromPositions(
      {3, 17, 41, 44, 50, 77, 101, 160, 203, 204, 211, 249});
  ctx.row_count = 1e8;
  ctx.est_cost = 1e4;
  bandit::FeatureVector shared = bandit::BuildContextFeatures(ctx);
  bandit::FeatureVector action = bandit::BuildActionFeatures(41, false);
  for (auto _ : state) {
    auto combined = bandit::CombineFeatures(shared, action);
    benchmark::DoNotOptimize(combined);
  }
}
BENCHMARK(BM_CombineArena);

// --- Parallel runtime: threads=N axes. On a single hardware thread these
// show the runtime's overhead ceiling; on multi-core they show the fan-out
// speedup of the two hottest service paths. Results are byte-identical
// across the axis (asserted by runtime_test), so only wall time moves.

void BM_ParallelFlightBatch(benchmark::State& state) {
  runtime::ParallelRuntime rt(
      {.num_threads = static_cast<int>(state.range(0))});
  engine::ScopeEngine engine;
  flight::FlightingConfig config;
  config.queue_capacity = 64;
  config.total_budget_machine_hours = 1e9;
  flight::FlightingService service(&engine, config, &rt);
  uint64_t salt = 0;
  for (auto _ : state) {
    service.ResetBudget();
    std::vector<flight::FlightRequest> requests;
    requests.reserve(Jobs().size());
    for (size_t i = 0; i < Jobs().size(); ++i) {
      flight::FlightRequest r;
      r.job = Jobs()[i];
      r.candidate = opt::RuleConfig::DefaultWithFlip(
          opt::rules::kEagerAggregationLeft);
      r.est_cost_delta = -0.01 * static_cast<double>(i % 5);
      requests.push_back(std::move(r));
    }
    auto results = service.FlightBatch(std::move(requests), salt++);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Jobs().size()));
}
BENCHMARK(BM_ParallelFlightBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelFeatureGen(benchmark::State& state) {
  runtime::ParallelRuntime rt(
      {.num_threads = static_cast<int>(state.range(0))});
  engine::ScopeEngine engine;
  // One day's view, built once: the benchmark measures the span-computation
  // fan-out (the pipeline's dominant recompilation loop), not execution.
  static const telemetry::WorkloadView* view = [] {
    auto* v = new telemetry::WorkloadView();
    engine::ScopeEngine build_engine;
    for (const auto& job : Jobs()) {
      auto run = build_engine.Run(job, opt::RuleConfig::Default(), 0);
      if (!run.ok()) continue;
      v->rows.push_back(
          telemetry::MakeViewRow(job, *run->compilation, run->metrics));
    }
    return v;
  }();
  for (auto _ : state) {
    auto features = advisor::GenerateFeatures(engine, *view, nullptr, &rt);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(view->rows.size()));
}
BENCHMARK(BM_ParallelFeatureGen)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BitVectorOps(benchmark::State& state) {
  BitVector256 a = BitVector256::FromPositions({1, 50, 100, 200, 255});
  BitVector256 b = BitVector256::FirstN(128);
  for (auto _ : state) {
    auto c = (a | b).AndNot(a ^ b);
    benchmark::DoNotOptimize(c.Count());
    benchmark::DoNotOptimize(c.Positions());
  }
}
BENCHMARK(BM_BitVectorOps);

}  // namespace

BENCHMARK_MAIN();
