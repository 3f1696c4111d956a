#include "engine/engine.h"

#include <mutex>
#include <string>
#include <utility>

#include "cache/fingerprint.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "scope/compiler.h"

namespace qo::engine {

namespace {

// Phase histograms for the manually timed wrappers (CompileShared/Execute
// need the measured duration twice — phase + per-template — so they read the
// clock themselves instead of using QO_OBS_SPAN).
obs::Histogram& CompileSpanHist() {
  static obs::Histogram* h = &obs::Registry::Get().histogram("span.compile");
  return *h;
}

obs::Histogram& ExecuteSpanHist() {
  static obs::Histogram* h = &obs::Registry::Get().histogram("span.execute");
  return *h;
}

// Cross-config memo tiers, counted for every engine in the process.
struct EngineCounters {
  obs::Counter& memo_full_hits;
  obs::Counter& memo_norm_hits;
  obs::Counter& memo_misses;
};

const EngineCounters& Counters() {
  static const EngineCounters counters{
      obs::Registry::Get().counter("optimizer.memo.full_hits"),
      obs::Registry::Get().counter("optimizer.memo.norm_hits"),
      obs::Registry::Get().counter("optimizer.memo.misses")};
  return counters;
}

}  // namespace

ScopeEngine::ScopeEngine(opt::OptimizerOptions optimizer_options,
                         exec::ClusterConfig cluster_config)
    : optimizer_options_(optimizer_options),
      simulator_(cluster_config),
      options_fingerprint_(
          cache::OptimizerOptionsFingerprint(optimizer_options)) {
  Counters();  // register the series: they read 0 until the first event
}

cache::FrontEndKey ScopeEngine::FrontEndKeyOf(
    const workload::JobInstance& job) const {
  cache::FrontEndKey key;
  key.script_hash = HashString(job.script);
  key.catalog_fingerprint =
      job.catalog.StatsFingerprint() ^ options_fingerprint_;
  return key;
}

cache::FrontEndPtr ScopeEngine::GetOrParse(
    const workload::JobInstance& job) const {
  return front_end_.GetOrCompute(
      FrontEndKeyOf(job), [&]() -> cache::FrontEndPtr {
        auto entry = std::make_shared<cache::CachedFrontEnd>();
        Result<scope::LogicalPlan> result = [&] {
          QO_OBS_SPAN("parse");
          return scope::CompileSource(job.script, job.catalog);
        }();
        if (result.ok()) {
          entry->plan = std::move(result).value();
        } else {
          entry->status = result.status();
        }
        return entry;
      });
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::OptimizeWithMemo(const cache::CachedFrontEnd& fe,
                              const workload::JobInstance& job,
                              const opt::RuleConfig& config) const {
  // "optimize" spans only the optimizer runs below: a full-tier hit runs no
  // optimizer, so it is neither counted nor timed as one.
  opt::CrossConfigMemo& memo = fe.cross_config_memo;

  // Full-tier probe: some earlier compile consulted only bits this config
  // agrees on, so its output (or deterministic error) is this config's too.
  Status stored_status = Status::OK();
  std::shared_ptr<const opt::CompilationOutput> stored_output;
  if (memo.FindFull(config.bits(), &stored_status, &stored_output)) {
    Counters().memo_full_hits.Add();
    if (!stored_status.ok()) return stored_status;
    return stored_output;
  }

  opt::Optimizer optimizer(job.catalog, optimizer_options_);

  // Normalized-tier probe: reuse the validated + normalized plan and rerun
  // only the cost-based search under this config.
  BitVector256 norm_consulted;
  if (std::shared_ptr<const opt::NormalizedPlan> normalized =
          memo.FindNorm(config.bits(), &norm_consulted)) {
    Counters().memo_norm_hits.Add();
    BitVector256 post_consulted;
    Result<opt::CompilationOutput> result = [&] {
      QO_OBS_SPAN("optimize");
      return optimizer.OptimizeFromNormalized(*normalized, config,
                                              &post_consulted);
    }();
    BitVector256 footprint = norm_consulted | post_consulted;
    if (!result.ok()) {
      memo.InsertFull(footprint, config.bits(), result.status(), nullptr);
      return result.status();
    }
    auto shared = std::make_shared<const opt::CompilationOutput>(
        std::move(result).value());
    memo.InsertFull(footprint, config.bits(), Status::OK(), shared);
    return std::shared_ptr<const opt::CompilationOutput>(std::move(shared));
  }

  // Miss: full pipeline, recording both footprints for future configs.
  Counters().memo_misses.Add();
  BitVector256 post_consulted;
  std::shared_ptr<const opt::NormalizedPlan> normalized;
  Result<opt::CompilationOutput> result = [&] {
    QO_OBS_SPAN("optimize");
    return optimizer.OptimizeTracked(fe.plan, config, &norm_consulted,
                                     &post_consulted, &normalized);
  }();
  if (normalized != nullptr) {
    memo.InsertNorm(norm_consulted, config.bits(), normalized);
  }
  BitVector256 footprint = norm_consulted | post_consulted;
  if (!result.ok()) {
    memo.InsertFull(footprint, config.bits(), result.status(), nullptr);
    return result.status();
  }
  auto shared = std::make_shared<const opt::CompilationOutput>(
      std::move(result).value());
  memo.InsertFull(footprint, config.bits(), Status::OK(), shared);
  return std::shared_ptr<const opt::CompilationOutput>(std::move(shared));
}

Result<std::shared_ptr<const scope::LogicalPlan>> ScopeEngine::CompileFrontEnd(
    const workload::JobInstance& job) const {
  cache::FrontEndPtr entry = GetOrParse(job);
  if (!entry->status.ok()) return entry->status;
  // Alias the plan to the cache entry: one refcount, zero copies.
  return std::shared_ptr<const scope::LogicalPlan>(entry, &entry->plan);
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::CompileShared(const workload::JobInstance& job,
                           const opt::RuleConfig& config) const {
  if (!obs::MetricsEnabled()) return CompileSharedImpl(job, config);
  const uint64_t start_ns = obs::MonotonicNowNs();
  auto result = CompileSharedImpl(job, config);
  const uint64_t end_ns = obs::MonotonicNowNs();
  const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  CompileSpanHist().Record(dur);
  if (job.recurring) {
    if (obs::Histogram* tpl = TemplateHistsFor(job).compile_ns) {
      tpl->Record(dur);
    }
  }
  if (obs::TraceEnabled()) obs::TraceRecordSpan("compile", start_ns, end_ns);
  return result;
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::CompileSharedImpl(const workload::JobInstance& job,
                               const opt::RuleConfig& config) const {
  // The front-end entry memoizes the parse across every config of this job,
  // and its cross-config memo lets repeated configs, and configs that only
  // differ in unconsulted rule bits, skip the optimizer too.
  cache::FrontEndPtr fe = GetOrParse(job);
  if (!fe->status.ok()) return fe->status;
  return OptimizeWithMemo(*fe, job, config);
}

Result<opt::CompilationOutput> ScopeEngine::Compile(
    const workload::JobInstance& job, const opt::RuleConfig& config) const {
  QO_ASSIGN_OR_RETURN(std::shared_ptr<const opt::CompilationOutput> shared,
                      CompileShared(job, config));
  return opt::CompilationOutput(*shared);
}

Result<JobRunResult> ScopeEngine::Run(const workload::JobInstance& job,
                                      const opt::RuleConfig& config,
                                      uint64_t run_salt) const {
  QO_ASSIGN_OR_RETURN(std::shared_ptr<const opt::CompilationOutput> compiled,
                      CompileShared(job, config));
  JobRunResult result;
  result.metrics = Execute(job, *compiled, run_salt);
  result.compilation = std::move(compiled);
  return result;
}

uint64_t ScopeEngine::RunSeed(const workload::JobInstance& job,
                              uint64_t run_salt) {
  return job.run_seed ^ (run_salt * 0xbf58476d1ce4e5b9ULL + 1);
}

exec::JobMetrics ScopeEngine::Execute(const workload::JobInstance& job,
                                      const opt::CompilationOutput& compilation,
                                      uint64_t run_salt) const {
  if (!obs::MetricsEnabled()) return ExecuteImpl(job, compilation, run_salt);
  const uint64_t start_ns = obs::MonotonicNowNs();
  exec::JobMetrics metrics = ExecuteImpl(job, compilation, run_salt);
  const uint64_t end_ns = obs::MonotonicNowNs();
  const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  ExecuteSpanHist().Record(dur);
  if (job.recurring) {
    if (obs::Histogram* tpl = TemplateHistsFor(job).exec_ns) tpl->Record(dur);
  }
  if (obs::TraceEnabled()) obs::TraceRecordSpan("execute", start_ns, end_ns);
  return metrics;
}

exec::JobMetrics ScopeEngine::ExecuteImpl(
    const workload::JobInstance& job, const opt::CompilationOutput& compilation,
    uint64_t run_salt) const {
  return simulator_.Execute(compilation.plan, job.catalog,
                            RunSeed(job, run_salt));
}

std::vector<exec::JobMetrics> ScopeEngine::ExecuteRuns(
    const workload::JobInstance& job, const opt::CompilationOutput& compilation,
    uint64_t first_salt, int runs) const {
  // Batch granularity on purpose: per-run clocking would dominate the
  // ~300ns prepared-run path. Per-call latency lives under "span.execute".
  QO_OBS_SPAN("exec.run_batch");
  std::vector<exec::JobMetrics> out;
  out.reserve(runs > 0 ? static_cast<size_t>(runs) : 0);
  const exec::ExecutionProfile profile =
      simulator_.Prepare(compilation.plan, job.catalog);
  for (int i = 0; i < runs; ++i) {
    out.push_back(simulator_.Execute(
        profile, RunSeed(job, first_salt + static_cast<uint64_t>(i))));
  }
  return out;
}

ScopeEngine::TemplateHists ScopeEngine::TemplateHistsFor(
    const workload::JobInstance& job) const {
  {
    std::shared_lock<std::shared_mutex> lock(tpl_mu_);
    auto it = tpl_hists_.find(job.template_id);
    if (it != tpl_hists_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(tpl_mu_);
  auto [it, inserted] = tpl_hists_.try_emplace(job.template_id);
  if (inserted) {
    const std::string base = "tpl." + job.template_name;
    it->second.compile_ns = &obs::Registry::Get().histogram(base + ".compile_ns");
    it->second.exec_ns = &obs::Registry::Get().histogram(base + ".exec_ns");
  }
  return it->second;
}

}  // namespace qo::engine
