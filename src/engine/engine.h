// The SCOPE engine facade: compile (parse -> logical plan -> optimize) and
// execute (cluster simulation) a job instance under a rule configuration.
//
// This is the component QO-Advisor steers: the pipeline talks to it for
// recompilation, and the flighting service uses it for pre-production runs.
//
// Compilation has one path with two cache tiers: a config-independent
// front-end memo (script -> LogicalPlan, src/cache/), sharded/LRU-bounded
// and keyed by content fingerprints, and on each of its entries the job's
// cross-config memo (src/optimizer/cross_config_memo.h), which serves every
// config whose consulted rule bits agree with an earlier compile. Both are
// transparent — results are byte-identical to a fresh parse + optimize
// (tests compare against exactly that) at any thread count; they only
// change how often the compiler actually runs.
//
// Execution has one path too: the cluster simulator prepares an
// ExecutionProfile value per call (once per batch in ExecuteRuns) and runs
// it. Profiles are not cached on the compilation: a CompilationOutput is a
// plain value shared by engines with any cluster config.
//
// Cache, memo and execution activity is counted into the process-wide obs
// registry (cache.front_end.*, optimizer.memo.*, exec.*): the engine keeps
// no counters of its own, so the counts outlive it and sum across engines.
#ifndef QO_ENGINE_ENGINE_H_
#define QO_ENGINE_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "cache/compilation_cache.h"
#include "common/status.h"
#include "exec/cluster.h"
#include "exec/metrics.h"
#include "obs/metrics.h"
#include "optimizer/cross_config_memo.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "workload/template_gen.h"

namespace qo::engine {

/// Compilation + one execution of a job. The compilation is shared with the
/// engine's cache (immutable; copy `*compilation` if mutation is needed).
struct JobRunResult {
  std::shared_ptr<const opt::CompilationOutput> compilation;
  exec::JobMetrics metrics;
};

/// Facade bundling the compiler, optimizer and cluster simulator.
///
/// Audited for the parallel runtime: compilation results are immutable, the
/// front-end cache is internally synchronized (sharded mutexes) and so is
/// each entry's cross-config memo; the cluster simulator seeds a local RNG
/// per Execute call; the only process-wide state touched (RuleRegistry,
/// lexer keyword table) is immutable after its thread-safe first-use
/// initialization.
class ScopeEngine {
 public:
  explicit ScopeEngine(opt::OptimizerOptions optimizer_options = {},
                       exec::ClusterConfig cluster_config = {});
  ScopeEngine(const ScopeEngine&) = delete;
  ScopeEngine& operator=(const ScopeEngine&) = delete;

  /// Parses, compiles and optimizes the instance's script under `config`.
  /// CompileError on parse/semantic errors or infeasible configurations.
  /// Thread-safety: const and deterministic per (job, config), safe to call
  /// concurrently. Returns an owned copy; prefer CompileShared on hot paths.
  Result<opt::CompilationOutput> Compile(const workload::JobInstance& job,
                                         const opt::RuleConfig& config) const;

  /// Compile without copying: the returned output is shared with the cache
  /// and must not be mutated. This is the path the advisor pipeline uses —
  /// a cache hit is O(1) regardless of plan size.
  /// Layering: service::TenantSession::Compile resolves hints, then calls it.
  Result<std::shared_ptr<const opt::CompilationOutput>> CompileShared(
      const workload::JobInstance& job, const opt::RuleConfig& config) const;

  /// Front end only (lex + parse + resolve, no optimization), memoized
  /// across every configuration of the job. Exposed for tests and tools.
  Result<std::shared_ptr<const scope::LogicalPlan>> CompileFrontEnd(
      const workload::JobInstance& job) const;

  /// Compile + execute. `run_salt` differentiates repeated executions of the
  /// same instance (A/A and A/B runs); identical salts replay identically.
  /// Thread-safety: const and pure — all randomness derives from
  /// (job.run_seed, run_salt), safe to call concurrently.
  /// Layering: runs `config` as given; TenantSession resolves hints above.
  Result<JobRunResult> Run(const workload::JobInstance& job,
                           const opt::RuleConfig& config,
                           uint64_t run_salt) const;

  /// Executes a compilation once under this engine's cluster config:
  /// ClusterSimulator::Execute(plan, job.catalog, seed), which prepares a
  /// fresh profile for the run. Repeated runs of one compilation should use
  /// ExecuteRuns. Thread-safety: const and pure — see Run(); safe to call
  /// concurrently.
  exec::JobMetrics Execute(const workload::JobInstance& job,
                           const opt::CompilationOutput& compilation,
                           uint64_t run_salt) const;

  /// Batched A/A runs over one profile prepared for the batch: the runs for
  /// salts `first_salt + i`, i in [0, runs). Element i is byte-identical to
  /// Execute(job, compilation, first_salt + i).
  std::vector<exec::JobMetrics> ExecuteRuns(
      const workload::JobInstance& job,
      const opt::CompilationOutput& compilation, uint64_t first_salt,
      int runs) const;

  const opt::OptimizerOptions& optimizer_options() const {
    return optimizer_options_;
  }
  const exec::ClusterConfig& cluster_config() const {
    return simulator_.config();
  }

 private:
  /// The seed the simulator derives all of a run's stochastic draws from.
  static uint64_t RunSeed(const workload::JobInstance& job, uint64_t run_salt);
  /// Untimed bodies of CompileShared / Execute: the public entry points wrap
  /// these with one shared timing read feeding both the phase histogram
  /// ("span.compile" / "span.execute") and the job's per-template latency
  /// histogram. Purely observational — results are byte-identical with
  /// metrics on or off.
  Result<std::shared_ptr<const opt::CompilationOutput>> CompileSharedImpl(
      const workload::JobInstance& job, const opt::RuleConfig& config) const;
  exec::JobMetrics ExecuteImpl(const workload::JobInstance& job,
                               const opt::CompilationOutput& compilation,
                               uint64_t run_salt) const;
  /// Per-template latency histograms ("tpl.<template_name>.compile_ns" /
  /// ".exec_ns"), resolved once per template then served under a shared
  /// lock. Recurring templates only: one-off jobs carry a unique day-scoped
  /// template id each, so tracking them would grow the registry without
  /// bound (they still land in the aggregate span.compile/span.execute
  /// histograms).
  struct TemplateHists {
    obs::Histogram* compile_ns = nullptr;
    obs::Histogram* exec_ns = nullptr;
  };
  TemplateHists TemplateHistsFor(const workload::JobInstance& job) const;
  /// The job's front-end cache entry, parsing on a miss.
  cache::FrontEndPtr GetOrParse(const workload::JobInstance& job) const;
  /// Probes the front-end entry's footprint memo before (and feeds it after)
  /// a real optimizer run. Returns a shared output — a full-tier hit and the
  /// memo insert are both refcount bumps on the one immutable
  /// CompilationOutput.
  Result<std::shared_ptr<const opt::CompilationOutput>> OptimizeWithMemo(
      const cache::CachedFrontEnd& fe, const workload::JobInstance& job,
      const opt::RuleConfig& config) const;
  cache::FrontEndKey FrontEndKeyOf(const workload::JobInstance& job) const;

  opt::OptimizerOptions optimizer_options_;
  exec::ClusterSimulator simulator_;
  /// Folded into every cache key so options changes can never alias.
  uint64_t options_fingerprint_ = 0;
  /// Mutable state behind const Compile; internally synchronized.
  mutable cache::FrontEndCache front_end_{
      cache::kFrontEndCapacity, cache::kFrontEndShards, "cache.front_end"};
  /// template_id -> latency histograms (read-mostly: shared lock on hit).
  mutable std::shared_mutex tpl_mu_;
  mutable std::unordered_map<int, TemplateHists> tpl_hists_;
};

}  // namespace qo::engine

#endif  // QO_ENGINE_ENGINE_H_
