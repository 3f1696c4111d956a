// Distributed execution simulator for SCOPE physical plans.
//
// The simulator decomposes a physical plan into stages at exchange
// boundaries, assigns vertices (tasks) per stage from the compile-time
// partition counts, and derives runtime metrics from the plan's ground-truth
// cardinalities. Its *cloud variability model* reproduces the statistical
// structure the paper measures in Sec. 5.1:
//
//  - Latency is dominated by the stage critical path with per-stage
//    congestion noise, wave scheduling against the token budget, and
//    heavy-tailed (Pareto) stragglers -> high A/A variance (Fig. 3).
//  - PNhours sums CPU and I/O time over all vertices; I/O bytes are
//    deterministic given the plan and inputs, so PNhours variance stays
//    bounded (Fig. 5).
//
// A/A and A/B flighting execute the *same* physical plan dozens of times
// with only the run seed varying (paper Sec. 4.3), so the deterministic part
// of a run — stage decomposition, per-stage noiseless work, byte counters,
// vertex counts — is split out into an ExecutionProfile value built by
// Prepare(). Execute(profile, seed) then performs only the stochastic draws
// plus a linear walk over the pre-ordered stages; Execute(plan, catalog,
// seed) is Execute(Prepare(plan, catalog), seed), and ExecuteRuns amortizes
// one profile over a batch of seeds. Nothing caches profiles across calls.
#ifndef QO_EXEC_CLUSTER_H_
#define QO_EXEC_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "exec/metrics.h"
#include "optimizer/physical_plan.h"
#include "scope/catalog.h"

namespace qo::exec {

/// Ground-truth timing constants and noise parameters of the simulated
/// cluster. The timing constants deliberately differ from the optimizer's
/// CostParams — that mismatch (plus cardinality estimation error) is what
/// makes estimated cost an unreliable predictor of runtime (paper Sec. 5.2).
struct ClusterConfig {
  // Per-job container budget ("tokens" in SCOPE terminology).
  int tokens = 64;

  // CPU seconds per row by operator class.
  double cpu_scan_row = 1.2e-8;
  double cpu_filter_row = 8.0e-9;
  double cpu_project_row = 4.0e-9;
  double cpu_hash_build_row = 3.0e-8;
  double cpu_hash_probe_row = 1.5e-8;
  double cpu_sort_row_log = 8.0e-9;
  double cpu_agg_row = 2.5e-8;
  double cpu_union_row = 2.0e-9;
  double cpu_exchange_byte = 3.0e-9;  ///< serialization CPU

  // I/O seconds per byte. Shuffle I/O is substantially more expensive than
  // the optimizer's cost model believes (disk spill + network contention) —
  // the systematic misestimation that makes exchange-removing rule flips
  // genuinely valuable, as observed in SCOPE [37].
  double io_storage_read_byte = 1.0 / 400.0e6;
  double io_storage_write_byte = 1.0 / 150.0e6;
  double io_shuffle_byte = 1.0 / 45.0e6;

  // Scheduling.
  double stage_startup_sec = 0.8;
  double job_overhead_sec = 25.0;

  // Variability model.
  double stage_congestion_sigma = 0.30;  ///< lognormal per stage, latency only
  double job_congestion_sigma = 0.10;    ///< lognormal per run, latency only
  double straggler_prob = 0.07;          ///< per-stage heavy-tail event
  double straggler_alpha = 1.4;          ///< Pareto shape of the straggler
  double straggler_cap = 14.0;           ///< at most this slowdown
  double pn_cpu_sigma = 0.05;            ///< lognormal on total CPU time
  double pn_io_sigma = 0.008;            ///< lognormal on total I/O time
  double retry_prob = 0.03;              ///< a stage re-runs some vertices
  double retry_fraction = 0.35;          ///< extra work fraction on retry
};

/// One pipeline of operators between exchange boundaries.
struct Stage {
  std::vector<int> node_ids;
  std::vector<int> upstream;  ///< stages this stage waits for
  int partitions = 1;
  double cpu_sec = 0.0;  ///< total across vertices, noiseless
  double io_sec = 0.0;
  double memory_bytes_per_vertex = 0.0;
  /// waves * ((cpu_sec + io_sec) / max(1, partitions)): the noiseless wave
  /// time the per-run stage noise multiplies. Set by ClusterSimulator::
  /// Prepare (DecomposeIntoStages leaves it 0).
  double waves_per_vertex_sec = 0.0;
  /// Expected-max inflation for the slowest vertex of the wave. Set by
  /// ClusterSimulator::Prepare.
  double tail_inflation = 1.0;
};

/// Deterministic decomposition of a plan into stages (exposed for tests and
/// for the latency model).
std::vector<Stage> DecomposeIntoStages(const opt::PhysicalPlan& plan,
                                       const scope::Catalog& catalog,
                                       const ClusterConfig& config);

/// Everything about a (plan, catalog, cluster config) triple that does not
/// depend on the run seed: the stage DAG with per-stage noiseless work, the
/// plan-level byte counters and work totals, and an evaluation order for the
/// latency critical path. A plain value built by ClusterSimulator::Prepare
/// for one call or one batch of runs; it is only valid for the simulator
/// (cluster config) and catalog statistics it was prepared with. Immutable
/// after Prepare() returns — safe to Execute() from many threads at once.
struct ExecutionProfile {
  /// Stages in decomposition order. This order fixes the RNG draw sequence,
  /// so it must match DecomposeIntoStages exactly.
  std::vector<Stage> stages;
  /// Stage indices in DFS post-order over the upstream edges (roots in index
  /// order, upstream in vector order). Finish times resolve in one linear
  /// walk over it. The stage graph of a shared-subtree DAG can contain a
  /// cycle (a scan read by a join both directly and through an exchange puts
  /// the two stages upstream of each other); an upstream stage still on the
  /// DFS stack then comes later in this order, so the walk reads its finish
  /// time as 0.0 (exec_test pins this case).
  std::vector<int> topo_order;
  double total_cpu_sec = 0.0;
  double total_io_sec = 0.0;
  double data_read_bytes = 0.0;
  double data_written_bytes = 0.0;
  int vertices = 0;  ///< total task instances across stages
};

/// The cluster simulator. Each Execute() call is one run of the job; the
/// `run_seed` determines all stochastic draws, so A/A runs with different
/// seeds reproduce cluster variance while identical seeds are exactly
/// repeatable.
///
/// Preparations and runs are counted into the process-wide obs registry
/// (exec.prepares, exec.prepared_runs). The simulator holds no counters
/// itself, so a copy is an ordinary value copy and every simulator in the
/// process adds to the same series.
class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterConfig config = {});

  const ClusterConfig& config() const { return config_; }

  /// Executes `plan` once: Execute(Prepare(plan, catalog), run_seed). The
  /// catalog supplies ground-truth table sizes for scan I/O. Byte counters
  /// in the result are noise-free (paper Sec. 4.3: "data read and data
  /// written remain constant" across A/A runs). Repeated runs of one plan
  /// should Prepare() once and use the profile overload or ExecuteRuns.
  /// Thread-safety: const and pure — every stochastic draw comes from a
  /// local Rng seeded with `run_seed` (no shared generator), and `config_`
  /// is immutable after construction; safe to call concurrently.
  JobMetrics Execute(const opt::PhysicalPlan& plan,
                     const scope::Catalog& catalog, uint64_t run_seed) const;

  /// Builds the deterministic execution profile of `plan`: one pass of
  /// ComputeNodeWork + DecomposeIntoStages, amortized across every later
  /// Execute(profile, seed) call. Thread-safety: const and pure.
  ExecutionProfile Prepare(const opt::PhysicalPlan& plan,
                           const scope::Catalog& catalog) const;

  /// Executes a prepared profile once: only the stochastic draws and the
  /// linear critical-path walk run. The profile must come from a simulator
  /// with the same ClusterConfig, prepared against the catalog statistics
  /// the run should see. Thread-safety: const and pure; one profile may be
  /// executed from many threads concurrently.
  JobMetrics Execute(const ExecutionProfile& profile, uint64_t run_seed) const;

  /// Batched A/A runs: Execute(profile, base_seed + i) for i in [0, runs),
  /// one seed after another, counted as `runs` prepared runs. Every
  /// JobMetrics is bit-identical to Execute(profile, seed) for that seed.
  std::vector<JobMetrics> ExecuteRuns(const ExecutionProfile& profile,
                                      uint64_t base_seed, int runs) const;

 private:
  ClusterConfig config_;
};

}  // namespace qo::exec

#endif  // QO_EXEC_CLUSTER_H_
