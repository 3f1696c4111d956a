#include "exec/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace qo::exec {

namespace {

// Profile preparations, runs served from a profile, and legacy runs that
// re-derive the profile in-line — counted for every simulator in the process.
struct ExecCounters {
  obs::Counter& prepares;
  obs::Counter& prepared_runs;
  obs::Counter& unprepared_runs;
};

const ExecCounters& Counters() {
  static const ExecCounters counters{
      obs::Registry::Get().counter("exec.prepares"),
      obs::Registry::Get().counter("exec.prepared_runs"),
      obs::Registry::Get().counter("exec.unprepared_runs")};
  return counters;
}

using opt::PhysOpKind;
using opt::PhysicalNode;
using opt::PhysicalPlan;

/// Per-node resource usage, noiseless.
struct NodeWork {
  double cpu_sec = 0.0;
  double io_read_bytes = 0.0;
  double io_write_bytes = 0.0;
  double io_sec = 0.0;
  double memory_bytes = 0.0;  ///< per-vertex working set
};

NodeWork ComputeNodeWork(const PhysicalPlan& plan, const PhysicalNode& n,
                         const scope::Catalog& catalog,
                         const ClusterConfig& c) {
  NodeWork w;
  auto child = [&](size_t i) -> const PhysicalNode& {
    return plan.node(n.children[i]);
  };
  double rows_out = n.true_rows;
  double bytes_out = n.true_bytes;
  int parts = std::max(1, n.partitions);
  switch (n.kind) {
    case PhysOpKind::kScan: {
      // Scans read the whole table regardless of embedded predicates.
      double table_bytes = bytes_out;
      auto stats = catalog.Lookup(n.table_path);
      if (stats.ok()) table_bytes = stats.value()->true_bytes();
      double table_rows = stats.ok() ? stats.value()->true_rows : rows_out;
      w.io_read_bytes = table_bytes;
      w.io_sec = table_bytes * c.io_storage_read_byte;
      w.cpu_sec = table_rows * c.cpu_scan_row;
      if (!n.predicates.empty()) {
        w.cpu_sec += table_rows * c.cpu_filter_row;
      }
      w.memory_bytes = 64.0e6;  // extractor buffers
      break;
    }
    case PhysOpKind::kFilter:
      w.cpu_sec = child(0).true_rows * c.cpu_filter_row;
      w.memory_bytes = 16.0e6;
      break;
    case PhysOpKind::kProject:
      w.cpu_sec = child(0).true_rows * c.cpu_project_row;
      w.memory_bytes = 16.0e6;
      break;
    case PhysOpKind::kHashJoin:
      w.cpu_sec = child(1).true_rows * c.cpu_hash_build_row +
                  child(0).true_rows * c.cpu_hash_probe_row +
                  rows_out * c.cpu_project_row;
      w.memory_bytes = child(1).true_bytes / parts * 1.5;
      break;
    case PhysOpKind::kBroadcastJoin: {
      // Every partition fetches a replica of the broadcast side and builds
      // a full copy of its hash table.
      double fanout = static_cast<double>(parts);
      w.io_read_bytes = child(1).true_bytes * fanout;
      w.io_sec = w.io_read_bytes * c.io_shuffle_byte;
      w.cpu_sec = child(1).true_rows * fanout * c.cpu_hash_build_row +
                  child(0).true_rows * c.cpu_hash_probe_row +
                  rows_out * c.cpu_project_row;
      w.memory_bytes = child(1).true_bytes * 1.5;
      break;
    }
    case PhysOpKind::kMergeJoin: {
      double l = child(0).true_rows;
      double r = child(1).true_rows;
      double sort = 0.0;
      if (l > 1) sort += l * std::log2(l) * c.cpu_sort_row_log;
      if (r > 1) sort += r * std::log2(r) * c.cpu_sort_row_log;
      w.cpu_sec = sort + (l + r) * c.cpu_hash_probe_row;
      w.memory_bytes =
          (child(0).true_bytes + child(1).true_bytes) / parts;
      break;
    }
    case PhysOpKind::kHashAgg:
    case PhysOpKind::kPartialHashAgg:
      w.cpu_sec = child(0).true_rows * c.cpu_agg_row;
      w.memory_bytes = bytes_out / parts * 1.5;
      break;
    case PhysOpKind::kStreamAgg: {
      double r = child(0).true_rows;
      double sort = r > 1 ? r * std::log2(r) * c.cpu_sort_row_log : 0.0;
      w.cpu_sec = sort + r * c.cpu_agg_row * 0.5;
      w.memory_bytes = child(0).true_bytes / parts;
      break;
    }
    case PhysOpKind::kUnionAll:
      w.cpu_sec = (child(0).true_rows + child(1).true_rows) * c.cpu_union_row;
      w.memory_bytes = 8.0e6;
      break;
    case PhysOpKind::kOutput:
      w.io_write_bytes = bytes_out;
      w.io_sec = bytes_out * c.io_storage_write_byte;
      w.cpu_sec = rows_out * c.cpu_project_row;
      w.memory_bytes = 32.0e6;
      break;
    case PhysOpKind::kExchangeShuffle:
    case PhysOpKind::kExchangeGather: {
      double bytes = child(0).true_bytes;
      w.io_write_bytes = bytes;
      w.io_read_bytes = bytes;
      w.io_sec = 2.0 * bytes * c.io_shuffle_byte;
      w.cpu_sec = bytes * c.cpu_exchange_byte;
      w.memory_bytes = 32.0e6;
      break;
    }
    case PhysOpKind::kExchangeBroadcast: {
      // The producer writes the broadcast payload once; the replicated
      // reads are accounted to the consuming join (they run in the
      // consumer's partitions).
      double bytes = child(0).true_bytes;
      w.io_write_bytes = bytes;
      w.io_sec = bytes * c.io_shuffle_byte;
      w.cpu_sec = bytes * c.cpu_exchange_byte;
      w.memory_bytes = bytes;
      break;
    }
  }
  return w;
}

/// One ComputeNodeWork pass over the whole plan, indexed by node id (ids are
/// dense: PhysicalPlan::AddNode assigns them from the vector index).
std::vector<NodeWork> ComputeAllNodeWork(const PhysicalPlan& plan,
                                         const scope::Catalog& catalog,
                                         const ClusterConfig& config) {
  std::vector<NodeWork> works;
  works.reserve(plan.nodes.size());
  for (const auto& n : plan.nodes) {
    works.push_back(ComputeNodeWork(plan, n, catalog, config));
  }
  return works;
}

/// Stage decomposition over precomputed per-node work. Iterative DFS that
/// replays the historical recursive assignment order exactly: stages are
/// created the moment a root or exchange child is visited, node_ids are
/// appended in pre-order, so stage indices and per-stage sums match the
/// legacy implementation bit-for-bit.
std::vector<Stage> DecomposeWithWork(const PhysicalPlan& plan,
                                     const std::vector<NodeWork>& works) {
  std::vector<Stage> stages;
  std::vector<int> node_stage(plan.nodes.size(), -1);

  // Assign nodes to stages top-down from the roots; exchanges start a new
  // stage for their subtree (the exchange itself models the boundary and is
  // accounted to the producer stage). A pending visit with stage == -1 opens
  // a new stage when popped (root or exchange child); shared nodes (DAGs)
  // already run in their first stage, later consumers just depend on it.
  struct Visit {
    int node;
    int stage;  ///< -1: allocate a fresh stage when popped
  };
  std::vector<Visit> dfs;
  for (size_t r = plan.roots.size(); r-- > 0;) {
    dfs.push_back({plan.roots[r], -1});
  }
  while (!dfs.empty()) {
    Visit v = dfs.back();
    dfs.pop_back();
    int stage_idx = v.stage;
    if (stage_idx < 0) {
      stage_idx = static_cast<int>(stages.size());
      stages.emplace_back();
    }
    if (node_stage[v.node] >= 0) continue;  // shared node
    node_stage[v.node] = stage_idx;
    stages[stage_idx].node_ids.push_back(v.node);
    const std::vector<int>& children = plan.node(v.node).children;
    for (size_t c = children.size(); c-- > 0;) {
      int child = children[c];
      bool boundary = opt::IsExchange(plan.node(child).kind);
      dfs.push_back({child, boundary ? -1 : stage_idx});
    }
  }

  // Stage dependencies: an edge crossing stages makes the consumer stage
  // wait on the producer stage. Emitted deduplicated in ascending order
  // (duplicates and ordering cannot affect the ready-time max).
  for (int node_id = 0; node_id < static_cast<int>(plan.nodes.size());
       ++node_id) {
    int stage_idx = node_stage[node_id];
    if (stage_idx < 0) continue;  // unreachable from any root
    for (int c : plan.node(node_id).children) {
      int child_stage = node_stage[c];
      if (child_stage != stage_idx) {
        stages[stage_idx].upstream.push_back(child_stage);
      }
    }
  }
  for (Stage& stage : stages) {
    std::sort(stage.upstream.begin(), stage.upstream.end());
    stage.upstream.erase(
        std::unique(stage.upstream.begin(), stage.upstream.end()),
        stage.upstream.end());
  }

  // Aggregate per-stage work and parallelism. Exchange operators execute
  // their write phase in the *producer's* partitions (their own partition
  // annotation is the downstream fan-out), so they do not raise the stage's
  // vertex count.
  for (Stage& stage : stages) {
    int non_exchange_parts = 0;
    int exchange_child_parts = 1;
    for (int id : stage.node_ids) {
      const PhysicalNode& n = plan.node(id);
      const NodeWork& w = works[id];
      stage.cpu_sec += w.cpu_sec;
      stage.io_sec += w.io_sec;
      if (opt::IsExchange(n.kind)) {
        exchange_child_parts = std::max(
            exchange_child_parts, plan.node(n.children[0]).partitions);
      } else {
        non_exchange_parts = std::max(non_exchange_parts, n.partitions);
      }
      stage.memory_bytes_per_vertex =
          std::max(stage.memory_bytes_per_vertex, w.memory_bytes);
    }
    stage.partitions =
        non_exchange_parts > 0 ? non_exchange_parts : exchange_child_parts;
  }
  return stages;
}

}  // namespace

std::vector<Stage> DecomposeIntoStages(const PhysicalPlan& plan,
                                       const scope::Catalog& catalog,
                                       const ClusterConfig& config) {
  return DecomposeWithWork(plan, ComputeAllNodeWork(plan, catalog, config));
}

uint64_t ClusterConfigFingerprint(const ClusterConfig& c) {
  // Field-count tripwire: this binding list must decompose every
  // ClusterConfig field, so adding or removing one fails to compile here —
  // forcing the hash to be revisited (a sizeof assert would miss fields
  // that fit existing padding).
  const auto& [tokens, cpu_scan_row, cpu_filter_row, cpu_project_row,
               cpu_hash_build_row, cpu_hash_probe_row, cpu_sort_row_log,
               cpu_agg_row, cpu_union_row, cpu_exchange_byte,
               io_storage_read_byte, io_storage_write_byte, io_shuffle_byte,
               stage_startup_sec, job_overhead_sec, stage_congestion_sigma,
               job_congestion_sigma, straggler_prob, straggler_alpha,
               straggler_cap, pn_cpu_sigma, pn_io_sigma, retry_prob,
               retry_fraction] = c;
  uint64_t h = HashU64(static_cast<uint64_t>(tokens), kFnvOffsetBasis);
  for (double v :
       {cpu_scan_row, cpu_filter_row, cpu_project_row, cpu_hash_build_row,
        cpu_hash_probe_row, cpu_sort_row_log, cpu_agg_row, cpu_union_row,
        cpu_exchange_byte, io_storage_read_byte, io_storage_write_byte,
        io_shuffle_byte, stage_startup_sec, job_overhead_sec,
        stage_congestion_sigma, job_congestion_sigma, straggler_prob,
        straggler_alpha, straggler_cap, pn_cpu_sigma, pn_io_sigma, retry_prob,
        retry_fraction}) {
    h = HashDouble(v, h);
  }
  return MixHash(h);
}

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : config_(config), config_fingerprint_(ClusterConfigFingerprint(config)) {
  Counters();  // register the series: they read 0 until the first event
}

ExecutionProfile ClusterSimulator::Prepare(const PhysicalPlan& plan,
                                           const scope::Catalog& catalog) const {
  Counters().prepares.Add();
  ExecutionProfile p;
  p.config_fingerprint = config_fingerprint_;
  p.catalog_fingerprint = catalog.StatsFingerprint();

  // Plan-level byte counters and total work, accumulated in node order (the
  // exact summation order of the legacy Execute, so the doubles match
  // bit-for-bit). One ComputeNodeWork pass serves both these totals and the
  // per-stage aggregation below.
  std::vector<NodeWork> works = ComputeAllNodeWork(plan, catalog, config_);
  for (const NodeWork& w : works) {
    p.data_read_bytes += w.io_read_bytes;
    p.data_written_bytes += w.io_write_bytes;
    p.total_cpu_sec += w.cpu_sec;
    p.total_io_sec += w.io_sec;
  }

  std::vector<Stage> stages = DecomposeWithWork(plan, works);
  p.stages.reserve(stages.size());
  for (const Stage& s : stages) {
    StageProfile sp;
    sp.partitions = s.partitions;
    sp.cpu_sec = s.cpu_sec;
    sp.io_sec = s.io_sec;
    sp.memory_bytes_per_vertex = s.memory_bytes_per_vertex;
    sp.upstream = s.upstream;
    int parts = std::max(1, s.partitions);
    double per_vertex = (s.cpu_sec + s.io_sec) / parts;
    int waves = (parts + config_.tokens - 1) / config_.tokens;
    sp.waves_per_vertex_sec = static_cast<double>(waves) * per_vertex;
    // The slowest vertex governs the wave; approximate the expected max of
    // `parts` lognormals with a sqrt(log P) inflation.
    sp.tail_inflation =
        1.0 + 0.12 * std::sqrt(std::log(static_cast<double>(parts) + 1.0));
    p.vertices += s.partitions;
    p.stages.push_back(std::move(sp));
  }

  // Topological evaluation order matching the legacy memoized recursion
  // (iterative DFS, roots visited in index order, upstream in vector order).
  // Cycles cannot arise from exchange boundaries alone but do arise for
  // shared-subtree DAGs (see ExecutionProfile::has_cycle); detect them so
  // Execute can keep the legacy recursion's exact cycle-breaking semantics.
  enum : uint8_t { kUnvisited = 0, kOnStack = 1, kDone = 2 };
  std::vector<uint8_t> state(p.stages.size(), kUnvisited);
  std::vector<std::pair<int, size_t>> dfs;  // (stage, next upstream position)
  p.topo_order.reserve(p.stages.size());
  for (size_t root = 0; root < p.stages.size(); ++root) {
    if (state[root] != kUnvisited) continue;
    state[root] = kOnStack;
    dfs.emplace_back(static_cast<int>(root), 0);
    while (!dfs.empty()) {
      auto& [idx, pos] = dfs.back();
      const std::vector<int>& upstream = p.stages[idx].upstream;
      if (pos < upstream.size()) {
        int up = upstream[pos++];
        if (state[up] == kUnvisited) {
          state[up] = kOnStack;
          dfs.emplace_back(up, 0);
        } else if (state[up] == kOnStack) {
          p.has_cycle = true;
        }
      } else {
        state[idx] = kDone;
        p.topo_order.push_back(idx);
        dfs.pop_back();
      }
    }
  }
  return p;
}

std::shared_ptr<const ExecutionProfile> ClusterSimulator::PrepareShared(
    const PhysicalPlan& plan, const scope::Catalog& catalog) const {
  return std::make_shared<const ExecutionProfile>(Prepare(plan, catalog));
}

JobMetrics ClusterSimulator::Execute(const PhysicalPlan& plan,
                                     const scope::Catalog& catalog,
                                     uint64_t run_seed) const {
  Counters().unprepared_runs.Add();
  return ExecuteProfile(Prepare(plan, catalog), run_seed);
}

JobMetrics ClusterSimulator::Execute(const ExecutionProfile& profile,
                                     uint64_t run_seed) const {
  Counters().prepared_runs.Add();
  return ExecuteProfile(profile, run_seed);
}

std::vector<JobMetrics> ClusterSimulator::ExecuteRuns(
    const ExecutionProfile& profile, uint64_t base_seed, int runs) const {
  std::vector<JobMetrics> out;
  if (runs <= 0) return out;
  Counters().prepared_runs.Add(static_cast<uint64_t>(runs));
  out.reserve(static_cast<size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    out.push_back(
        ExecuteProfile(profile, base_seed + static_cast<uint64_t>(i)));
  }
  return out;
}

// The stochastic inner loop. Every arithmetic expression here mirrors the
// legacy one-shot Execute exactly (same draw order, same association), so
// prepared and unprepared runs produce bit-identical JobMetrics.
JobMetrics ClusterSimulator::ExecuteProfile(const ExecutionProfile& p,
                                            uint64_t run_seed) const {
  Rng rng(run_seed);
  JobMetrics m;
  m.data_read_bytes = p.data_read_bytes;
  m.data_written_bytes = p.data_written_bytes;
  m.vertices = p.vertices;

  // --- PNhours: bounded noise, occasional retries. ---
  double cpu_noisy =
      p.total_cpu_sec * rng.LogNormal(0.0, config_.pn_cpu_sigma);
  double io_noisy = p.total_io_sec * rng.LogNormal(0.0, config_.pn_io_sigma);
  for (const StageProfile& s : p.stages) {
    if (rng.Bernoulli(config_.retry_prob)) {
      double extra = config_.retry_fraction * rng.Uniform();
      cpu_noisy += s.cpu_sec * extra;
      io_noisy += s.io_sec * extra;
    }
  }
  m.cpu_hours = cpu_noisy / 3600.0;
  m.io_hours = io_noisy / 3600.0;
  m.pn_hours = m.cpu_hours + m.io_hours;

  // --- Latency: critical path over stages with wave scheduling, per-stage
  // congestion and heavy-tailed stragglers. ---
  // Draw per-stage noise first so the values do not depend on traversal
  // order (keeps runs reproducible for a given seed).
  std::vector<double> stage_noise(p.stages.size(), 1.0);
  for (size_t i = 0; i < p.stages.size(); ++i) {
    double congestion = rng.LogNormal(0.0, config_.stage_congestion_sigma);
    double straggler = 1.0;
    if (rng.Bernoulli(config_.straggler_prob)) {
      straggler = std::min(rng.Pareto(1.0, config_.straggler_alpha),
                           config_.straggler_cap);
    }
    stage_noise[i] = congestion * straggler;
  }
  auto duration_of = [&](int idx) {
    const StageProfile& s = p.stages[idx];
    return config_.stage_startup_sec +
           s.waves_per_vertex_sec * stage_noise[idx] * s.tail_inflation;
  };
  std::vector<double> finish(p.stages.size(), -1.0);
  if (!p.has_cycle) {
    // Upstream finishes are resolved before their consumers in topo order:
    // the memoized recursion collapses to one linear walk.
    for (int idx : p.topo_order) {
      double ready = 0.0;
      for (int up : p.stages[idx].upstream) {
        ready = std::max(ready, finish[up]);
      }
      finish[idx] = ready + duration_of(idx);
    }
  } else {
    // Legacy memoized recursion, kept verbatim for its cycle-breaking
    // semantics (finish reads 0.0 for a stage currently being computed).
    std::function<double(size_t)> finish_of = [&](size_t idx) -> double {
      if (finish[idx] >= 0.0) return finish[idx];
      finish[idx] = 0.0;  // break cycles defensively
      double ready = 0.0;
      for (int up : p.stages[idx].upstream) {
        ready = std::max(ready, finish_of(static_cast<size_t>(up)));
      }
      finish[idx] = ready + duration_of(static_cast<int>(idx));
      return finish[idx];
    };
    for (size_t i = 0; i < p.stages.size(); ++i) finish_of(i);
  }
  double critical = 0.0;
  for (size_t i = 0; i < p.stages.size(); ++i) {
    critical = std::max(critical, finish[i]);
  }
  double job_congestion = rng.LogNormal(0.0, config_.job_congestion_sigma);
  m.latency_sec = config_.job_overhead_sec * rng.LogNormal(0.0, 0.15) +
                  critical * job_congestion;

  // --- Memory. ---
  double max_mem = 0.0, sum_mem = 0.0;
  for (const StageProfile& s : p.stages) {
    double mem = s.memory_bytes_per_vertex * rng.LogNormal(0.0, 0.05);
    max_mem = std::max(max_mem, mem);
    sum_mem += mem;
  }
  m.max_memory_bytes = max_mem;
  m.avg_memory_bytes = p.stages.empty() ? 0.0 : sum_mem / p.stages.size();
  return m;
}

}  // namespace qo::exec
