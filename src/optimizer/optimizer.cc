#include "optimizer/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "optimizer/cardinality.h"

namespace qo::opt {

namespace {

using scope::LogicalOpKind;
using scope::LogicalNode;
using scope::LogicalPlan;
using scope::Predicate;
using scope::Schema;
using scope::SelectItem;

// ---------------------------------------------------------------------------
// Physical properties (data distribution) requested/delivered during search.
// ---------------------------------------------------------------------------

struct PhysProp {
  enum class Kind {
    kAny,        ///< request only: no requirement
    kRandom,     ///< delivered only: partitioned with no alignment
    kHash,       ///< hash partitioned on `key`
    kBroadcast,  ///< replicated to `partitions_hint` consumer partitions
    kSingleton,  ///< single partition
  };
  Kind kind = Kind::kAny;
  Symbol key = kSymEmpty;   ///< hash key; becomes the exchange_key
  int partitions_hint = 0;  ///< consumer partitions for kBroadcast requests

  static PhysProp Any() { return {Kind::kAny, kSymEmpty, 0}; }
  static PhysProp Random() { return {Kind::kRandom, kSymEmpty, 0}; }
  static PhysProp Hash(Symbol k) { return {Kind::kHash, k, 0}; }
  static PhysProp Broadcast(int consumers) {
    return {Kind::kBroadcast, kSymEmpty, consumers};
  }
  static PhysProp Singleton() { return {Kind::kSingleton, kSymEmpty, 0}; }

  uint64_t HashValue() const {
    // Injective pack of (kind, partitions_hint, key): distinct properties
    // can never collide in the winners table.
    return (static_cast<uint64_t>(kind) << 56) |
           (static_cast<uint64_t>(static_cast<uint32_t>(partitions_hint) &
                                  0xffffffu)
            << 32) |
           static_cast<uint64_t>(key);
  }

  /// True if a delivered property satisfies this requirement.
  bool SatisfiedBy(const PhysProp& delivered) const {
    switch (kind) {
      case Kind::kAny:
        return true;
      case Kind::kHash:
        return (delivered.kind == Kind::kHash && delivered.key == key) ||
               delivered.kind == Kind::kSingleton;
      case Kind::kSingleton:
        return delivered.kind == Kind::kSingleton;
      case Kind::kBroadcast:
        return delivered.kind == Kind::kBroadcast;
      case Kind::kRandom:
        return true;  // never used as a requirement
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Normalization: destructive rewrites applied before cost-based search.
// Real optimizers apply these heuristically rather than cost-based, which is
// exactly why disabling one can occasionally *improve* the final plan.
// ---------------------------------------------------------------------------

class Normalizer {
 public:
  Normalizer(LogicalPlan* plan, const RuleConfig& config)
      : plan_(plan), config_(config), memo_(plan->size(), -1) {}

  /// Runs all enabled rewrites to fixpoint; returns the bit set of rules
  /// that actually changed the plan.
  BitVector256 Run() {
    for (int& root : plan_->roots) root = Rewrite(root);
    PruneColumns();
    return fired_;
  }

 private:
  bool Enabled(int rule) const { return config_.IsEnabled(rule); }

  /// Rewrites the input node `id` bottom-up. The node is copied only when
  /// a child changed; rules never modify a node in place, they append.
  int Rewrite(int id) {
    if (memo_[id] >= 0) return memo_[id];
    int current = id;
    const size_t n_children = plan_->node(id).children.size();
    for (size_t i = 0; i < n_children; ++i) {
      const int child = plan_->node(id).children[i];
      const int rewritten = Rewrite(child);
      if (rewritten == child) continue;
      if (current == id) current = plan_->AddNode(LogicalNode(plan_->node(id)));
      plan_->node(current).children[i] = rewritten;
    }
    current = RunLocalFixpoint(current);
    memo_[id] = current;
    return current;
  }

  /// Applies local rules to a node until none fires (bounded for safety).
  int RunLocalFixpoint(int id) {
    for (int iter = 0; iter < 16; ++iter) {
      int next = ApplyLocalRules(id);
      if (next == id) break;
      id = next;
    }
    return id;
  }

  int ApplyLocalRules(int id) {
    const LogicalNode& n = plan_->node(id);
    if (n.kind != LogicalOpKind::kFilter) {
      if (n.kind == LogicalOpKind::kProject && Enabled(rules::kProjectMerge)) {
        int merged = TryProjectMerge(id);
        if (merged != id) return merged;
      }
      return id;
    }
    const LogicalNode& child = plan_->node(n.children[0]);
    switch (child.kind) {
      case LogicalOpKind::kFilter:
        if (Enabled(rules::kFilterMerge)) return MergeFilters(id);
        break;
      case LogicalOpKind::kProject:
        if (Enabled(rules::kFilterPushdownBelowProject)) {
          int pushed = PushFilterBelowProject(id);
          if (pushed != id) return pushed;
        }
        break;
      case LogicalOpKind::kJoin: {
        int pushed = PushFilterIntoJoin(id);
        if (pushed != id) return pushed;
        break;
      }
      case LogicalOpKind::kUnionAll:
        if (Enabled(rules::kFilterPushdownBelowUnion)) {
          return PushFilterBelowUnion(id);
        }
        break;
      case LogicalOpKind::kScan:
        if (Enabled(rules::kFilterIntoScan)) return PushFilterIntoScan(id);
        break;
      default:
        break;
    }
    return id;
  }

  int MergeFilters(int id) {
    const LogicalNode& outer = plan_->node(id);
    const LogicalNode& inner = plan_->node(outer.children[0]);
    LogicalNode merged = inner;
    merged.predicates.insert(merged.predicates.end(),
                             outer.predicates.begin(),
                             outer.predicates.end());
    fired_.Set(rules::kFilterMerge);
    return plan_->AddNode(std::move(merged));
  }

  int PushFilterBelowProject(int id) {
    const LogicalNode& filter = plan_->node(id);
    const LogicalNode& project = plan_->node(filter.children[0]);
    const Schema& input = plan_->node(project.children[0]).schema;
    // Translate each predicate column through the projection; bail if any
    // column is computed (aggregates never appear in kProject).
    std::vector<Predicate> translated;
    for (const Predicate& p : filter.predicates) {
      const SelectItem* source = nullptr;
      for (const SelectItem& item : project.projections) {
        if (item.output == p.column) {
          source = &item;
          break;
        }
      }
      if (source == nullptr || source->column == kSymEmpty ||
          !input.HasColumn(source->column)) {
        return id;
      }
      Predicate q = p;
      q.column = source->column;
      translated.push_back(std::move(q));
    }
    LogicalNode new_filter;
    new_filter.kind = LogicalOpKind::kFilter;
    new_filter.children = {project.children[0]};
    new_filter.predicates = std::move(translated);
    new_filter.schema = input;
    int nf = RunLocalFixpoint(plan_->AddNode(std::move(new_filter)));
    LogicalNode new_project = project;
    new_project.children = {nf};
    fired_.Set(rules::kFilterPushdownBelowProject);
    return plan_->AddNode(std::move(new_project));
  }

  int PushFilterIntoJoin(int id) {
    const LogicalNode filter = plan_->node(id);
    const LogicalNode join = plan_->node(filter.children[0]);
    const Schema& left = plan_->node(join.children[0]).schema;
    const Schema& right = plan_->node(join.children[1]).schema;
    std::vector<Predicate> to_left, to_right, rest;
    for (const Predicate& p : filter.predicates) {
      if (left.HasColumn(p.column) &&
          Enabled(rules::kFilterPushdownIntoJoinLeft)) {
        to_left.push_back(p);
      } else if (right.HasColumn(p.column) &&
                 Enabled(rules::kFilterPushdownIntoJoinRight)) {
        to_right.push_back(p);
      } else {
        rest.push_back(p);
      }
    }
    if (to_left.empty() && to_right.empty()) return id;
    LogicalNode new_join = join;
    if (!to_left.empty()) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {join.children[0]};
      f.predicates = std::move(to_left);
      f.schema = left;
      new_join.children[0] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
      fired_.Set(rules::kFilterPushdownIntoJoinLeft);
    }
    if (!to_right.empty()) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {join.children[1]};
      f.predicates = std::move(to_right);
      f.schema = right;
      new_join.children[1] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
      fired_.Set(rules::kFilterPushdownIntoJoinRight);
    }
    int nj = plan_->AddNode(std::move(new_join));
    if (rest.empty()) return nj;
    LogicalNode new_filter = filter;
    new_filter.children = {nj};
    new_filter.predicates = std::move(rest);
    return plan_->AddNode(std::move(new_filter));
  }

  int PushFilterBelowUnion(int id) {
    const LogicalNode filter = plan_->node(id);
    const LogicalNode union_node = plan_->node(filter.children[0]);
    LogicalNode new_union = union_node;
    for (int side = 0; side < 2; ++side) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {union_node.children[side]};
      f.predicates = filter.predicates;
      f.schema = plan_->node(union_node.children[side]).schema;
      new_union.children[side] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
    }
    fired_.Set(rules::kFilterPushdownBelowUnion);
    return plan_->AddNode(std::move(new_union));
  }

  int PushFilterIntoScan(int id) {
    const LogicalNode& filter = plan_->node(id);
    LogicalNode scan = plan_->node(filter.children[0]);
    scan.predicates.insert(scan.predicates.end(), filter.predicates.begin(),
                           filter.predicates.end());
    fired_.Set(rules::kFilterIntoScan);
    return plan_->AddNode(std::move(scan));
  }

  int TryProjectMerge(int id) {
    const LogicalNode& outer = plan_->node(id);
    const LogicalNode& inner = plan_->node(outer.children[0]);
    if (inner.kind != LogicalOpKind::kProject) return id;
    std::vector<SelectItem> merged_items;
    for (const SelectItem& item : outer.projections) {
      const SelectItem* source = nullptr;
      for (const SelectItem& in_item : inner.projections) {
        if (in_item.output == item.column) {
          source = &in_item;
          break;
        }
      }
      if (source == nullptr || source->column == kSymEmpty) return id;
      merged_items.emplace_back(scope::AggFunc::kNone, source->column,
                                item.output);
    }
    LogicalNode merged = outer;
    merged.children = {inner.children[0]};
    merged.projections = std::move(merged_items);
    fired_.Set(rules::kProjectMerge);
    return plan_->AddNode(std::move(merged));
  }

  /// Column pruning below joins and aggregates: inserts narrowing Projects
  /// when a child carries columns no consumer needs.
  void PruneColumns() {
    // Only joins and aggregates are pruned below; consult the rule bits only
    // when such a node exists so configs differing in the prune rules on
    // join/agg-free jobs stay footprint-compatible (cross-config memo).
    std::vector<int> order = TopologicalOrder();
    bool has_join = false, has_agg = false;
    for (int id : order) {
      LogicalOpKind k = plan_->node(id).kind;
      has_join |= k == LogicalOpKind::kJoin;
      has_agg |= k == LogicalOpKind::kAggregate;
    }
    bool join_on = has_join && Enabled(rules::kProjectPruneBelowJoin);
    bool agg_on = has_agg && Enabled(rules::kProjectPruneBelowAgg);
    if (!join_on && !agg_on) return;
    // Which schema columns of each node some consumer requires: one flag
    // per column, node `id`'s flags starting at offset[id]. Flags flow from
    // the roots down, parents before children.
    std::vector<int> offset(plan_->size(), -1);
    size_t total = 0;
    for (int id : order) {
      offset[id] = static_cast<int>(total);
      total += plan_->node(id).schema.columns.size();
    }
    std::vector<char> marked(total, 0);
    for (int root : plan_->roots) {
      std::fill_n(marked.begin() + offset[root],
                  plan_->node(root).schema.columns.size(), 1);
    }
    std::vector<Symbol> names;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      RequiredNames(*it, offset, marked, &names);
      for (int c : plan_->node(*it).children) {
        const std::vector<scope::Column>& cols = plan_->node(c).schema.columns;
        for (size_t j = 0; j < cols.size(); ++j) {
          if (std::binary_search(names.begin(), names.end(), cols[j].name)) {
            marked[offset[c] + j] = 1;
          }
        }
      }
    }
    // Insert pruning projects below joins/aggregates. Note: AddNode may
    // reallocate the arena, so nodes are re-fetched by id after every
    // insertion instead of held by reference.
    for (int id : order) {
      bool is_join = plan_->node(id).kind == LogicalOpKind::kJoin;
      bool is_agg = plan_->node(id).kind == LogicalOpKind::kAggregate;
      if ((is_join && !join_on) || (is_agg && !agg_on) ||
          (!is_join && !is_agg)) {
        continue;
      }
      const size_t n_children = plan_->node(id).children.size();
      for (size_t ci = 0; ci < n_children; ++ci) {
        int c = plan_->node(id).children[ci];
        if (plan_->node(c).kind == LogicalOpKind::kProject) continue;
        RequiredNames(c, offset, marked, &names);
        auto required = [&names](const scope::Column& col) {
          return std::binary_search(names.begin(), names.end(), col.name);
        };
        const Schema& schema = plan_->node(c).schema;
        size_t kept = 0;
        double kept_width = 0.0;
        for (const auto& col : schema.columns) {
          if (!required(col)) continue;
          ++kept;
          kept_width += scope::ColumnTypeWidth(col.type);
        }
        if (kept == 0 || kept >= schema.columns.size()) continue;
        // Prune only when it meaningfully narrows rows; marginal projects
        // cost more CPU than the width they save.
        if (kept_width > 0.75 * schema.RowWidthBytes()) continue;
        LogicalNode proj;
        proj.kind = LogicalOpKind::kProject;
        proj.children = {c};
        proj.projections.reserve(kept);
        proj.schema.columns.reserve(kept);
        for (const auto& col : schema.columns) {
          if (!required(col)) continue;
          proj.projections.emplace_back(scope::AggFunc::kNone, col.name);
          proj.schema.columns.push_back(col);
        }
        int proj_id = plan_->AddNode(std::move(proj));
        plan_->node(id).children[ci] = proj_id;
        fired_.Set(is_join ? rules::kProjectPruneBelowJoin
                           : rules::kProjectPruneBelowAgg);
      }
    }
  }

  /// Sorted names node `id` requires of its inputs: its flagged schema
  /// columns plus every column it consumes itself.
  void RequiredNames(int id, const std::vector<int>& offset,
                     const std::vector<char>& marked,
                     std::vector<Symbol>* out) const {
    const LogicalNode& n = plan_->node(id);
    out->clear();
    for (size_t j = 0; j < n.schema.columns.size(); ++j) {
      if (marked[offset[id] + j]) out->push_back(n.schema.columns[j].name);
    }
    for (const Predicate& p : n.predicates) out->push_back(p.column);
    for (const SelectItem& item : n.projections) {
      if (item.column != kSymStar) out->push_back(item.column);
    }
    for (Symbol g : n.group_by) out->push_back(g);
    if (n.kind == LogicalOpKind::kJoin) {
      out->push_back(n.left_key);
      out->push_back(n.right_key);
    }
    std::sort(out->begin(), out->end());
  }

  /// Depth-first post-order from the roots: children before parents.
  std::vector<int> TopologicalOrder() const {
    std::vector<int> order;
    std::vector<char> seen(plan_->size(), 0);
    std::vector<std::pair<int, size_t>> stack;  // (node, next child)
    for (int r : plan_->roots) {
      if (seen[r]) continue;
      seen[r] = 1;
      stack.emplace_back(r, 0);
      while (!stack.empty()) {
        const auto [id, next] = stack.back();
        const std::vector<int>& children = plan_->node(id).children;
        if (next == children.size()) {
          order.push_back(id);
          stack.pop_back();
          continue;
        }
        ++stack.back().second;
        const int c = children[next];
        if (!seen[c]) {
          seen[c] = 1;
          stack.emplace_back(c, 0);
        }
      }
    }
    return order;
  }

  LogicalPlan* plan_;
  const RuleConfig& config_;
  BitVector256 fired_;
  /// Input node id -> its rewritten node id (-1 until rewritten).
  std::vector<int> memo_;
};

// ---------------------------------------------------------------------------
// Memo structures.
// ---------------------------------------------------------------------------

/// Up to two child ids, stored inline: no operator has more.
struct ChildIds {
  int ids[2] = {-1, -1};
  int count = 0;

  ChildIds() = default;
  ChildIds(std::initializer_list<int> list) {
    for (int id : list) push_back(id);
  }
  void push_back(int id) {
    assert(count < 2);
    ids[count++] = id;
  }
  size_t size() const { return static_cast<size_t>(count); }
  int operator[](size_t i) const { return ids[i]; }
  int& operator[](size_t i) { return ids[i]; }
  const int* begin() const { return ids; }
  const int* end() const { return ids + count; }
};

/// Append-only storage in fixed-capacity blocks: appending never moves an
/// element, so the search holds references across the recursive calls that
/// grow the memo, and a typical search allocates one block.
template <typename T, size_t kBlock>
class BlockArena {
 public:
  int Append(T&& value) {
    if (blocks_.empty() || blocks_.back().size() == kBlock) {
      blocks_.emplace_back();
      blocks_.back().reserve(kBlock);
    }
    blocks_.back().push_back(std::move(value));
    return size_++;
  }
  T& operator[](int i) { return blocks_[i / kBlock][i % kBlock]; }
  const T& operator[](int i) const { return blocks_[i / kBlock][i % kBlock]; }

 private:
  std::vector<std::vector<T>> blocks_;
  int size_ = 0;
};

const std::vector<Predicate> kNoPredicates;
const std::vector<SelectItem> kNoProjections;
const std::vector<Symbol> kNoGroupBy;

struct MExpr {
  LogicalOpKind kind = LogicalOpKind::kScan;
  ChildIds children;  ///< group ids
  Symbol table_path = kSymEmpty;
  /// Payload lists, viewed in place: they live in the normalized plan's
  /// nodes or in the memo's own lists, both of which outlive the search.
  const std::vector<Predicate>* predicates = &kNoPredicates;
  const std::vector<SelectItem>* projections = &kNoProjections;
  const std::vector<Symbol>* group_by = &kNoGroupBy;
  Symbol left_key = kSymEmpty;
  Symbol right_key = kSymEmpty;
  double true_fanout = 1.0;
  Symbol output_path = kSymEmpty;
  bool partial_agg = false;  ///< local pre-aggregation (eager agg)
  BitVector256 derivation;   ///< transformation rules that produced this expr
  uint32_t applied = 0;      ///< transformation-rule bitmask already tried
  uint64_t fingerprint = 0;  ///< Fingerprint(), set when it joins a group
  int next = -1;             ///< next expr of the same group in the arena

  /// Structural identity hash over interned ids. Field counts are chained
  /// in as separators so adjacent lists can't alias. A 64-bit collision
  /// within one group's handful of exprs (~2^-64 per pair) would only drop
  /// a duplicate alternative, never corrupt a plan.
  uint64_t Fingerprint() const {
    uint64_t h = HashU64(static_cast<uint64_t>(kind), 0x9e3779b97f4a7c15ULL);
    h = HashU64(children.size(), h);
    for (int c : children) h = HashU64(static_cast<uint64_t>(c), h);
    h = HashU64(table_path, h);
    h = HashU64(left_key, h);
    h = HashU64(right_key, h);
    h = HashU64(partial_agg ? 1 : 0, h);
    h = HashU64(predicates->size(), h);
    for (const Predicate& p : *predicates) {
      h = HashU64(p.column, h);
      h = HashU64(static_cast<uint64_t>(p.op), h);
      h = HashU64(p.literal, h);
    }
    h = HashU64(projections->size(), h);
    for (const SelectItem& s : *projections) {
      h = HashU64(static_cast<uint64_t>(s.agg), h);
      h = HashU64(s.column, h);
      h = HashU64(s.alias, h);
    }
    h = HashU64(group_by->size(), h);
    for (Symbol g : *group_by) h = HashU64(g, h);
    return MixHash(h);
  }
};

struct Winner {
  bool feasible = false;
  double cost = 1e300;
  int phys = -1;
  PhysProp delivered;
  BitVector256 rules;
};

/// One entry of the memo-wide winners table: the best plan of a group for
/// one required property, chained to the group's other entries.
struct WinnerSlot {
  uint64_t key = 0;  ///< PhysProp::HashValue() of the requirement
  int next = -1;
  Winner winner;
};

struct Group {
  /// This group's exprs in the memo's expr arena: `first_expr`, then each
  /// MExpr::next in insertion order.
  int first_expr = -1;
  int last_expr = -1;
  int num_exprs = 0;
  /// Head of this group's chain in the winners table.
  int first_winner = -1;
  /// Output schema, built once in MakeGroup and shared (refcount bump, not
  /// column-vector copy) into every PhysicalNode implemented from this
  /// group. Never null for a constructed group.
  std::shared_ptr<const Schema> schema;
  double row_width = 0.0;  ///< schema->RowWidthBytes()
  RelStats est;
  RelStats tru;
  bool explored = false;
};

/// One physical alternative the search considered. Its payload stays in
/// the memo: `expr` names the arena expr it implements (-1 for an exchange)
/// and `group` the memo group whose schema it outputs. Compact turns only
/// the candidates the final plan keeps into PhysicalNodes.
struct Candidate {
  PhysOpKind kind = PhysOpKind::kScan;
  ChildIds children;  ///< candidate ids
  int expr = -1;
  int group = -1;
  Symbol exchange_key = kSymEmpty;
  int partitions = 1;
  double est_rows = 0.0;
  double est_bytes = 0.0;
  double true_rows = 0.0;
  double true_bytes = 0.0;
  double local_cost = 0.0;
};

// Local indices for the `applied` bitmask.
enum TransformIndex {
  kTxJoinCommute = 0,
  kTxJoinAssoc = 1,
  kTxEagerAggLeft = 2,
  kTxEagerAggRight = 3,
  kTxJoinThroughUnion = 4,
};

// ---------------------------------------------------------------------------
// The memo optimizer.
// ---------------------------------------------------------------------------

class MemoOptimizer {
 public:
  MemoOptimizer(const scope::Catalog& catalog, const OptimizerOptions& options,
                const RuleConfig& config)
      : catalog_(catalog),
        options_(options),
        config_(config),  // by value: the copy carries this compile's sink
        est_(catalog, StatsMode::kEstimated),
        tru_(catalog, StatsMode::kTrue),
        cost_model_(options.cost_params) {}

  /// Full compilation. Rule bits consulted while validating + normalizing
  /// are recorded into `norm_sink`, the rest into `post_sink` (either may
  /// be null); on success `normalized_out` (if non-null) receives the
  /// normalized plan for cross-config reuse.
  Result<CompilationOutput> Run(
      const LogicalPlan& input, BitVector256* norm_sink,
      BitVector256* post_sink,
      std::shared_ptr<const NormalizedPlan>* normalized_out) {
    config_.TrackConsulted(norm_sink);
    QO_RETURN_IF_ERROR(config_.Validate());
    auto norm = std::make_shared<NormalizedPlan>();
    norm->plan = input;  // normalization mutates a copy
    {
      Normalizer normalizer(&norm->plan, config_);
      norm->fired = normalizer.Run();
    }
    std::shared_ptr<const NormalizedPlan> frozen = std::move(norm);
    if (normalized_out != nullptr) *normalized_out = frozen;
    return RunPostNormalize(*frozen, post_sink);
  }

  /// Cost-based search over an already validated + normalized plan.
  Result<CompilationOutput> RunPostNormalize(const NormalizedPlan& norm,
                                             BitVector256* post_sink) {
    config_.TrackConsulted(post_sink);
    // One up-front block each for the candidates and the winners table:
    // typical searches stay under these.
    candidates_.reserve(128);
    winners_.reserve(64);

    // Build memo groups from the normalized DAG.
    std::vector<int> node_to_group(norm.plan.size(), -1);
    std::vector<int> root_groups;
    root_groups.reserve(norm.plan.roots.size());
    for (int r : norm.plan.roots) {
      root_groups.push_back(BuildGroup(norm.plan, r, &node_to_group));
    }

    // Optimize every output root.
    std::vector<int> root_phys;
    root_phys.reserve(root_groups.size());
    BitVector256 signature = norm.fired;
    for (int g : root_groups) {
      Winner w = OptimizeGroup(g, PhysProp::Any(), 0);
      if (!w.feasible) {
        return Status::CompileError(
            "no physical plan under this rule configuration");
      }
      root_phys.push_back(w.phys);
      signature |= w.rules;
    }
    // Required normalization rules fire on every compilation.
    signature.Set(rules::kNormalizeScript);
    signature.Set(rules::kBindReferences);
    signature.Set(rules::kDerivePlanProperties);
    signature.Set(rules::kValidateSchema);

    CompilationOutput out;
    out.signature = signature;
    out.est_cost = Compact(root_phys, &out.plan);
    return out;
  }

 private:
  // ----- Memo construction -------------------------------------------------

  int BuildGroup(const LogicalPlan& plan, int node_id,
                 std::vector<int>* node_to_group) {
    if ((*node_to_group)[node_id] >= 0) return (*node_to_group)[node_id];
    const LogicalNode& n = plan.node(node_id);
    MExpr expr;
    expr.kind = n.kind;
    expr.table_path = n.table_path;
    expr.predicates = &n.predicates;
    expr.projections = &n.projections;
    expr.group_by = &n.group_by;
    expr.left_key = n.left_key;
    expr.right_key = n.right_key;
    expr.true_fanout = n.true_fanout;
    expr.output_path = n.output_path;
    for (int c : n.children) {
      expr.children.push_back(BuildGroup(plan, c, node_to_group));
    }
    int gid = MakeGroup(std::move(expr), n.schema);
    (*node_to_group)[node_id] = gid;
    return gid;
  }

  int MakeGroup(MExpr&& expr, Schema schema) {
    Group group;
    group.schema = std::make_shared<const Schema>(std::move(schema));
    group.row_width = group.schema->RowWidthBytes();
    group.est = DeriveStats(expr, *group.schema, est_);
    group.tru = DeriveStats(expr, *group.schema, tru_);
    const int gid = groups_.Append(std::move(group));
    const uint64_t fingerprint = expr.Fingerprint();
    AppendExpr(gid, std::move(expr), fingerprint);
    return gid;
  }

  /// Links `expr` in at the end of group `gid`'s expr list.
  void AppendExpr(int gid, MExpr&& expr, uint64_t fingerprint) {
    expr.fingerprint = fingerprint;
    expr.next = -1;
    const int id = exprs_.Append(std::move(expr));
    Group& g = groups_[gid];
    if (g.last_expr >= 0) {
      exprs_[g.last_expr].next = id;
    } else {
      g.first_expr = id;
    }
    g.last_expr = id;
    ++g.num_exprs;
  }

  /// `schema` is the expr's group schema; a scan derives its stats from it
  /// (the full extracted schema, before embedded predicates).
  RelStats DeriveStats(const MExpr& e, const Schema& schema,
                       const StatsDeriver& deriver) const {
    auto child = [&](size_t i) -> const RelStats& {
      return deriver.mode() == StatsMode::kTrue ? groups_[e.children[i]].tru
                                                : groups_[e.children[i]].est;
    };
    switch (e.kind) {
      case LogicalOpKind::kScan: {
        RelStats s = deriver.Scan(e.table_path, schema);
        if (!e.predicates->empty()) s = deriver.Filter(s, *e.predicates);
        return s;
      }
      case LogicalOpKind::kFilter:
        return deriver.Filter(child(0), *e.predicates);
      case LogicalOpKind::kProject:
        return deriver.Project(child(0), *e.projections);
      case LogicalOpKind::kJoin:
        return deriver.Join(child(0), child(1), e.left_key, e.right_key,
                            e.true_fanout);
      case LogicalOpKind::kAggregate:
        if (e.partial_agg) {
          int parts = ChoosePartitions(child(0).rows * 64.0);
          return deriver.PartialAggregate(child(0), *e.group_by, parts);
        }
        return deriver.Aggregate(child(0), *e.group_by, *e.projections);
      case LogicalOpKind::kUnionAll:
        return deriver.UnionAll(child(0), child(1));
      case LogicalOpKind::kOutput:
        return child(0);
    }
    return RelStats{};
  }

  // ----- Exploration --------------------------------------------------------

  void ExploreGroup(int gid) {
    if (groups_[gid].explored) return;
    groups_[gid].explored = true;
    // Exprs the rules append to this group are visited too, until the
    // group reaches its budget.
    for (int i = groups_[gid].first_expr;
         i >= 0 && groups_[gid].num_exprs < options_.max_exprs_per_group;
         i = exprs_[i].next) {
      // Explore children first so their alternatives are visible to
      // pattern-matching rules here.
      for (int c : exprs_[i].children) ExploreGroup(c);
      TryJoinCommute(gid, i);
      TryJoinAssociativity(gid, i);
      TryEagerAggregation(gid, i, /*left_side=*/true);
      TryEagerAggregation(gid, i, /*left_side=*/false);
      TryJoinThroughUnion(gid, i);
    }
  }

  bool AlreadyApplied(int i, TransformIndex tx) const {
    return (exprs_[i].applied & (1u << tx)) != 0;
  }
  void MarkApplied(int i, TransformIndex tx) { exprs_[i].applied |= 1u << tx; }

  void AddExprToGroup(int gid, MExpr&& expr) {
    if (groups_[gid].num_exprs >= options_.max_exprs_per_group) return;
    const uint64_t fingerprint = expr.Fingerprint();
    for (int i = groups_[gid].first_expr; i >= 0; i = exprs_[i].next) {
      if (exprs_[i].fingerprint == fingerprint) return;
    }
    AppendExpr(gid, std::move(expr), fingerprint);
  }

  void TryJoinCommute(int gid, int i) {
    // Structural guards run before the rule-bit probe so the bit is only
    // consulted when the rule could actually fire (keeps the cross-config
    // memo footprint tight on join-free jobs).
    if (exprs_[i].kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kJoinCommute)) return;
    if (AlreadyApplied(i, kTxJoinCommute)) return;
    MarkApplied(i, kTxJoinCommute);
    const MExpr& e = exprs_[i];
    MExpr swapped = e;
    std::swap(swapped.children[0], swapped.children[1]);
    std::swap(swapped.left_key, swapped.right_key);
    // Preserve ground-truth output rows: rows = L*f = R*f'.
    double l_rows = groups_[e.children[0]].tru.rows;
    double r_rows = std::max(1.0, groups_[e.children[1]].tru.rows);
    swapped.true_fanout = e.true_fanout * l_rows / r_rows;
    swapped.applied |= (1u << kTxJoinCommute);  // avoid ping-pong
    swapped.derivation.Set(rules::kJoinCommute);
    AddExprToGroup(gid, std::move(swapped));
  }

  void TryJoinAssociativity(int gid, int i) {
    if (exprs_[i].kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kJoinAssociativity)) return;
    if (AlreadyApplied(i, kTxJoinAssoc)) return;
    MarkApplied(i, kTxJoinAssoc);
    const MExpr& e = exprs_[i];  // (A join B) join C
    int left_gid = e.children[0];
    ForEachPatternExpr(left_gid, LogicalOpKind::kJoin, [&](const MExpr& j2) {
      int a_gid = j2.children[0];
      int b_gid = j2.children[1];
      // The key joining to C must come from B.
      if (!groups_[b_gid].schema->HasColumn(e.left_key)) return false;
      if (!groups_[a_gid].schema->HasColumn(j2.left_key)) return false;
      // inner = B join C.
      MExpr inner;
      inner.kind = LogicalOpKind::kJoin;
      inner.children = {b_gid, e.children[1]};
      inner.left_key = e.left_key;
      inner.right_key = e.right_key;
      inner.true_fanout = e.true_fanout;
      inner.derivation = e.derivation | j2.derivation;
      inner.derivation.Set(rules::kJoinAssociativity);
      Schema inner_schema = ConcatSchemas(*groups_[b_gid].schema,
                                          *groups_[e.children[1]].schema);
      int inner_gid = MakeGroup(std::move(inner), std::move(inner_schema));
      // outer = A join inner.
      MExpr outer;
      outer.kind = LogicalOpKind::kJoin;
      outer.children = {a_gid, inner_gid};
      outer.left_key = j2.left_key;
      outer.right_key = j2.right_key;
      outer.true_fanout = j2.true_fanout * e.true_fanout;
      outer.derivation = e.derivation | j2.derivation;
      outer.derivation.Set(rules::kJoinAssociativity);
      outer.applied |= (1u << kTxJoinAssoc);
      AddExprToGroup(gid, std::move(outer));
      return true;  // one reassociation per expr keeps the space bounded
    });
  }

  void TryEagerAggregation(int gid, int i, bool left_side) {
    int rule = left_side ? rules::kEagerAggregationLeft
                         : rules::kEagerAggregationRight;
    TransformIndex tx = left_side ? kTxEagerAggLeft : kTxEagerAggRight;
    {
      const MExpr& probe = exprs_[i];
      if (probe.kind != LogicalOpKind::kAggregate || probe.partial_agg) return;
    }
    if (!config_.IsEnabled(rule)) return;
    if (AlreadyApplied(i, tx)) return;
    MarkApplied(i, tx);
    const MExpr& e = exprs_[i];
    int child_gid = e.children[0];
    ForEachPatternExpr(child_gid, LogicalOpKind::kJoin, [&](const MExpr& join) {
      int side_gid = join.children[left_side ? 0 : 1];
      const Schema& side_schema = *groups_[side_gid].schema;
      const Symbol join_key = left_side ? join.left_key : join.right_key;
      // All grouping keys and aggregate inputs must come from this side.
      bool applicable = true;
      for (Symbol g : *e.group_by) {
        if (!side_schema.HasColumn(g)) applicable = false;
      }
      for (const SelectItem& item : *e.projections) {
        if (item.column != kSymStar && !side_schema.HasColumn(item.column)) {
          applicable = false;
        }
      }
      if (!applicable) return false;
      // Partial aggregate keyed by (group keys + join key).
      MExpr partial;
      partial.kind = LogicalOpKind::kAggregate;
      partial.partial_agg = true;
      partial.children = {side_gid};
      partial.group_by = e.group_by;
      bool key_in_groups = false;
      for (Symbol g : *e.group_by) {
        if (g == join_key) key_in_groups = true;
      }
      if (!key_in_groups) {
        std::vector<Symbol>& keys = owned_group_by_.emplace_back();
        keys.reserve(e.group_by->size() + 1);
        keys = *e.group_by;
        keys.push_back(join_key);
        partial.group_by = &keys;
      }
      partial.projections = e.projections;
      partial.derivation = e.derivation | join.derivation;
      partial.derivation.Set(rule);
      Schema partial_schema;
      for (const auto& col : side_schema.columns) {
        bool keep = col.name == join_key;
        for (Symbol g : *e.group_by) {
          if (g == col.name) keep = true;
        }
        for (const SelectItem& item : *e.projections) {
          if (item.column == col.name) keep = true;
        }
        if (keep) partial_schema.columns.push_back(col);
      }
      int partial_gid = MakeGroup(std::move(partial), std::move(partial_schema));
      // New join over the pre-aggregated side.
      MExpr new_join = join;
      new_join.children[left_side ? 0 : 1] = partial_gid;
      new_join.derivation.Set(rule);
      Schema join_schema = ConcatSchemas(
          *groups_[new_join.children[0]].schema,
          *groups_[new_join.children[1]].schema);
      int join_gid = MakeGroup(std::move(new_join), std::move(join_schema));
      // Final aggregate in the original group.
      MExpr final_agg = e;
      final_agg.children = {join_gid};
      final_agg.applied |= (1u << tx);
      final_agg.derivation.Set(rule);
      AddExprToGroup(gid, std::move(final_agg));
      return true;
    });
  }

  void TryJoinThroughUnion(int gid, int i) {
    if (exprs_[i].kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kPushJoinThroughUnion)) return;
    if (AlreadyApplied(i, kTxJoinThroughUnion)) return;
    MarkApplied(i, kTxJoinThroughUnion);
    const MExpr& e = exprs_[i];
    int left_gid = e.children[0];
    ForEachPatternExpr(left_gid, LogicalOpKind::kUnionAll, [&](const MExpr& u) {
      int join_gids[2];
      for (int side = 0; side < 2; ++side) {
        MExpr nj = e;
        nj.children = {u.children[side], e.children[1]};
        nj.derivation.Set(rules::kPushJoinThroughUnion);
        Schema s = ConcatSchemas(*groups_[u.children[side]].schema,
                                 *groups_[e.children[1]].schema);
        join_gids[side] = MakeGroup(std::move(nj), std::move(s));
      }
      MExpr new_union;
      new_union.kind = LogicalOpKind::kUnionAll;
      new_union.children = {join_gids[0], join_gids[1]};
      new_union.derivation = e.derivation | u.derivation;
      new_union.derivation.Set(rules::kPushJoinThroughUnion);
      new_union.applied |= (1u << kTxJoinThroughUnion);
      AddExprToGroup(gid, std::move(new_union));
      return true;
    });
  }

  static Schema ConcatSchemas(const Schema& l, const Schema& r) {
    Schema out;
    out.columns.reserve(l.columns.size() + r.columns.size());
    out.columns = l.columns;
    for (const auto& c : r.columns) {
      if (!out.HasColumn(c.name)) out.columns.push_back(c);
    }
    return out;
  }

  /// True for column-pruning projects (no renames, no computed columns) —
  /// pattern-matching rules may safely look through them.
  static bool IsPureProject(const MExpr& e) {
    if (e.kind != LogicalOpKind::kProject) return false;
    for (const SelectItem& item : *e.projections) {
      if (item.agg != scope::AggFunc::kNone || item.alias != kSymEmpty ||
          item.column == kSymStar) {
        return false;
      }
    }
    return true;
  }

  /// Calls `fn` on each expression of `kind` in group `gid`, looking
  /// through one level of pure pruning projects (which rules 46/47 insert
  /// below joins and aggregates and would otherwise hide the patterns),
  /// until `fn` returns true. `fn` may grow the memo only when it returns
  /// true: the walk reads the groups' expr lists as it goes.
  template <typename Fn>
  void ForEachPatternExpr(int gid, LogicalOpKind kind, Fn&& fn) {
    for (int i = groups_[gid].first_expr; i >= 0; i = exprs_[i].next) {
      const MExpr& e = exprs_[i];
      if (e.kind == kind) {
        if (fn(e)) return;
      } else if (IsPureProject(e)) {
        for (int j = groups_[e.children[0]].first_expr; j >= 0;
             j = exprs_[j].next) {
          if (exprs_[j].kind == kind && fn(exprs_[j])) return;
        }
      }
    }
  }

  // ----- Implementation -----------------------------------------------------

  Winner OptimizeGroup(int gid, const PhysProp& required, int depth) {
    const uint64_t key = required.HashValue();
    for (int w = groups_[gid].first_winner; w >= 0; w = winners_[w].next) {
      if (winners_[w].key == key) return winners_[w].winner;
    }
    // Insert an infeasible placeholder to stop runaway recursion.
    const int slot = static_cast<int>(winners_.size());
    winners_.push_back({key, groups_[gid].first_winner, Winner{}});
    groups_[gid].first_winner = slot;
    if (depth > 64) return Winner{};

    ExploreGroup(gid);

    Winner best;
    for (int i = groups_[gid].first_expr; i >= 0; i = exprs_[i].next) {
      ImplementExpr(gid, i, required, depth, &best);
    }
    // Enforcer: satisfy the requirement by exchanging the Any-winner.
    if (required.kind != PhysProp::Kind::kAny) {
      Winner any = OptimizeGroup(gid, PhysProp::Any(), depth + 1);
      if (any.feasible) {
        AddEnforcer(any, required, &best);
      }
    }
    winners_[slot].winner = best;
    return best;
  }

  void ConsiderCandidate(const Winner& candidate, Winner* best) {
    if (!candidate.feasible) return;
    if (!best->feasible || candidate.cost < best->cost) *best = candidate;
  }

  /// Adds a candidate implementing `expr` in group `gid`, annotating sizes.
  int MakePhysNode(PhysOpKind kind, int expr, int gid,
                   ChildIds children, double est_rows, double true_rows,
                   int partitions) {
    Candidate node;
    node.kind = kind;
    node.children = children;
    node.expr = expr;
    node.group = gid;
    node.partitions = partitions;
    node.est_rows = est_rows;
    node.est_bytes = est_rows * groups_[gid].row_width;
    node.true_rows = true_rows;
    node.true_bytes = true_rows * groups_[gid].row_width;
    CostInputs in{kind, partitions, node.est_rows, node.est_bytes, {}, {}};
    for (size_t i = 0; i < children.size(); ++i) {
      in.child_rows[i] = candidates_[children[i]].est_rows;
      in.child_bytes[i] = candidates_[children[i]].est_bytes;
    }
    node.local_cost = cost_model_.LocalCost(in);
    candidates_.push_back(node);
    return static_cast<int>(candidates_.size()) - 1;
  }

  /// Wraps `input_phys` with an exchange that delivers `prop`.
  /// Returns -1 when the needed exchange rule is disabled.
  int MakeExchange(int input_phys, const PhysProp& prop,
                   BitVector256* rules_used) {
    const Candidate child = candidates_[input_phys];
    Candidate node;
    switch (prop.kind) {
      case PhysProp::Kind::kHash:
        if (!config_.IsEnabled(rules::kExchangeShuffleImpl)) return -1;
        node.kind = PhysOpKind::kExchangeShuffle;
        node.partitions = ChoosePartitions(child.est_bytes);
        node.exchange_key = prop.key;
        rules_used->Set(rules::kExchangeShuffleImpl);
        break;
      case PhysProp::Kind::kBroadcast:
        if (!config_.IsEnabled(rules::kExchangeBroadcastImpl)) return -1;
        node.kind = PhysOpKind::kExchangeBroadcast;
        node.partitions = std::max(1, prop.partitions_hint);
        rules_used->Set(rules::kExchangeBroadcastImpl);
        break;
      case PhysProp::Kind::kSingleton:
        if (!config_.IsEnabled(rules::kExchangeGatherImpl)) return -1;
        node.kind = PhysOpKind::kExchangeGather;
        node.partitions = 1;
        rules_used->Set(rules::kExchangeGatherImpl);
        break;
      default:
        return -1;
    }
    node.children = {input_phys};
    node.group = child.group;
    node.est_rows = child.est_rows;
    node.est_bytes = child.est_bytes;
    node.true_rows = child.true_rows;
    node.true_bytes = child.true_bytes;
    node.local_cost = cost_model_.LocalCost(
        {node.kind, node.partitions, node.est_rows, node.est_bytes,
         {child.est_rows}, {child.est_bytes}});
    candidates_.push_back(node);
    return static_cast<int>(candidates_.size()) - 1;
  }

  void AddEnforcer(const Winner& any, const PhysProp& required,
                   Winner* best) {
    if (required.SatisfiedBy(any.delivered)) {
      ConsiderCandidate(any, best);
      return;
    }
    Winner w = any;
    int ex = MakeExchange(any.phys, required, &w.rules);
    if (ex < 0) return;
    w.phys = ex;
    w.cost = any.cost + candidates_[ex].local_cost;
    w.delivered = required;
    if (required.kind == PhysProp::Kind::kHash) {
      w.delivered.kind = PhysProp::Kind::kHash;
    }
    ConsiderCandidate(w, best);
  }

  void ImplementExpr(int gid, int e, const PhysProp& required,
                     int depth, Winner* best) {
    const MExpr& expr = exprs_[e];
    const Group& group = groups_[gid];
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;
    switch (expr.kind) {
      case LogicalOpKind::kScan: {
        if (!config_.IsEnabled(rules::kScanImpl)) return;
        if (!required.SatisfiedBy(PhysProp::Random())) return;
        // Parallelism follows the bytes the scan *reads* (the full table),
        // not its possibly-filtered output.
        double table_bytes = est_rows * group.row_width;
        auto table_stats = catalog_.Lookup(expr.table_path);
        if (table_stats.ok()) {
          table_bytes = table_stats.value()->est_bytes();
        }
        Winner w;
        w.feasible = true;
        int parts = ChoosePartitions(table_bytes);
        w.phys = MakePhysNode(PhysOpKind::kScan, e, gid, {}, est_rows,
                              tru_rows, parts);
        w.cost = candidates_[w.phys].local_cost;
        w.delivered = PhysProp::Random();
        w.rules = expr.derivation;
        w.rules.Set(rules::kScanImpl);
        if (!expr.predicates->empty()) w.rules.Set(rules::kFilterIntoScan);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kProject: {
        int impl_rule = expr.kind == LogicalOpKind::kFilter
                            ? rules::kFilterImpl
                            : rules::kProjectImpl;
        if (!config_.IsEnabled(impl_rule)) return;
        // Pass the requirement through to the child (broadcast cannot pass).
        PhysProp child_req = required;
        if (required.kind == PhysProp::Kind::kBroadcast) {
          child_req = PhysProp::Any();
        }
        if (expr.kind == LogicalOpKind::kProject &&
            child_req.kind == PhysProp::Kind::kHash) {
          // Translate the key through the projection.
          const SelectItem* source = nullptr;
          for (const SelectItem& item : *expr.projections) {
            if (item.output == child_req.key &&
                item.agg == scope::AggFunc::kNone) {
              source = &item;
            }
          }
          if (source == nullptr || source->column == kSymEmpty) {
            child_req = PhysProp::Any();  // fall back to enforcer above
          } else {
            child_req.key = source->column;
          }
        }
        Winner child = OptimizeGroup(expr.children[0], child_req, depth + 1);
        if (!child.feasible) return;
        if (!required.SatisfiedBy(child.delivered) &&
            required.kind != PhysProp::Kind::kAny) {
          return;  // enforcer path will handle it
        }
        PhysOpKind kind = expr.kind == LogicalOpKind::kFilter
                              ? PhysOpKind::kFilter
                              : PhysOpKind::kProject;
        Winner w;
        w.feasible = true;
        int parts = candidates_[child.phys].partitions;
        w.phys = MakePhysNode(kind, e, gid, {child.phys}, est_rows,
                              tru_rows, parts);
        w.cost = child.cost + candidates_[w.phys].local_cost;
        w.delivered = child.delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(impl_rule);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kJoin: {
        ImplementJoin(gid, e, required, depth, best);
        return;
      }
      case LogicalOpKind::kAggregate: {
        ImplementAggregate(gid, e, required, depth, best);
        return;
      }
      case LogicalOpKind::kUnionAll: {
        if (!config_.IsEnabled(rules::kUnionAllImpl)) return;
        if (!required.SatisfiedBy(PhysProp::Random())) return;
        Winner l = OptimizeGroup(expr.children[0], PhysProp::Any(), depth + 1);
        Winner r = OptimizeGroup(expr.children[1], PhysProp::Any(), depth + 1);
        if (!l.feasible || !r.feasible) return;
        Winner w;
        w.feasible = true;
        int parts = candidates_[l.phys].partitions +
                    candidates_[r.phys].partitions;
        parts = std::min(parts, 256);
        w.phys = MakePhysNode(PhysOpKind::kUnionAll, e, gid,
                              {l.phys, r.phys}, est_rows, tru_rows, parts);
        w.cost = l.cost + r.cost + candidates_[w.phys].local_cost;
        w.delivered = PhysProp::Random();
        w.rules = l.rules | r.rules | expr.derivation;
        w.rules.Set(rules::kUnionAllImpl);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kOutput: {
        if (!config_.IsEnabled(rules::kOutputImpl)) return;
        Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                     depth + 1);
        if (!child.feasible) return;
        Winner w;
        w.feasible = true;
        int parts = candidates_[child.phys].partitions;
        w.phys = MakePhysNode(PhysOpKind::kOutput, e, gid, {child.phys},
                              est_rows, tru_rows, parts);
        w.cost = child.cost + candidates_[w.phys].local_cost;
        w.delivered = child.delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kOutputImpl);
        ConsiderCandidate(w, best);
        return;
      }
    }
  }

  void ImplementJoin(int gid, int e, const PhysProp& required,
                     int depth, Winner* best) {
    const MExpr& expr = exprs_[e];
    const Group& group = groups_[gid];
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;

    // Hash join: shuffle both sides on the join keys.
    auto shuffled_join = [&](PhysOpKind kind, int impl_rule) {
      if (!config_.IsEnabled(impl_rule)) return;
      Winner l = OptimizeGroup(expr.children[0],
                               PhysProp::Hash(expr.left_key), depth + 1);
      Winner r = OptimizeGroup(expr.children[1],
                               PhysProp::Hash(expr.right_key), depth + 1);
      if (!l.feasible || !r.feasible) return;
      PhysProp delivered = PhysProp::Hash(expr.left_key);
      if (!required.SatisfiedBy(delivered)) return;
      Winner w;
      w.feasible = true;
      int parts = std::max(candidates_[l.phys].partitions,
                           candidates_[r.phys].partitions);
      w.phys = MakePhysNode(kind, e, gid, {l.phys, r.phys}, est_rows,
                            tru_rows, parts);
      w.cost = l.cost + r.cost + candidates_[w.phys].local_cost;
      w.delivered = delivered;
      w.rules = l.rules | r.rules | expr.derivation;
      w.rules.Set(impl_rule);
      ConsiderCandidate(w, best);
    };
    shuffled_join(PhysOpKind::kHashJoin, rules::kHashJoinImpl);
    shuffled_join(PhysOpKind::kMergeJoin, rules::kMergeJoinImpl);

    // Broadcast join: replicate the (small) right side.
    if (config_.IsEnabled(rules::kBroadcastJoinImpl)) {
      double threshold =
          config_.IsEnabled(rules::kBroadcastJoinAggressive)
              ? options_.broadcast_threshold_aggressive_bytes
              : options_.broadcast_threshold_bytes;
      const Group& right = groups_[expr.children[1]];
      double right_bytes = right.est.rows * right.row_width;
      if (right_bytes <= threshold) {
        Winner l = OptimizeGroup(expr.children[0], PhysProp::Any(), depth + 1);
        if (l.feasible) {
          int consumers = candidates_[l.phys].partitions;
          Winner r = OptimizeGroup(expr.children[1],
                                   PhysProp::Broadcast(consumers), depth + 1);
          if (r.feasible && required.SatisfiedBy(l.delivered)) {
            Winner w;
            w.feasible = true;
            w.phys = MakePhysNode(PhysOpKind::kBroadcastJoin, e, gid,
                                  {l.phys, r.phys}, est_rows, tru_rows,
                                  consumers);
            w.cost = l.cost + r.cost + candidates_[w.phys].local_cost;
            w.delivered = l.delivered;
            w.rules = l.rules | r.rules | expr.derivation;
            w.rules.Set(rules::kBroadcastJoinImpl);
            if (config_.IsEnabled(rules::kBroadcastJoinAggressive) &&
                right_bytes > options_.broadcast_threshold_bytes) {
              w.rules.Set(rules::kBroadcastJoinAggressive);
            }
            ConsiderCandidate(w, best);
          }
        }
      }
    }
  }

  void ImplementAggregate(int gid, int e, const PhysProp& required,
                          int depth, Winner* best) {
    const MExpr& expr = exprs_[e];
    const Group& group = groups_[gid];
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;

    if (expr.partial_agg) {
      // Local pre-aggregation: no data movement, preserves distribution.
      // Either aggregate implementation can realize the partial phase.
      bool hash_ok = config_.IsEnabled(rules::kHashAggImpl);
      bool stream_ok = config_.IsEnabled(rules::kStreamAggImpl);
      if (!hash_ok && !stream_ok) return;
      Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                   depth + 1);
      if (!child.feasible) return;
      if (!required.SatisfiedBy(child.delivered)) return;
      Winner w;
      w.feasible = true;
      int parts = candidates_[child.phys].partitions;
      w.phys = MakePhysNode(PhysOpKind::kPartialHashAgg, e, gid,
                            {child.phys}, est_rows, tru_rows, parts);
      w.cost = child.cost + candidates_[w.phys].local_cost;
      w.delivered = child.delivered;
      w.rules = child.rules | expr.derivation;
      w.rules.Set(hash_ok ? rules::kHashAggImpl : rules::kStreamAggImpl);
      ConsiderCandidate(w, best);
      return;
    }

    // Partitioned on the first group key (gathered, for a global aggregate):
    // what a single-phase aggregate needs from its input, where the
    // two-phase exchange moves partials, and what every final phase delivers.
    const bool global = expr.group_by->empty();
    const PhysProp delivered = global ? PhysProp::Singleton()
                                      : PhysProp::Hash((*expr.group_by)[0]);

    // Single-phase hash aggregation: shuffle raw rows to the group keys.
    if (config_.IsEnabled(rules::kHashAggImpl) &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], delivered, depth + 1);
      if (child.feasible) {
        Winner w;
        w.feasible = true;
        int parts = candidates_[child.phys].partitions;
        w.phys = MakePhysNode(PhysOpKind::kHashAgg, e, gid, {child.phys},
                              est_rows, tru_rows, parts);
        w.cost = child.cost + candidates_[w.phys].local_cost;
        w.delivered = delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kHashAggImpl);
        ConsiderCandidate(w, best);
      }
    }

    // Stream (sort-based) aggregation.
    if (config_.IsEnabled(rules::kStreamAggImpl) && !global &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], delivered, depth + 1);
      if (child.feasible) {
        Winner w;
        w.feasible = true;
        int parts = candidates_[child.phys].partitions;
        w.phys = MakePhysNode(PhysOpKind::kStreamAgg, e, gid, {child.phys},
                              est_rows, tru_rows, parts);
        w.cost = child.cost + candidates_[w.phys].local_cost;
        w.delivered = delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kStreamAggImpl);
        ConsiderCandidate(w, best);
      }
    }

    // Two-phase aggregation: local partial agg, then shuffle the (smaller)
    // partial results, then final agg.
    if (config_.IsEnabled(rules::kTwoPhaseAggregation) &&
        config_.IsEnabled(rules::kHashAggImpl) &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                   depth + 1);
      if (!child.feasible) return;
      int child_parts = candidates_[child.phys].partitions;
      RelStats partial_est = est_.PartialAggregate(
          groups_[expr.children[0]].est, *expr.group_by, child_parts);
      RelStats partial_tru = tru_.PartialAggregate(
          groups_[expr.children[0]].tru, *expr.group_by, child_parts);
      BitVector256 rules_used = child.rules | expr.derivation;
      rules_used.Set(rules::kTwoPhaseAggregation);
      rules_used.Set(rules::kHashAggImpl);
      int partial = MakePhysNode(PhysOpKind::kPartialHashAgg, e, gid,
                                 {child.phys}, partial_est.rows,
                                 partial_tru.rows, child_parts);
      int exchange = MakeExchange(partial, delivered, &rules_used);
      if (exchange < 0) return;
      int final_parts = candidates_[exchange].partitions;
      int final_agg = MakePhysNode(PhysOpKind::kHashAgg, e, gid,
                                   {exchange}, est_rows, tru_rows, final_parts);
      Winner w;
      w.feasible = true;
      w.phys = final_agg;
      w.cost = child.cost + candidates_[partial].local_cost +
               candidates_[exchange].local_cost +
               candidates_[final_agg].local_cost;
      w.delivered = delivered;
      w.rules = rules_used;
      ConsiderCandidate(w, best);
    }
  }

  // ----- Winner extraction --------------------------------------------------

  /// Copies the candidates reachable from `root_phys` into `out` as
  /// PhysicalNodes, children before parents, filling in each node's payload
  /// from its memo expr. Returns the total estimated cost of the plan.
  double Compact(const std::vector<int>& root_phys, PhysicalPlan* out) {
    // Post-order walk: a candidate's plan id is its position in `order`.
    constexpr int kUnvisited = -1;
    constexpr int kOnStack = -2;
    std::vector<int> remap(candidates_.size(), kUnvisited);
    std::vector<int> order;
    std::vector<std::pair<int, int>> stack;  // (candidate, next child)
    for (int r : root_phys) {
      if (remap[r] == kUnvisited) {
        remap[r] = kOnStack;
        stack.emplace_back(r, 0);
      }
      while (!stack.empty()) {
        const auto [id, next] = stack.back();
        const ChildIds& children = candidates_[id].children;
        if (next == children.count) {
          remap[id] = static_cast<int>(order.size());
          order.push_back(id);
          stack.pop_back();
          continue;
        }
        ++stack.back().second;
        const int c = children[next];
        if (remap[c] == kUnvisited) {
          remap[c] = kOnStack;
          stack.emplace_back(c, 0);
        }
      }
      out->roots.push_back(remap[r]);
    }
    out->nodes.reserve(order.size());
    double total = 0.0;
    for (int id : order) {
      const Candidate& c = candidates_[id];
      PhysicalNode node;
      node.kind = c.kind;
      node.children.reserve(c.children.size());
      for (int child : c.children) node.children.push_back(remap[child]);
      node.schema = groups_[c.group].schema;
      if (c.expr >= 0) {
        const MExpr& e = exprs_[c.expr];
        node.table_path = e.table_path;
        node.predicates = *e.predicates;
        node.projections = *e.projections;
        node.group_by = *e.group_by;
        node.left_key = e.left_key;
        node.right_key = e.right_key;
        node.true_fanout = e.true_fanout;
        node.output_path = e.output_path;
      }
      node.exchange_key = c.exchange_key;
      node.est_rows = c.est_rows;
      node.est_bytes = c.est_bytes;
      node.partitions = c.partitions;
      node.local_cost = c.local_cost;
      node.true_rows = c.true_rows;
      node.true_bytes = c.true_bytes;
      total += c.local_cost;
      out->AddNode(std::move(node));
    }
    return total;
  }

  const scope::Catalog& catalog_;
  OptimizerOptions options_;
  RuleConfig config_;
  StatsDeriver est_;
  StatsDeriver tru_;
  CostModel cost_model_;
  BlockArena<Group, 32> groups_;
  BlockArena<MExpr, 64> exprs_;
  /// Group-by lists built by eager aggregation; a deque, so MExprs may
  /// point at them while more are added.
  std::deque<std::vector<Symbol>> owned_group_by_;
  std::vector<WinnerSlot> winners_;
  std::vector<Candidate> candidates_;
};

}  // namespace

Optimizer::Optimizer(const scope::Catalog& catalog, OptimizerOptions options)
    : catalog_(catalog), options_(options) {}

Result<CompilationOutput> Optimizer::Optimize(const scope::LogicalPlan& plan,
                                              const RuleConfig& config) const {
  return OptimizeTracked(plan, config, nullptr, nullptr, nullptr);
}

Result<CompilationOutput> Optimizer::OptimizeTracked(
    const scope::LogicalPlan& plan, const RuleConfig& config,
    BitVector256* norm_consulted, BitVector256* post_consulted,
    std::shared_ptr<const NormalizedPlan>* normalized_out) const {
  MemoOptimizer memo(catalog_, options_, config);
  return memo.Run(plan, norm_consulted, post_consulted, normalized_out);
}

Result<CompilationOutput> Optimizer::OptimizeFromNormalized(
    const NormalizedPlan& normalized, const RuleConfig& config,
    BitVector256* post_consulted) const {
  MemoOptimizer memo(catalog_, options_, config);
  return memo.RunPostNormalize(normalized, post_consulted);
}

}  // namespace qo::opt
