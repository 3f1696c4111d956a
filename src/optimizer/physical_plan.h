// Physical (distributed) plans produced by the optimizer and consumed by the
// execution simulator.
#ifndef QO_OPTIMIZER_PHYSICAL_PLAN_H_
#define QO_OPTIMIZER_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "scope/ast.h"
#include "scope/types.h"

namespace qo::opt {

/// Physical operator kinds. Exchange operators are the stage boundaries of
/// the distributed plan — every exchange moves bytes across the network and
/// splits the plan into vertices.
enum class PhysOpKind {
  kScan,
  kFilter,
  kProject,
  kHashJoin,
  kBroadcastJoin,  ///< right child is broadcast to every left partition
  kMergeJoin,      ///< sorts both sides before merging
  kHashAgg,
  kPartialHashAgg,  ///< local pre-aggregation (two-phase agg, eager agg)
  kStreamAgg,
  kUnionAll,
  kOutput,
  kExchangeShuffle,    ///< hash repartition on `exchange_key`
  kExchangeBroadcast,  ///< replicate input to consumer partitions
  kExchangeGather,     ///< merge to a single partition
};

const char* PhysOpKindToString(PhysOpKind k);

/// True if the operator is an exchange (stage boundary).
bool IsExchange(PhysOpKind k);

/// One physical operator. Cardinality annotations:
///  - `est_rows` / `est_bytes`: what the optimizer believed at compile time
///    (drives cost and the partition count choice).
///  - `true_rows` / `true_bytes`: filled in by the execution simulator's
///    ground-truth statistics pass. Partition counts stay as compiled, so
///    estimation errors propagate into real resource usage — as in SCOPE.
struct PhysicalNode {
  int id = -1;
  PhysOpKind kind = PhysOpKind::kScan;
  std::vector<int> children;
  /// Output schema, shared with the memo group that produced this node.
  /// Immutable once built: the optimizer creates one Schema per memo group
  /// and every physical candidate (often hundreds per group across rule
  /// configs) holds a reference instead of a deep column-vector copy. May be
  /// null for hand-assembled nodes in tests; consumers that read it must
  /// tolerate null (an absent schema means width 0).
  std::shared_ptr<const scope::Schema> schema;

  // Payload (meaningful per kind).
  Symbol table_path = kSymEmpty;
  std::vector<scope::Predicate> predicates;
  std::vector<scope::SelectItem> projections;
  std::vector<Symbol> group_by;
  Symbol left_key = kSymEmpty;
  Symbol right_key = kSymEmpty;
  double true_fanout = 1.0;  ///< ground-truth join fanout (simulator only)
  Symbol output_path = kSymEmpty;
  Symbol exchange_key = kSymEmpty;

  // Compile-time annotations.
  double est_rows = 0.0;
  double est_bytes = 0.0;
  int partitions = 1;
  double local_cost = 0.0;  ///< estimated cost of this operator alone

  // Ground-truth annotations (set by qo::exec during simulation).
  double true_rows = 0.0;
  double true_bytes = 0.0;
};

/// A full physical plan (DAG; one root per OUTPUT statement).
struct PhysicalPlan {
  std::vector<PhysicalNode> nodes;
  std::vector<int> roots;

  /// Takes the node by rvalue: PhysicalNode is vector-heavy. The optimizer
  /// adds only the nodes of the final plan; its search keeps candidates in
  /// its own payload-free records.
  int AddNode(PhysicalNode&& node) {
    node.id = static_cast<int>(nodes.size());
    nodes.push_back(std::move(node));
    return nodes.back().id;
  }

  const PhysicalNode& node(int id) const { return nodes[id]; }
  PhysicalNode& node(int id) { return nodes[id]; }
  size_t size() const { return nodes.size(); }

  /// Total estimated cost (sum of local costs; the scalar SCOPE reports).
  double TotalEstimatedCost() const;

  /// Number of exchange operators (distributed stage boundaries).
  int ExchangeCount() const;

  /// Indented multi-line dump for debugging and golden tests.
  std::string ToString() const;
};

/// Everything the "SCOPE compiler + optimizer" returns for one job: the plan,
/// its total estimated cost, and the rule signature (paper Sec. 2.1).
struct CompilationOutput {
  PhysicalPlan plan;
  double est_cost = 0.0;
  BitVector256 signature;
};

}  // namespace qo::opt

#endif  // QO_OPTIMIZER_PHYSICAL_PLAN_H_
