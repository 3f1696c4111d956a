// The optimizer's cost model: per-operator estimated costs from estimated
// cardinalities and partition counts.
//
// Like SCOPE's, this cost model is "a combination of data statistics and
// other heuristics tuned over the years" (paper Sec. 2.1) — i.e., it is a
// *useful but imperfect* signal. Its constants deliberately differ from the
// execution simulator's ground-truth timing model.
#ifndef QO_OPTIMIZER_COST_MODEL_H_
#define QO_OPTIMIZER_COST_MODEL_H_

#include <array>

#include "optimizer/physical_plan.h"

namespace qo::opt {

/// Tunable cost constants (estimated seconds per row / per byte).
struct CostParams {
  double scan_byte = 1.0e-8;       ///< storage read throughput
  double scan_row = 2.0e-8;        ///< extraction CPU per row
  double filter_row = 1.0e-8;
  double project_row = 6.0e-9;
  double hash_build_row = 4.0e-8;
  double hash_probe_row = 2.0e-8;
  double sort_row_log = 6.0e-9;    ///< per row per log2(rows)
  double merge_row = 1.2e-8;
  double agg_row = 3.0e-8;
  double agg_group = 1.0e-8;
  double union_row = 2.0e-9;
  double output_byte = 1.5e-8;
  double shuffle_byte = 2.0e-8;    ///< network + ser/de per shuffled byte
  double broadcast_byte = 2.0e-8;  ///< per byte per consumer partition
  double partition_overhead = 0.05;  ///< fixed startup cost per partition
};

/// What one operator's local cost depends on: its kind, parallelism and
/// estimated output, and the estimated outputs of its children in order (a
/// leaf or a one-child operator leaves the rest zero; no operator has more
/// than two children).
struct CostInputs {
  PhysOpKind kind = PhysOpKind::kScan;
  int partitions = 1;
  double est_rows = 0.0;
  double est_bytes = 0.0;
  std::array<double, 2> child_rows{};
  std::array<double, 2> child_bytes{};
};

/// Computes per-operator local costs.
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostParams params) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Estimated local cost of one operator.
  double LocalCost(const CostInputs& in) const;

 private:
  CostParams params_;
};

/// Partition count selection from estimated bytes: one partition per
/// `bytes_per_partition` of input, clamped to [1, max_partitions]. This is
/// the compile-time parallelism decision; estimation errors therefore
/// propagate to real execution (as in SCOPE).
int ChoosePartitions(double est_bytes, double bytes_per_partition = 256.0e6,
                     int max_partitions = 500);

}  // namespace qo::opt

#endif  // QO_OPTIMIZER_COST_MODEL_H_
