#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace qo::opt {

int ChoosePartitions(double est_bytes, double bytes_per_partition,
                     int max_partitions) {
  int p = static_cast<int>(std::ceil(est_bytes / bytes_per_partition));
  return std::clamp(p, 1, max_partitions);
}

double CostModel::LocalCost(const CostInputs& in) const {
  const double p_overhead =
      params_.partition_overhead * static_cast<double>(in.partitions);
  switch (in.kind) {
    case PhysOpKind::kScan:
      return in.est_bytes * params_.scan_byte +
             in.est_rows * params_.scan_row + p_overhead;
    case PhysOpKind::kFilter:
      return in.child_rows[0] * params_.filter_row;
    case PhysOpKind::kProject:
      return in.child_rows[0] * params_.project_row;
    case PhysOpKind::kHashJoin:
      // Child 1 is the build side by convention.
      return in.child_rows[1] * params_.hash_build_row +
             in.child_rows[0] * params_.hash_probe_row + p_overhead;
    case PhysOpKind::kBroadcastJoin:
      // Every partition builds a full replica of the broadcast side.
      return in.child_rows[1] * static_cast<double>(in.partitions) *
                 params_.hash_build_row +
             in.child_rows[0] * params_.hash_probe_row + p_overhead;
    case PhysOpKind::kMergeJoin: {
      double sort_cost = 0.0;
      for (size_t i = 0; i < 2; ++i) {
        double r = in.child_rows[i];
        if (r > 1.0) sort_cost += r * std::log2(r) * params_.sort_row_log;
      }
      return sort_cost +
             (in.child_rows[0] + in.child_rows[1]) * params_.merge_row +
             p_overhead;
    }
    case PhysOpKind::kHashAgg:
    case PhysOpKind::kPartialHashAgg:
      return in.child_rows[0] * params_.agg_row +
             in.est_rows * params_.agg_group + p_overhead;
    case PhysOpKind::kStreamAgg: {
      double r = in.child_rows[0];
      double sort_cost =
          r > 1.0 ? r * std::log2(r) * params_.sort_row_log : 0.0;
      return sort_cost + r * params_.agg_row * 0.5 + p_overhead;
    }
    case PhysOpKind::kUnionAll:
      return (in.child_rows[0] + in.child_rows[1]) * params_.union_row;
    case PhysOpKind::kOutput:
      return in.est_bytes * params_.output_byte + p_overhead;
    case PhysOpKind::kExchangeShuffle:
      return in.child_bytes[0] * params_.shuffle_byte + p_overhead;
    case PhysOpKind::kExchangeBroadcast:
      // Replicated to every consumer partition.
      return in.child_bytes[0] * params_.broadcast_byte *
                 static_cast<double>(in.partitions) +
             p_overhead;
    case PhysOpKind::kExchangeGather:
      return in.child_bytes[0] * params_.shuffle_byte +
             params_.partition_overhead;
  }
  return 0.0;
}

}  // namespace qo::opt
