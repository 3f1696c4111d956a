// Sparse feature vectors and the QO-Advisor featurizer.
//
// The paper's key representation finding (Sec. 6): complex plan
// featurizations were ineffective, while the *job span itself* — the set of
// rule bits that can affect the plan — plus second and third order
// co-occurrence indicators over the span was critical. We reproduce that
// featurization, plus the marginal input-stream properties (row counts) of
// Sec. 3.2.
#ifndef QO_BANDIT_FEATURES_H_
#define QO_BANDIT_FEATURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"

namespace qo::bandit {

struct FeatureVector;

/// Canonical hashed sparse vector in structure-of-arrays form: a sorted
/// index column and a parallel value column, exactly one entry per index
/// (hash-collided duplicates are coalesced by summing their values at
/// construction), squared L2 norm cached.
///
/// The canonical form is what makes the trainer correct *by construction*:
/// a linear sweep over the columns touches each model weight exactly once,
/// so per-example L2 decay applies once per weight (not once per colliding
/// occurrence) and `norm_sq()` counts a collided feature once at its summed
/// value. The split columns also keep `CbModel::Score` a sweep over two
/// dense arrays, with none of the 4-byte padding a pair layout carries.
/// Immutable after construction and shared by value or via `shared_ptr`
/// between the Personalizer's event log and the trainer.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds the canonical form from raw (index, value) pairs in any order,
  /// possibly with repeated indices. Indices are reduced into the model's
  /// hashed space (FeatureVector::kDim) so the result is always safe to
  /// score against a CbModel.
  static SparseVector Canonicalize(
      std::vector<std::pair<uint32_t, double>> raw);

  /// Wraps already-canonical columns (sorted unique indices < kDim, values
  /// parallel, norm_sq = sum of squared values). The combine arena emits
  /// through this; callers are responsible for the precondition.
  static SparseVector FromCanonical(std::vector<uint32_t> indices,
                                    std::vector<double> values,
                                    double norm_sq);

  /// Sorted feature indices, one entry per index.
  const std::vector<uint32_t>& indices() const { return indices_; }
  /// Values parallel to `indices()`.
  const std::vector<double>& values() const { return values_; }
  /// Cached squared L2 norm of the coalesced values.
  double norm_sq() const { return norm_sq_; }
  size_t size() const { return indices_.size(); }

 private:
  friend void CombineFeaturesInto(const FeatureVector& shared,
                                  const FeatureVector& action,
                                  SparseVector* out);

  std::vector<uint32_t> indices_;
  std::vector<double> values_;
  double norm_sq_ = 0.0;
};

/// Hashed sparse feature builder (feature hashing into a fixed space).
/// Add/AddNamed append raw entries; Canonicalize() sorts and coalesces them
/// in place. The featurizer entry points below always return canonicalized
/// vectors, so downstream combination starts from deduplicated inputs.
struct FeatureVector {
  static constexpr uint32_t kDim = 1u << 18;

  std::vector<std::pair<uint32_t, double>> entries;

  void Add(uint32_t index, double value) {
    entries.emplace_back(index % kDim, value);
  }
  /// Adds a named feature via hashing.
  void AddNamed(const std::string& name, double value);

  /// Sorts entries by index and coalesces duplicates (summing values).
  void Canonicalize();

  size_t size() const { return entries.size(); }
};

/// Stable 64-bit string hash (FNV-1a).
uint64_t HashFeatureName(const std::string& name);

/// Context features for one job.
struct JobContext {
  BitVector256 span;          ///< the job span (Sec. 2.1)
  double row_count = 0.0;     ///< summed actual row counts (Table 1)
  double est_cost = 0.0;      ///< default-config estimated cost
  double bytes_read = 0.0;
  int total_vertices = 0;
};

/// Builds the shared (context) features: span indicators, 2nd/3rd order span
/// co-occurrences, and log-bucketed input-stream properties. Canonical.
FeatureVector BuildContextFeatures(const JobContext& context);

/// Builds the per-action features: the flipped rule's id and category
/// (Sec. 4.2), or the dedicated no-op indicator for action 0. Canonical.
FeatureVector BuildActionFeatures(int rule_id, bool is_noop);

/// Combines shared and action features with quadratic (shared x action)
/// interactions, mirroring VW's `-q` pairing that Azure Personalizer uses.
/// The result is canonical (sorted, coalesced, norm cached).
SparseVector CombineFeatures(const FeatureVector& shared,
                             const FeatureVector& action);

/// CombineFeatures into `out`, reusing its columns' capacity: the result is
/// bit-identical to CombineFeatures, and once `out` has grown to the
/// combined size a call allocates nothing. This is how Rank scores its
/// arms from per-thread buffers without materializing a vector per arm.
void CombineFeaturesInto(const FeatureVector& shared,
                         const FeatureVector& action, SparseVector* out);

/// CombineFeatures into a shareable immutable vector — how Rank
/// materializes a uniform rank's picked arm for the event log and the
/// trainer.
std::shared_ptr<const SparseVector> CombineFeaturesShared(
    const FeatureVector& shared, const FeatureVector& action);

}  // namespace qo::bandit

#endif  // QO_BANDIT_FEATURES_H_
