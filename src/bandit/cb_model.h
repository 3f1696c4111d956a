// Linear contextual-bandit model with importance-weighted SGD training.
//
// Scores canonical (shared, action) combined vectors with a hashed linear
// model; learns from logged (features, reward, logging-probability) triples
// using inverse propensity scoring — the standard off-policy reduction to
// regression (paper Sec. 3.1, [2, 40]).
//
// All features are canonical SparseVectors (sorted, coalesced, norm
// cached), so Score and TrainEpoch are branch-light linear sweeps that
// touch each weight exactly once per example: L2 decay applies once per
// weight and the normalized-LMS bound uses the true coalesced norm.
#ifndef QO_BANDIT_CB_MODEL_H_
#define QO_BANDIT_CB_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/features.h"

namespace qo::bandit {

/// One logged interaction, ready for training. Features are shared with the
/// Personalizer's event log and the Recommender's per-job combined-feature
/// cache — building an example never deep-copies a feature vector.
struct LoggedExample {
  std::shared_ptr<const SparseVector> features;  ///< combined features
  double reward = 0.0;
  double probability = 1.0;  ///< probability the logging policy chose this
};

struct CbModelConfig {
  double learning_rate = 0.05;
  double l2 = 1e-6;
  int epochs = 3;
  /// IPS weights are clipped at this value to bound variance.
  double max_importance_weight = 10.0;
};

/// The hashed linear scorer.
class CbModel {
 public:
  explicit CbModel(CbModelConfig config = {});

  /// Predicted reward for a combined feature vector.
  double Score(const SparseVector& features) const;

  /// Predicted rewards for every arm of a rank request, in arm order. Each
  /// score is bit-identical to Score() on that arm; null arms score 0.0.
  std::vector<double> ScoreBatch(
      const std::vector<std::shared_ptr<const SparseVector>>& arms) const;

  /// One SGD pass over the examples with IPS weighting (examples with low
  /// logging probability get up-weighted, subject to clipping). Examples
  /// with null features are skipped.
  void TrainEpoch(const std::vector<LoggedExample>& examples);

  /// Runs config.epochs passes.
  void Train(const std::vector<LoggedExample>& examples);

  size_t updates() const { return updates_; }
  /// The hashed weight column (FeatureVector::kDim entries).
  const std::vector<float>& weights() const { return weights_; }
  const CbModelConfig& config() const { return config_; }

 private:
  /// `sum` plus the weighted entries of `features` from `begin` on, added
  /// one at a time in index order (the order Score() fixes).
  double Accumulate(const SparseVector& features, size_t begin,
                    double sum) const;

  CbModelConfig config_;
  std::vector<float> weights_;
  size_t updates_ = 0;
};

}  // namespace qo::bandit

#endif  // QO_BANDIT_CB_MODEL_H_
