#include "bandit/cb_model.h"

#include <algorithm>

namespace qo::bandit {

CbModel::CbModel(CbModelConfig config) : config_(config) {
  weights_.assign(FeatureVector::kDim, 0.0f);
}

double CbModel::Score(const SparseVector& features) const {
  const std::vector<uint32_t>& idx = features.indices();
  const std::vector<double>& val = features.values();
  double sum = 0.0;
  for (size_t k = 0; k < idx.size(); ++k) {
    sum += static_cast<double>(weights_[idx[k]]) * val[k];
  }
  return sum;
}

void CbModel::TrainEpoch(const std::vector<LoggedExample>& examples) {
  // The per-example L2 decay factor is constant across the epoch; the
  // canonical features guarantee each weight appears once per example, so
  // applying it inside the update sweep decays each touched weight exactly
  // once per example.
  const double decay = 1.0 - config_.learning_rate * config_.l2;
  for (const LoggedExample& ex : examples) {
    if (ex.features == nullptr) continue;
    const SparseVector& features = *ex.features;
    double iw = 1.0 / std::max(ex.probability, 1e-6);
    iw = std::min(iw, config_.max_importance_weight);
    double pred = Score(features);
    // Normalized LMS: scale by the squared feature norm (cached at
    // canonicalization) so one update moves the prediction by at most
    // (learning_rate * iw) of the error, regardless of how many hashed
    // features are active.
    double grad_scale = config_.learning_rate * iw * (ex.reward - pred) /
                        std::max(1.0, features.norm_sq());
    const std::vector<uint32_t>& idx = features.indices();
    const std::vector<double>& val = features.values();
    for (size_t k = 0; k < idx.size(); ++k) {
      float& w = weights_[idx[k]];
      w = static_cast<float>(w * decay + grad_scale * val[k]);
    }
    ++updates_;
  }
}

void CbModel::Train(const std::vector<LoggedExample>& examples) {
  for (int e = 0; e < config_.epochs; ++e) TrainEpoch(examples);
}

}  // namespace qo::bandit
