#include "bandit/cb_model.h"

#include <algorithm>

namespace qo::bandit {

CbModel::CbModel(CbModelConfig config) : config_(config) {
  weights_.assign(FeatureVector::kDim, 0.0f);
}

double CbModel::Score(const SparseVector& features) const {
  return Accumulate(features, 0, 0.0);
}

double CbModel::Accumulate(const SparseVector& features, size_t begin,
                           double sum) const {
  const std::vector<uint32_t>& idx = features.indices();
  const std::vector<double>& val = features.values();
  for (size_t k = begin; k < idx.size(); ++k) {
    sum += static_cast<double>(weights_[idx[k]]) * val[k];
  }
  return sum;
}

std::vector<double> CbModel::ScoreBatch(
    const std::vector<std::shared_ptr<const SparseVector>>& arms) const {
  static const SparseVector kEmpty;  // a null arm scores like an empty one
  auto arm = [&](size_t i) -> const SparseVector& {
    return arms[i] != nullptr ? *arms[i] : kEmpty;
  };
  std::vector<double> scores(arms.size());
  // Four arms at a time: each arm's sum is one serial chain of dependent
  // adds, so interleaving four chains keeps four adds in flight instead of
  // one. Every chain still accumulates in Score()'s order, so each score is
  // bit-identical to Score() on that arm.
  size_t a = 0;
  for (; a + 4 <= arms.size(); a += 4) {
    const SparseVector* v[4] = {&arm(a), &arm(a + 1), &arm(a + 2),
                                &arm(a + 3)};
    const size_t common = std::min(std::min(v[0]->size(), v[1]->size()),
                                   std::min(v[2]->size(), v[3]->size()));
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t k = 0; k < common; ++k) {
      for (size_t j = 0; j < 4; ++j) {
        s[j] += static_cast<double>(weights_[v[j]->indices()[k]]) *
                v[j]->values()[k];
      }
    }
    for (size_t j = 0; j < 4; ++j) {
      scores[a + j] = Accumulate(*v[j], common, s[j]);
    }
  }
  for (; a < arms.size(); ++a) scores[a] = Score(arm(a));
  return scores;
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
