#include "bandit/personalizer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span.h"

namespace qo::bandit {

namespace {

struct BanditCounters {
  obs::Counter& ranks;               ///< Rank calls that logged an event
  obs::Counter& combines;            ///< combined vectors computed in Rank
  obs::Counter& precombined_reused;  ///< combined vectors shared by callers
  obs::Counter& reward_joins;        ///< successful Reward() joins
  obs::Counter& reward_failures;     ///< rejected Reward() calls
  obs::Counter& retrains;            ///< Retrain / TakePendingBatch calls
  obs::Counter& examples_trained;    ///< examples consumed by retrains
  obs::Counter& events_compacted;    ///< events dropped by retention
};

const BanditCounters& Counters() {
  static const BanditCounters counters{
      obs::Registry::Get().counter("bandit.ranks"),
      obs::Registry::Get().counter("bandit.combines"),
      obs::Registry::Get().counter("bandit.precombined_reused"),
      obs::Registry::Get().counter("bandit.reward_joins"),
      obs::Registry::Get().counter("bandit.reward_failures"),
      obs::Registry::Get().counter("bandit.retrains"),
      obs::Registry::Get().counter("bandit.examples_trained"),
      obs::Registry::Get().counter("bandit.events_compacted")};
  return counters;
}

}  // namespace

std::vector<std::shared_ptr<const SparseVector>> CombineActionSet(
    const FeatureVector& context, const std::vector<RankableAction>& actions) {
  std::vector<std::shared_ptr<const SparseVector>> combined;
  combined.reserve(actions.size());
  for (const auto& action : actions) {
    combined.push_back(CombineFeaturesShared(context, action.features));
  }
  return combined;
}

PersonalizerService::PersonalizerService(PersonalizerConfig config)
    : config_(config), model_(config.model), rng_(config.seed) {
  Counters();  // register the series: they read 0 until the first event
}

Result<RankResponse> PersonalizerService::Rank(const RankRequest& request,
                                               const CbModel* serving_model) {
  QO_OBS_SPAN("rank");
  if (request.actions.empty()) {
    return Status::InvalidArgument("Rank requires at least one action");
  }
  if (!request.precombined.empty()) {
    if (request.precombined.size() != request.actions.size()) {
      return Status::InvalidArgument(
          "precombined features disagree with action set: " +
          std::to_string(request.precombined.size()) + " vs " +
          std::to_string(request.actions.size()));
    }
    for (const auto& combined : request.precombined) {
      if (combined == nullptr) {
        return Status::InvalidArgument("null precombined feature vector");
      }
    }
  }
  const EventId event{event_syms_.Intern(request.event_id)};
  if (event_index_.count(event) > 0) {
    return Status::InvalidArgument("duplicate event id: " + request.event_id);
  }
  LoggedEvent ev;
  ev.id = event;
  if (!request.precombined.empty()) {
    // Shared combined-feature cache hit: adopt the caller's vectors. The
    // probes and acting arm of one job all log the same shared_ptrs.
    ev.action_features = request.precombined;
    Counters().precombined_reused.Add(request.precombined.size());
  } else {
    ev.action_features.reserve(request.actions.size());
    for (const auto& action : request.actions) {
      ev.action_features.push_back(
          CombineFeaturesShared(request.context, action.features));
    }
    Counters().combines.Add(request.actions.size());
  }
  const size_t n = request.actions.size();
  size_t chosen;
  double probability;
  if (request.explore_uniform) {
    chosen = rng_.UniformInt(n);
    probability = 1.0 / static_cast<double>(n);
  } else {
    // The serving model may be a frozen snapshot (the advisor service's RCU
    // published model); the learner's own model is the offline default.
    size_t best = BestAction(
        serving_model != nullptr ? *serving_model : model_, ev, &rng_);
    if (rng_.Bernoulli(config_.epsilon)) {
      chosen = rng_.UniformInt(n);
    } else {
      chosen = best;
    }
    double uniform_part = config_.epsilon / static_cast<double>(n);
    probability = chosen == best ? (1.0 - config_.epsilon) + uniform_part
                                 : uniform_part;
  }
  ev.chosen = chosen;
  ev.probability = probability;
  event_index_[event] = log_base_ + log_.size();
  log_.push_back(std::move(ev));
  Counters().ranks.Add();
  CompactLog();

  RankResponse resp;
  resp.event_id = request.event_id;
  resp.event = event;
  resp.chosen_index = chosen;
  resp.chosen_action_id = request.actions[chosen].action_id;
  resp.probability = probability;
  return resp;
}

size_t PersonalizerService::BestAction(const CbModel& model,
                                       const LoggedEvent& ev,
                                       Rng* rng) const {
  constexpr double kTieTolerance = 1e-9;
  // Score every arm first, then run the selection loop over the scores.
  // Batch scores are bit-identical to Score() and the loop draws from `rng`
  // only on score comparisons, so scoring ahead leaves the RNG stream
  // unchanged.
  const std::vector<double> scores = model.ScoreBatch(ev.action_features);
  size_t best = 0;
  double best_score = -1e300;
  size_t ties = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const double s = scores[i];
    if (s > best_score + kTieTolerance) {
      best_score = s;
      best = i;
      ties = 1;
    } else if (rng != nullptr && s > best_score - kTieTolerance) {
      // Reservoir-sample among near-ties for uniform cold-start ranking.
      ++ties;
      if (rng->UniformInt(ties) == 0) best = i;
    }
  }
  return best;
}

Status PersonalizerService::Reward(const std::string& event_id,
                                   double reward) {
  // Find (not Intern): an id that was never ranked must not grow the table.
  const EventId event{event_syms_.Find(event_id)};
  if (!event.valid()) {
    Counters().reward_failures.Add();
    return Status::NotFound("unknown event id: " + event_id);
  }
  return Reward(event, reward);
}

Status PersonalizerService::Reward(EventId event, double reward) {
  QO_OBS_SPAN("reward");
  auto it = event_index_.find(event);
  if (it == event_index_.end()) {
    Counters().reward_failures.Add();
    return Status::NotFound(
        "unknown event id: " +
        (event.valid() ? event_syms_.Resolve(event.value) : "<invalid>"));
  }
  LoggedEvent& ev = log_[it->second - log_base_];
  if (ev.has_reward) {
    Counters().reward_failures.Add();
    return Status::FailedPrecondition("event already rewarded: " +
                                      event_syms_.Resolve(event.value));
  }
  ev.has_reward = true;
  ev.reward = reward;
  ++rewarded_;
  Counters().reward_joins.Add();
  // Queue for the next incremental retrain; the features stay shared with
  // the event log (and the Recommender's cache) — no copy.
  pending_.push_back({ev.action_features[ev.chosen], reward, ev.probability});
  if (rewarded_ - rewarded_at_last_train_ >= config_.retrain_interval) {
    Retrain();
  }
  return Status::OK();
}

void PersonalizerService::Retrain() {
  QO_OBS_SPAN("retrain");
  if (!pending_.empty()) {
    model_.Train(pending_);
    Counters().examples_trained.Add(pending_.size());
    // clear() keeps the batch buffer's capacity (bounded by the retrain
    // interval) so the next interval fills it without reallocating.
    pending_.clear();
  }
  Counters().retrains.Add();
  rewarded_at_last_train_ = rewarded_;
  CompactLog();
}

std::vector<LoggedExample> PersonalizerService::TakePendingBatch() {
  std::vector<LoggedExample> batch = std::move(pending_);
  pending_.clear();
  Counters().retrains.Add();
  Counters().examples_trained.Add(batch.size());
  rewarded_at_last_train_ = rewarded_;
  CompactLog();
  return batch;
}

void PersonalizerService::CompactLog() {
  if (config_.retention_window == 0) return;
  // The front of the window is always safe to drop: a rewarded event was
  // captured into pending_ at Reward time (training never rereads the log),
  // and an unrewarded event older than the window has exceeded the
  // reward-join horizon.
  while (log_.size() > config_.retention_window) {
    event_index_.erase(log_.front().id);
    log_.pop_front();
    ++log_base_;
    Counters().events_compacted.Add();
  }
}

Result<PersonalizerService::OfflineEvaluation>
PersonalizerService::EvaluateOffline() const {
  OfflineEvaluation eval;
  double ips_sum = 0.0;
  double logged_sum = 0.0;
  for (const LoggedEvent& ev : log_) {
    if (!ev.has_reward) continue;
    ++eval.events;
    logged_sum += ev.reward;
    // IPS: reward counts only when the target (greedy) policy agrees with
    // the logged action, re-weighted by the logging propensity.
    if (BestAction(model_, ev, nullptr) == ev.chosen) {
      ips_sum += ev.reward / std::max(ev.probability, 1e-6);
    }
  }
  if (eval.events == 0) {
    return Status::FailedPrecondition("no rewarded events to evaluate");
  }
  eval.logged_average_reward = logged_sum / static_cast<double>(eval.events);
  eval.policy_ips_estimate = ips_sum / static_cast<double>(eval.events);
  return eval;
}

}  // namespace qo::bandit
