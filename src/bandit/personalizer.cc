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

/// This thread's combine buffers, one per arm, grown to `arms`. Combining
/// an arm into its buffer reuses the buffer's capacity, so scoring an
/// inline request allocates nothing in steady state.
std::vector<SparseVector>& ArmBuffers(size_t arms) {
  thread_local std::vector<SparseVector> buffers;
  if (buffers.size() < arms) buffers.resize(arms);
  return buffers;
}

/// Calls fn(i, score) for every arm of `inputs` in arm order (see
/// ScoreArms): precombined arms score in one interleaved batch, inline arms
/// are combined into this thread's arm buffers (left holding them for the
/// caller) and scored from there.
template <typename Fn>
void ScoreEachArm(const CbModel& model, const RankInputs& inputs, Fn&& fn) {
  if (!inputs.precombined.empty()) {
    const std::vector<double> scores = model.ScoreBatch(inputs.precombined);
    for (size_t i = 0; i < scores.size(); ++i) fn(i, scores[i]);
    return;
  }
  std::vector<SparseVector>& arms = ArmBuffers(inputs.actions.size());
  for (size_t i = 0; i < inputs.actions.size(); ++i) {
    CombineFeaturesInto(inputs.context, inputs.actions[i].features, &arms[i]);
    fn(i, model.Score(arms[i]));
  }
}

/// Greedy argmax of `inputs`' arms under `model`. Near-ties are broken
/// uniformly at random when `rng` is provided — an untrained model
/// therefore ranks uniformly-at-random, exactly the CB cold-start behaviour
/// the paper describes (Sec. 3.1). Pass nullptr for deterministic
/// (first-wins) selection, used by offline evaluation. `rng` is drawn from
/// only on score comparisons, in arm order.
size_t BestAction(const CbModel& model, const RankInputs& inputs, Rng* rng) {
  constexpr double kTieTolerance = 1e-9;
  size_t best = 0;
  double best_score = -1e300;
  size_t ties = 0;
  ScoreEachArm(model, inputs, [&](size_t i, double s) {
    if (s > best_score + kTieTolerance) {
      best_score = s;
      best = i;
      ties = 1;
    } else if (rng != nullptr && s > best_score - kTieTolerance) {
      // Reservoir-sample among near-ties for uniform cold-start ranking.
      ++ties;
      if (rng->UniformInt(ties) == 0) best = i;
    }
  });
  return best;
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

std::vector<double> ScoreArms(const CbModel& model, const RankInputs& inputs) {
  std::vector<double> scores(inputs.actions.size());
  ScoreEachArm(model, inputs, [&](size_t i, double s) { scores[i] = s; });
  return scores;
}

PersonalizerService::PersonalizerService(PersonalizerConfig config)
    : config_(config),
      model_(std::make_shared<CbModel>(config.model)),
      rng_(config.seed) {
  Counters();  // register the series: they read 0 until the first event
}

Result<RankResponse> PersonalizerService::Rank(const RankRequest& request,
                                               const CbModel* serving_model) {
  QO_OBS_SPAN("rank");
  const RankInputs* inputs = request.inputs.get();
  if (inputs == nullptr || inputs->actions.empty()) {
    return Status::InvalidArgument("Rank requires at least one action");
  }
  const size_t n = inputs->actions.size();
  const bool precombined = !inputs->precombined.empty();
  if (precombined) {
    if (inputs->precombined.size() != n) {
      return Status::InvalidArgument(
          "precombined features disagree with action set: " +
          std::to_string(inputs->precombined.size()) + " vs " +
          std::to_string(n));
    }
    for (const auto& combined : inputs->precombined) {
      if (combined == nullptr) {
        return Status::InvalidArgument("null precombined feature vector");
      }
    }
  }
  if (event_index_.count(request.event_id) > 0) {
    return Status::InvalidArgument("duplicate event id: " + request.event_id);
  }
  size_t chosen;
  double probability;
  if (request.explore_uniform) {
    chosen = rng_.UniformInt(n);
    probability = 1.0 / static_cast<double>(n);
  } else {
    // The serving model may be a frozen snapshot (the advisor service's RCU
    // published model); the learner's own model is the offline default.
    size_t best = BestAction(
        serving_model != nullptr ? *serving_model : *model_, *inputs, &rng_);
    if (rng_.Bernoulli(config_.epsilon)) {
      chosen = rng_.UniformInt(n);
    } else {
      chosen = best;
    }
    double uniform_part = config_.epsilon / static_cast<double>(n);
    probability = chosen == best ? (1.0 - config_.epsilon) + uniform_part
                                 : uniform_part;
  }
  LoggedEvent& ev = log_.emplace_back();
  ev.id = request.event_id;
  ev.inputs = request.inputs;
  ev.chosen = chosen;
  ev.probability = probability;
  if (precombined) {
    // Shared combined-feature cache hit: log the caller's vector. The
    // probes and acting arm of one job all log the same shared_ptrs.
    ev.chosen_features = inputs->precombined[chosen];
    Counters().precombined_reused.Add(n);
  } else if (request.explore_uniform) {
    ev.chosen_features = CombineFeaturesShared(
        inputs->context, inputs->actions[chosen].features);
    Counters().combines.Add();
  } else {
    // BestAction left every arm in this thread's buffers: copy out the
    // chosen one, the only arm that outlives the call.
    ev.chosen_features =
        std::make_shared<const SparseVector>(ArmBuffers(n)[chosen]);
    Counters().combines.Add(n);
  }
  const EventId event{log_base_ + log_.size() - 1};
  event_index_.emplace(ev.id, event.index);
  Counters().ranks.Add();

  RankResponse resp;
  resp.event_id = request.event_id;
  resp.event = event;
  resp.chosen_index = chosen;
  resp.chosen_action_id = inputs->actions[chosen].action_id;
  resp.probability = probability;
  CompactLog();
  return resp;
}

Status PersonalizerService::Reward(const std::string& event_id,
                                   double reward) {
  auto it = event_index_.find(event_id);
  if (it == event_index_.end()) {
    Counters().reward_failures.Add();
    return Status::NotFound("unknown event id: " + event_id);
  }
  return Reward(EventId{it->second}, reward);
}

Status PersonalizerService::Reward(EventId event, double reward) {
  QO_OBS_SPAN("reward");
  if (!event.valid() || event.index < log_base_ ||
      event.index - log_base_ >= log_.size()) {
    Counters().reward_failures.Add();
    return Status::NotFound(
        event.valid()
            ? "unknown or expired event #" + std::to_string(event.index)
            : std::string("invalid event id"));
  }
  LoggedEvent& ev = log_[event.index - log_base_];
  if (ev.has_reward) {
    Counters().reward_failures.Add();
    return Status::FailedPrecondition("event already rewarded: " + ev.id);
  }
  ev.has_reward = true;
  ev.reward = reward;
  ++rewarded_;
  Counters().reward_joins.Add();
  // Queue for the next incremental retrain. The vector moves: nothing reads
  // a rewarded event's chosen vector from the log again (EvaluateOffline
  // rescores from the logged inputs).
  pending_.push_back({std::move(ev.chosen_features), reward, ev.probability});
  if (rewarded_ - rewarded_at_last_train_ >= config_.retrain_interval) {
    Retrain();
  }
  return Status::OK();
}

CbModel& PersonalizerService::MutableModel() {
  if (model_.use_count() > 1) model_ = std::make_shared<CbModel>(*model_);
  return *model_;
}

void PersonalizerService::Retrain() {
  QO_OBS_SPAN("retrain");
  if (!pending_.empty()) {
    MutableModel().Train(pending_);
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
    if (BestAction(*model_, *ev.inputs, nullptr) == ev.chosen) {
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
