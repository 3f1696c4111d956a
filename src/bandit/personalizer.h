// A local stand-in for the Azure Personalizer service (paper Sec. 4.2 /
// Sec. 6 "Do not reinvent the wheel").
//
// Exposes the same contract QO-Advisor depends on:
//  - Rank(context, actions) -> (chosen action, probability, event id),
//  - Reward(event id, reward) joined against a high-fidelity event log,
//  - periodic retraining of the underlying contextual bandit model,
//  - counterfactual (IPS) evaluation of a policy over the logged data.
//
// Training is incremental: a rewarded event's chosen-arm vector moves
// (by shared_ptr, no copy) into a pending batch at Reward time, and
// Retrain() consumes only that batch — the event log is never rescanned.
// The log itself is bounded by a retention policy (see
// PersonalizerConfig::retention_window): one service instance can run for
// an unbounded number of pipeline days in constant memory, event ids
// included.
//
// Rank materializes only the chosen arm. A greedy rank combines each arm
// into a per-thread buffer that is reused across calls and scores it
// there; only the chosen arm is copied out into a shared SparseVector for
// the pending batch. An explore_uniform rank combines just the arm it
// picked. The log keeps one immutable, shared copy
// of what the call saw (RankInputs) plus that one vector, and
// EvaluateOffline recombines the other arms from the logged inputs.
//
// Rank traffic, combines, reward joins, retrains and compactions are counted
// into the process-wide obs registry (bandit.*), summed over every service
// instance; the service keeps no counters of its own.
#ifndef QO_BANDIT_PERSONALIZER_H_
#define QO_BANDIT_PERSONALIZER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bandit/cb_model.h"
#include "bandit/features.h"
#include "common/rng.h"
#include "common/status.h"

namespace qo::bandit {

/// One rankable action.
struct RankableAction {
  std::string action_id;
  FeatureVector features;
};

/// Typed event identity: the event's global index in its service's log
/// (0-based, in Rank order), carried through RankResponse back into the
/// reward join. A typed Reward() is a range check against the resident
/// window — no hashing, no map probe — and an index the log has compacted
/// away falls out of the window (NotFound). The string form survives only
/// for request construction, the string join and error messages.
struct EventId {
  static constexpr uint64_t kInvalid = ~uint64_t{0};
  uint64_t index = kInvalid;

  bool valid() const { return index != kInvalid; }
  friend bool operator==(EventId, EventId) = default;
};

/// What one Rank call saw: the context and the action set; the service
/// combines (context x action) itself. Immutable once built and shared by
/// pointer: the event log keeps it — not a copy — so EvaluateOffline can
/// rescore every arm, and a caller that ranks one job several times (the
/// Recommender's uniform probes and acting arm) logs one copy for all of
/// its calls.
struct RankInputs {
  FeatureVector context;
  std::vector<RankableAction> actions;
};

struct RankRequest {
  std::string event_id;
  /// Required: the features to rank (see RankInputs).
  std::shared_ptr<const RankInputs> inputs;
  /// When true, the service ranks uniformly at random regardless of the
  /// model — the logging arm of the paper's off-policy design (Sec. 4.2).
  bool explore_uniform = false;
};

struct RankResponse {
  std::string event_id;
  /// Typed id for the reward join: Reward(event) is a range check on the
  /// event index, no string hashing. Always valid on an OK response.
  EventId event;
  size_t chosen_index = 0;
  std::string chosen_action_id;
  double probability = 1.0;  ///< propensity of the chosen action
};

struct PersonalizerConfig {
  /// Exploration rate of the learned policy (epsilon-greedy).
  double epsilon = 0.10;
  CbModelConfig model = {};
  uint64_t seed = 7;
  /// Retrain after this many new rewarded events.
  size_t retrain_interval = 256;
  /// Retention policy: keep at most this many events resident in the log
  /// (0 = unlimited). When the log grows past the window the oldest events
  /// are dropped: rewarded events have already been captured for training
  /// (and consumed by any intervening retrain), and unrewarded events past
  /// the window have exceeded the reward-join horizon — a later Reward()
  /// for them returns NotFound, as a production join window would.
  /// EvaluateOffline() evaluates over the retained window.
  size_t retention_window = 16384;
};

/// The model's score for every arm of `inputs`, in arm order, computed as
/// Rank computes them: each arm combined into this thread's reusable
/// buffers. Each score is bit-identical to CbModel::Score on
/// CombineFeatures(context, action).
std::vector<double> ScoreArms(const CbModel& model, const RankInputs& inputs);

/// The service. Thread-compatible, not thread-safe (matches the offline
/// daily-pipeline usage).
/// Thread-safety: Rank/Reward/Retrain mutate the event log, the learning
/// state and a shared Rng, and a retrain between two Rank calls changes
/// every later choice — so the runtime never fans these out. The parallel
/// recommendation path pre-evaluates recompilations concurrently and keeps
/// all Personalizer traffic on the committing thread, in submission order.
/// Ranks combine into buffers owned by the calling thread, so instances
/// guarded by different mutexes (the advisor service's tenants) rank
/// concurrently without sharing scratch state. The model is shared
/// read-only with whoever holds shared_model(); Retrain trains a private
/// copy while it is shared.
class PersonalizerService {
 public:
  explicit PersonalizerService(PersonalizerConfig config = {});
  /// Not copyable or movable: the event-id map views strings inside the
  /// log's elements.
  PersonalizerService(const PersonalizerService&) = delete;
  PersonalizerService& operator=(const PersonalizerService&) = delete;

  /// Ranks the actions; logs the decision for later reward joining.
  /// InvalidArgument when the request has no inputs or no actions, or an
  /// event id still resident in the log.
  ///
  /// `serving_model` overrides the model used for scoring (epsilon-greedy
  /// argmax) without touching the learning state — the advisor service
  /// passes its published RCU snapshot's model here, so ranking reads a
  /// frozen model while the trainer works on the next one. Null scores with
  /// the learner's own model (the offline pipeline's behaviour).
  /// Layering: service::TenantSession::Rank calls this with its snapshot.
  Result<RankResponse> Rank(const RankRequest& request,
                            const CbModel* serving_model = nullptr);

  /// Attaches a reward to a previously ranked event and moves the chosen
  /// arm's vector into the pending batch for the next incremental retrain.
  /// NotFound for unknown (or retention-expired) event ids;
  /// FailedPrecondition for already-rewarded events. The typed-id overload
  /// is the hot join: a range check on the event index, no hashing.
  Status Reward(EventId event, double reward);
  /// String-keyed join: prefer carrying RankResponse::event through to
  /// Reward(EventId) — this overload pays a string hash to recover the
  /// typed id from the resident events' id map.
  Status Reward(const std::string& event_id, double reward);

  /// Trains the model on the examples rewarded since the last retrain (the
  /// pending batch), then compacts the event log per the retention policy.
  void Retrain();

  /// Moves out the pending batch without training, advancing the retrain
  /// watermark and compacting the log. The advisor service's trainer drains
  /// the batch under the tenant lock, trains a model copy outside it, and
  /// publishes the result as a new snapshot — Retrain() is equivalent to
  /// TakePendingBatch + Train + AdoptModel in one (single-threaded) step.
  std::vector<LoggedExample> TakePendingBatch();

  /// Replaces the learner's model (the write-back half of the service
  /// trainer's drain/train/publish cycle). The pointer is adopted, not
  /// copied.
  void AdoptModel(std::shared_ptr<CbModel> model) { model_ = std::move(model); }

  /// Counterfactual IPS estimate of the *current greedy policy*'s average
  /// reward over the retained log window, and of the logging baseline.
  /// Requires at least one retained rewarded event.
  struct OfflineEvaluation {
    double logged_average_reward = 0.0;
    double policy_ips_estimate = 0.0;
    size_t events = 0;
  };
  Result<OfflineEvaluation> EvaluateOffline() const;

  /// Total events ever logged (monotonic, unaffected by retention).
  size_t logged_events() const { return log_base_ + log_.size(); }
  /// Events currently resident in the log (bounded by retention_window).
  size_t resident_events() const { return log_.size(); }
  /// Event ids the string join can resolve: those of resident events only,
  /// so this is bounded by retention_window too.
  size_t indexed_event_ids() const { return event_index_.size(); }
  size_t rewarded_events() const { return rewarded_; }
  const CbModel& model() const { return *model_; }
  /// The learner's model, shared read-only (the advisor service publishes
  /// it in its snapshot without copying the weights).
  std::shared_ptr<const CbModel> shared_model() const { return model_; }
  const PersonalizerConfig& config() const { return config_; }

 private:
  /// One ranked event: the shared inputs, the chosen arm's vector and the
  /// decision.
  struct LoggedEvent {
    /// The event id; event_index_'s keys view this string (deque elements
    /// never move while resident).
    std::string id;
    std::shared_ptr<const RankInputs> inputs;
    /// The chosen arm's combined vector, until Reward moves it into the
    /// pending batch.
    std::shared_ptr<const SparseVector> chosen_features;
    size_t chosen = 0;
    double probability = 1.0;
    bool has_reward = false;
    double reward = 0.0;
  };

  /// Drops the oldest events (and their ids) while the log exceeds
  /// retention_window.
  void CompactLog();
  /// The model to train: the learner's own, copied first while it is
  /// shared (a published snapshot must never see its weights change).
  CbModel& MutableModel();

  PersonalizerConfig config_;
  std::shared_ptr<CbModel> model_;
  Rng rng_;
  /// Event log as a sliding window: log_[k] has global index log_base_ + k,
  /// which is also its EventId.
  std::deque<LoggedEvent> log_;
  size_t log_base_ = 0;
  /// Event id -> global index, for resident events only: compaction erases
  /// an event's id with the event, so ids never outgrow the window.
  std::unordered_map<std::string_view, size_t> event_index_;
  /// Examples rewarded since the last retrain.
  std::vector<LoggedExample> pending_;
  size_t rewarded_ = 0;
  size_t rewarded_at_last_train_ = 0;
};

}  // namespace qo::bandit

#endif  // QO_BANDIT_PERSONALIZER_H_
