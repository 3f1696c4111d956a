// The always-on advisor service: per-tenant steering state served to
// concurrent rank/reward/compile/upload traffic with RCU-style snapshot
// publication.
//
// Production QO-Advisor is not a batch job — it is a service the SCOPE
// compile path and the recommendation pipeline call continuously (paper
// Secs. 2.5, 4.2, 4.4). This layer reproduces that shape:
//
//  - Each tenant owns isolated state: a ScopeEngine (with its compile
//    cache), a PersonalizerService (learner + event log), and a
//    StatsInsightService (versioned hints). A short per-tenant mutex guards
//    the mutable learner/SIS state.
//  - Reads that must never wait on training go through an RCU snapshot: a
//    shared_ptr<const ServiceSnapshot> holding a frozen CbModel and an
//    immutable sis::SnapshotView, published through a SnapshotSlot whose
//    micro-mutex is held only for the pointer/refcount copy — never across
//    training, compilation or any other long work. Rank scores against the
//    snapshot model; Compile resolves hints against the snapshot view
//    without touching the tenant mutex (the engine is internally
//    synchronized).
//  - The retrain/ingest loop (background thread, or TrainAndPublish called
//    at points the owner picks) drains the pending reward batch and takes a
//    reference to the model under the tenant mutex, copies and trains it
//    OUTSIDE the mutex, then adopts + republishes under the mutex again —
//    the learner and the new snapshot share the one trained copy, so a
//    retrain writes the 1 MiB of weights once. Readers only ever contend
//    with those two short critical sections, never with training.
//
// Determinism: one tenant's request stream is served sequentially (the
// tenant mutex) and all cross-tenant state is either immutable or purely
// observational, so per-tenant output streams are byte-identical for any
// number of serving threads — asserted by bench/service_load.cc and
// tests/service_test.cc. Snapshot *timing* (which publication a given rank
// observes) is the one deliberately scheduling-dependent degree of freedom;
// the deterministic harnesses pin it by calling TrainAndPublish
// synchronously instead of enabling the background loop.
#ifndef QO_SERVICE_ADVISOR_SERVICE_H_
#define QO_SERVICE_ADVISOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bandit/cb_model.h"
#include "bandit/personalizer.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "service/advisor_api.h"
#include "service/advisor_options.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"

namespace qo::service {

/// One immutable publication of a tenant's serving state. Built by a writer
/// holding the tenant mutex, swapped into the tenant's SnapshotSlot, held
/// alive by whichever readers loaded it — classic RCU: writers swap in
/// successors without waiting for readers to drain, readers keep their
/// loaded snapshot valid via the shared_ptr refcount.
struct ServiceSnapshot {
  /// Publication number, monotonic per tenant (starts at 1).
  uint64_t sequence = 0;
  /// Retrain cycles folded into `model` (0 = cold-start model).
  uint64_t model_generation = 0;
  /// Frozen scorer (never null). Shared with the learner, which never
  /// writes a model it shares: a retrain trains a copy and adopts it.
  std::shared_ptr<const bandit::CbModel> model;
  /// Immutable hint view (never null; empty view before the first upload).
  std::shared_ptr<const sis::SnapshotView> hints;
  /// Integrity fingerprint over the fields above, computed at publish time.
  /// Readers recompute it to assert a snapshot is never observed
  /// half-published (tests/service_test.cc).
  uint64_t checksum = 0;

  /// The fingerprint `checksum` must equal.
  static uint64_t Fingerprint(const ServiceSnapshot& snap);
};

/// Per-tenant construction parameters for OpenTenant.
struct TenantConfig {
  bandit::PersonalizerConfig personalizer;
  sis::SisConfig sis;
  /// Borrow an existing engine (e.g. the experiment harness's, so hints
  /// steer the same cache production runs hit) instead of owning one built
  /// from AdvisorOptions. The borrowed engine must outlive the service.
  const engine::ScopeEngine* engine = nullptr;
  /// When true (default) the service owns retrain cadence: the learner's
  /// inline retrain-on-interval is disabled and models only advance through
  /// TrainAndPublish / the background loop. False keeps the offline
  /// pipeline's retrain-every-N-rewards behaviour (used by pipeline
  /// tenants, where RunPipelineDay drives the learner serially).
  bool service_owns_retrain = true;
  /// Config for the tenant's offline daily pipeline (RunPipelineDay).
  /// runtime/guard are overridden from AdvisorOptions — the service is the
  /// single env-snapshot authority. The personalizer field is ignored: the
  /// pipeline borrows the tenant's learner.
  advisor::PipelineConfig pipeline;
};

/// The publication point of a tenant's RCU snapshot. Semantically this is
/// std::atomic<std::shared_ptr<const ServiceSnapshot>>; it is implemented
/// over a dedicated micro-mutex instead because libstdc++'s _Sp_atomic
/// packs a spin-lock bit into the refcount word, which ThreadSanitizer
/// cannot model (every load/store pair reports a false race and the TSAN CI
/// leg goes permanently red). The mutex is held only for the
/// pointer+refcount copy — a handful of nanoseconds, never across training
/// or compilation — so the property the design needs survives: a reader
/// can momentarily contend with a pointer swap, but never waits on a
/// writer's real work.
class SnapshotSlot {
 public:
  std::shared_ptr<const ServiceSnapshot> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<const ServiceSnapshot> next) {
    std::shared_ptr<const ServiceSnapshot> prev;
    {
      std::lock_guard<std::mutex> lock(mu_);
      prev = std::move(ptr_);
      ptr_ = std::move(next);
    }
    // `prev` dies here, outside the lock: dropping the last reference frees
    // a whole model copy and must not extend the critical section.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServiceSnapshot> ptr_;
};

class AdvisorService;

/// A tenant-bound handle over the AdvisorApi: fills in the tenant field,
/// exposes the tenant's snapshot and (read-only) subsystems. Copyable and
/// cheap — it is a (service, tenant-name) pair, not a resource. This is the
/// entry point that replaces hand-wiring ScopeEngine::CompileShared +
/// PersonalizerService::Rank/Reward + StatsInsightService uploads.
class TenantSession {
 public:
  TenantSession() = default;

  const std::string& tenant() const { return tenant_; }
  bool valid() const { return service_ != nullptr; }

  /// AdvisorApi calls with the tenant field filled from this session.
  /// Rank and UploadHints read the request in place (its tenant field is
  /// ignored): Rank's one copy of the features is the one the service logs,
  /// and UploadHints copies nothing.
  Result<RankResponse> Rank(const RankRequest& request);
  Result<RewardResponse> Reward(RewardRequest request);
  Result<CompileResponse> Compile(CompileRequest request);
  Result<UploadHintsResponse> UploadHints(const UploadHintsRequest& request);

  /// Payload-level conveniences over the request structs above.
  Result<RewardResponse> Reward(bandit::EventId event, double reward);
  Result<CompileResponse> Compile(const workload::JobInstance& job,
                                  bool apply_hints = true);
  Result<UploadHintsResponse> UploadHints(const sis::HintFile& file);

  /// Runs one day of the offline recommendation pipeline (feature gen ->
  /// bandit -> flighting -> validation -> hint gen -> SIS) against this
  /// tenant's learner and SIS, then republishes the snapshot so serving
  /// traffic sees the new hints/model. Serialized by the tenant mutex.
  Result<advisor::PipelineDayReport> RunPipelineDay(
      const telemetry::WorkloadView& view);

  /// One synchronous retrain/publish cycle; false when nothing was pending.
  bool TrainAndPublish();

  /// The tenant's current RCU snapshot (pointer-copy load, never null).
  std::shared_ptr<const ServiceSnapshot> snapshot() const;

  /// The tenant's engine — for executing compilations returned by
  /// Compile(). Internally synchronized; safe to use concurrently.
  const engine::ScopeEngine& engine() const;
  /// Read-only view of the tenant's SIS (live state, not the snapshot).
  /// Safe only while no concurrent writer runs; concurrent readers should
  /// use snapshot()->hints instead.
  const sis::StatsInsightService& sis() const;
  /// The tenant's offline pipeline — null until the first RunPipelineDay.
  /// Same single-writer caveat as sis(): for post-run inspection (guard
  /// telemetry, validation samples), not concurrent access.
  advisor::QoAdvisorPipeline* pipeline() const;

 private:
  friend class AdvisorService;
  TenantSession(AdvisorService* service, std::string tenant)
      : service_(service), tenant_(std::move(tenant)) {}

  AdvisorService* service_ = nullptr;
  std::string tenant_;
};

/// The service. Construct once per process (or test) from an AdvisorOptions
/// snapshot, open tenants, then serve AdvisorApi traffic from any number of
/// threads. All four API calls are safe to issue concurrently with each
/// other and with the retrain loop.
class AdvisorService : public AdvisorApi {
 public:
  explicit AdvisorService(AdvisorOptions options = AdvisorOptions::Defaults());
  /// Stops the background trainer and drops all tenants.
  ~AdvisorService() override;
  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// Creates the tenant (idempotent-hostile: AlreadyExists on reopen) and
  /// returns a bound session. Publishes the tenant's initial snapshot
  /// (sequence 1: cold model, empty hint view) before returning, so readers
  /// never observe a null snapshot.
  Result<TenantSession> OpenTenant(const std::string& tenant,
                                   TenantConfig config = {});
  /// A session for an already-open tenant; NotFound otherwise.
  Result<TenantSession> Session(const std::string& tenant);

  // AdvisorApi — routed by request.tenant.
  Result<RankResponse> Rank(const RankRequest& request) override;
  Result<RewardResponse> Reward(const RewardRequest& request) override;
  Result<CompileResponse> Compile(const CompileRequest& request) override;
  Result<UploadHintsResponse> UploadHints(
      const UploadHintsRequest& request) override;

  /// The tenant's current snapshot (never null for an open tenant; null for
  /// unknown tenants).
  std::shared_ptr<const ServiceSnapshot> CurrentSnapshot(
      const std::string& tenant) const;

  /// One retrain/publish cycle for one tenant: drain the batch under the
  /// tenant mutex, copy and train the model outside it, adopt + publish
  /// under it again.
  /// Returns false when no rewards were pending (nothing published).
  bool TrainAndPublish(const std::string& tenant);
  /// TrainAndPublish over every open tenant; returns how many published.
  size_t TrainAndPublishAll();

  /// Starts the background retrain/ingest loop at `period` (idempotent).
  /// The loop calls TrainAndPublishAll between waits; snapshot timing then
  /// depends on scheduling, so deterministic harnesses leave this off.
  void StartBackgroundTrainer(std::chrono::milliseconds period);
  void StopBackgroundTrainer();
  bool background_trainer_running() const { return trainer_.joinable(); }

  Result<advisor::PipelineDayReport> RunPipelineDay(
      const std::string& tenant, const telemetry::WorkloadView& view);

  const AdvisorOptions& options() const { return options_; }
  /// Open tenant names, sorted.
  std::vector<std::string> tenants() const;

 private:
  friend class TenantSession;

  struct TenantState {
    std::string name;
    TenantConfig config;
    /// Owned engine (null when config.engine borrows the caller's).
    std::unique_ptr<engine::ScopeEngine> owned_engine;
    const engine::ScopeEngine* engine = nullptr;
    /// Guards sis/personalizer/pipeline and snapshot *publication* (readers
    /// load the snapshot lock-free; only writers serialize here).
    std::mutex mu;
    sis::StatsInsightService sis;
    bandit::PersonalizerService personalizer;
    /// Lazily built on first RunPipelineDay (borrows engine/personalizer/
    /// sis above).
    std::unique_ptr<advisor::QoAdvisorPipeline> pipeline;
    /// The RCU publication point (micro-mutex inside; see SnapshotSlot).
    /// Stores happen under mu; loads take only the slot's own lock.
    SnapshotSlot snapshot;
    uint64_t publications = 0;      ///< == last published sequence
    uint64_t model_generation = 0;  ///< retrains folded into the learner

    TenantState(std::string tenant_name, TenantConfig cfg);
  };

  TenantState* FindTenant(const std::string& tenant) const;
  /// Rank for `tenant`, whatever request.tenant says.
  Result<RankResponse> RankTenant(const std::string& tenant,
                                  const RankRequest& request);
  /// UploadHints for `tenant`, whatever a request's tenant says, reading
  /// the hint file by reference.
  Result<UploadHintsResponse> UploadHintsTenant(const std::string& tenant,
                                                const sis::HintFile& file);
  /// Builds + release-publishes the next snapshot from the tenant's live
  /// state. Caller holds t.mu.
  void PublishLocked(TenantState& t);
  void TrainerLoop(std::chrono::milliseconds period);

  AdvisorOptions options_;
  mutable std::shared_mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  // Background retrain/ingest loop.
  std::thread trainer_;
  std::mutex trainer_mu_;
  std::condition_variable trainer_cv_;
  bool trainer_stop_ = false;

  // Cached registry metrics (stable pointers; see obs/metrics.h). Purely
  // observational.
  obs::Counter* rank_requests_;
  obs::Counter* reward_requests_;
  obs::Counter* compile_requests_;
  obs::Counter* hint_uploads_;
  obs::Counter* publications_;
  obs::Histogram* rank_ns_;
  obs::Histogram* reward_ns_;
  obs::Histogram* compile_ns_;
  obs::Histogram* request_ns_;
};

}  // namespace qo::service

#endif  // QO_SERVICE_ADVISOR_SERVICE_H_
