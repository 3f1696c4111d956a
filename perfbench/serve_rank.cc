// serve_rank: rank + reward in closed-loop segments (see open_loop.h). Each
// request ranks the (1+S) flip actions of a real featurized recurring job
// (contexts from JobFeatures::ToContext(), actions as the Recommender builds
// them), then rewards the chosen action with the reward the Recommender's
// recompilation gives that flip. The contexts and the reward table are built
// at setup; after setup the optimizer does no work. 6 tenants over 3
// workers, plus a trainer thread that retrains and publishes a tenant's
// snapshot after every kRetrainEvery joined rewards of that tenant while
// ranks read it.
//
// Every response is checked: status OK, chosen index in range, propensity
// in (0, 1], snapshot sequence never decreasing for a tenant, and a reward
// join for every rank.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bandit/features.h"
#include "common/hash.h"
#include "core/feature_gen.h"
#include "core/recommend.h"
#include "experiments/experiments.h"
#include "service/advisor_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qo;  // NOLINT

constexpr int kTenants = 6;
/// Fig10-shaped workloads (each on its own sub-seed of the workload seed)
/// whose first day is featurized at setup: many template sets, so one run
/// averages over them.
constexpr int kFeatureWorkloads = 24;
/// Joined rewards of a tenant between two retrains: the fig10 experiment's
/// PersonalizerConfig::retrain_interval. The service's background trainer
/// has no default period (0 leaves retraining to the owner), so the
/// benchmark retrains on this reward cadence, off the serving threads.
constexpr uint64_t kRetrainEvery = 128;
/// Set-ups timed for setup_s (the median is reported), the first from
/// process start.
constexpr int kSetups = 5;
/// Near a quarter and two thirds of the closed-loop throughput measured on
/// a 4-vCPU x86-64 virtual machine (about 30000 requests/s); the ladder
/// spans an eighth to 1.5 times it.
constexpr RatePlan kRates{.low_qps = 7500,
                          .high_qps = 20000,
                          .ladder_lo = 3700,
                          .ladder_hi = 45000};

struct Context {
  bandit::FeatureVector features;
  std::vector<bandit::RankableAction> actions;
  std::vector<double> rewards;  ///< per action
};

/// Featurizes day 0 of one fig10-shaped workload and scores every flip.
std::vector<Context> BuildWorkloadContexts(uint64_t seed, Digest* digest) {
  experiments::ExperimentConfig config;
  config.num_templates = 90;
  config.jobs_per_day = 150;
  config.seed = seed;
  config.threads = kServeWorkers;
  experiments::ExperimentEnv env(config);
  bandit::PersonalizerService scratch({.seed = 17});
  advisor::Recommender recommender(&env.engine(), &scratch, {});

  telemetry::WorkloadView view = env.BuildDayView(0);
  telemetry::WorkloadView recurring;
  for (auto& row : view.rows) {
    if (row.recurring) recurring.rows.push_back(std::move(row));
  }
  // One context per recurring template: requests then spread over the
  // templates evenly instead of over a day's few most popular ones, so a
  // run averages over many context shapes.
  std::vector<advisor::JobFeatures> jobs;
  std::set<int> seen;
  for (auto& f : advisor::GenerateFeatures(env.engine(), recurring, nullptr,
                                           env.runtime())) {
    if (f.span.Count() > 0 && seen.insert(f.row.template_id).second) {
      jobs.push_back(std::move(f));
    }
  }
  std::vector<Context> contexts = env.runtime()->TransformOrdered<Context>(
      jobs.size(),
      [&](size_t i) { return static_cast<uint64_t>(jobs[i].row.template_id); },
      [](size_t i) { return static_cast<double>(i); },
      [&](size_t i) {
        const advisor::JobFeatures& f = jobs[i];
        Context c;
        c.features = bandit::BuildContextFeatures(f.ToContext());
        bandit::RankableAction noop;
        noop.action_id = "noop";
        noop.features = bandit::BuildActionFeatures(-1, /*is_noop=*/true);
        c.actions.push_back(std::move(noop));
        c.rewards.push_back(recommender.EvaluateFlip(f, -1).reward);
        for (int bit : f.span.Positions()) {
          bandit::RankableAction a;
          a.action_id = "flip_" + std::to_string(bit);
          a.features = bandit::BuildActionFeatures(bit, /*is_noop=*/false);
          c.actions.push_back(std::move(a));
          c.rewards.push_back(recommender.EvaluateFlip(f, bit).reward);
        }
        return c;
      });
  for (size_t i = 0; i < contexts.size(); ++i) {
    char line[96];
    std::snprintf(line, sizeof(line), "%s %zu %zu", jobs[i].row.job_id.c_str(),
                  contexts[i].features.size(), contexts[i].actions.size());
    digest->AddLine(line);
    for (double r : contexts[i].rewards) digest->AddLine(std::to_string(r));
  }
  return contexts;
}

/// Contexts of kFeatureWorkloads workloads, each on its own sub-seed.
std::vector<Context> BuildContexts(uint64_t seed, Digest* digest) {
  std::vector<Context> contexts;
  for (int w = 0; w < kFeatureWorkloads; ++w) {
    const uint64_t sub_seed =
        w == 0 ? seed
               : MixHash(seed ^ (0x2545f491ULL * static_cast<uint64_t>(w)));
    for (Context& c : BuildWorkloadContexts(sub_seed, digest)) {
      contexts.push_back(std::move(c));
    }
  }
  return contexts;
}

class RankTarget : public Target {
 public:
  RankTarget(uint64_t seed, const std::vector<Context>* contexts)
      : seed_(seed), contexts_(contexts) {}

  /// Fresh service and tenants, and the trainer thread.
  void Begin(uint64_t first, uint64_t count, bool traced) {
    service_ = std::make_unique<service::AdvisorService>(
        service::AdvisorOptions::FromEnv());
    sessions_.clear();
    requests_.clear();
    last_sequence_.assign(kTenants, 0);
    joined_.assign(kTenants, 0);
    for (int t = 0; t < kTenants; ++t) {
      const std::string name = "tenant_" + std::to_string(t);
      sessions_.push_back(*service_->OpenTenant(name));
      std::vector<service::RankRequest> per_context;
      for (const Context& c : *contexts_) {
        service::RankRequest req;
        req.tenant = name;
        req.context = c.features;
        req.actions = c.actions;
        per_context.push_back(std::move(req));
      }
      requests_.push_back(std::move(per_context));
    }
    first_ = first;
    traced_ = traced;
    problems_.assign(count, std::string());
    for (auto& v : rank_us_) v.clear();
    for (auto& v : reward_us_) v.clear();
    stop_ = false;
    retrains_ = 0;
    retrain_ms_ = 0.0;
    trainer_ = std::thread([this] { TrainerLoop(); });
  }

  void End() {
    {
      std::lock_guard<std::mutex> lock(train_mu_);
      stop_ = true;
    }
    train_cv_.notify_one();
    trainer_.join();
    // Flush: every joined reward ends up in a trained model.
    service_->TrainAndPublishAll();
    sessions_.clear();
    service_.reset();
  }

  bool Serve(uint64_t index) override {
    const size_t k = static_cast<size_t>(index - first_);
    const int tenant = static_cast<int>(index % kTenants);
    const int worker = static_cast<int>(index % kServeWorkers);
    const size_t ctx =
        static_cast<size_t>(MixHash(seed_ ^ (index * 0x9e3779b97f4a7c15ULL)) %
                            contexts_->size());
    service::RankRequest& req =
        requests_[static_cast<size_t>(tenant)][ctx];
    req.event_id = std::to_string(index);
    const uint64_t t0 = traced_ ? NowNs() : 0;
    auto ranked = service_->Rank(req);
    const uint64_t t1 = traced_ ? NowNs() : 0;
    if (!ranked.ok()) {
      problems_[k] = "rank status " + ranked.status().ToString();
      return false;
    }
    const Context& c = (*contexts_)[ctx];
    if (ranked->chosen_index >= c.actions.size()) {
      problems_[k] = "chosen index out of range";
      return false;
    }
    if (!(ranked->probability > 0.0 && ranked->probability <= 1.0)) {
      problems_[k] = "propensity outside (0, 1]";
      return false;
    }
    uint64_t& last = last_sequence_[static_cast<size_t>(tenant)];
    if (ranked->snapshot_sequence < last) {
      problems_[k] = "snapshot sequence went backwards";
      return false;
    }
    last = ranked->snapshot_sequence;
    auto rewarded = sessions_[static_cast<size_t>(tenant)].Reward(
        ranked->event, c.rewards[ranked->chosen_index]);
    if (traced_) {
      rank_us_[worker].push_back(static_cast<double>(t1 - t0) * 1e-3);
      reward_us_[worker].push_back(static_cast<double>(NowNs() - t1) * 1e-3);
    }
    if (!rewarded.ok()) {
      problems_[k] = "reward join " + rewarded.status().ToString();
      return false;
    }
    if (++joined_[static_cast<size_t>(tenant)] % kRetrainEvery == 0) {
      {
        std::lock_guard<std::mutex> lock(train_mu_);
        due_.push_back(tenant);
      }
      train_cv_.notify_one();
    }
    return true;
  }

  void CheckInto(Report* report) const {
    for (size_t k = 0; k < problems_.size(); ++k) {
      if (!problems_[k].empty()) {
        report->violations.push_back("serve_rank request " +
                                     std::to_string(first_ + k) + ": " +
                                     problems_[k]);
      }
    }
  }

  std::vector<double> RankUs() const { return Flatten(rank_us_); }
  std::vector<double> RewardUs() const { return Flatten(reward_us_); }
  /// Publications by the trainer thread in the last segment, and their
  /// wall time when traced; final once End() returns.
  uint64_t retrains() const { return retrains_; }
  double retrain_ms() const { return retrain_ms_; }

 private:
  static std::vector<double> Flatten(
      const std::vector<double> (&per_worker)[kServeWorkers]) {
    std::vector<double> all;
    for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  /// Retrains and publishes each tenant whose retrain fell due, in order;
  /// after End() asks it to stop, it finishes the due ones and returns.
  void TrainerLoop() {
    std::unique_lock<std::mutex> lock(train_mu_);
    for (;;) {
      train_cv_.wait(lock, [&] { return stop_ || !due_.empty(); });
      if (due_.empty()) return;
      std::vector<int> due;
      due.swap(due_);
      lock.unlock();
      for (int tenant : due) {
        const uint64_t t0 = traced_ ? NowNs() : 0;
        if (sessions_[static_cast<size_t>(tenant)].TrainAndPublish()) {
          ++retrains_;
        }
        if (traced_) retrain_ms_ += static_cast<double>(NowNs() - t0) * 1e-6;
      }
      lock.lock();
    }
  }

  uint64_t seed_;
  const std::vector<Context>* contexts_;
  std::unique_ptr<service::AdvisorService> service_;
  std::vector<service::TenantSession> sessions_;
  /// Prebuilt requests per tenant and context; only the tenant's worker
  /// touches its row.
  std::vector<std::vector<service::RankRequest>> requests_;
  std::vector<uint64_t> last_sequence_;
  /// Joined rewards per tenant, written only by the tenant's worker.
  std::vector<uint64_t> joined_;
  uint64_t first_ = 0;
  bool traced_ = false;
  std::vector<std::string> problems_;
  std::vector<double> rank_us_[kServeWorkers];
  std::vector<double> reward_us_[kServeWorkers];
  std::thread trainer_;
  std::mutex train_mu_;
  std::condition_variable train_cv_;
  std::vector<int> due_;  ///< tenants whose retrain is due, guarded
  bool stop_ = false;     ///< guarded by train_mu_
  uint64_t retrains_ = 0;
  double retrain_ms_ = 0.0;
};

constexpr uint64_t kSegmentCount = 12000;
/// Segments per second of the run: one takes about 0.4 s.
constexpr double kSegmentsPerSecond = 0.8;

/// One pass over the closed-loop segments from request `first` with a fresh
/// target. A traced pass times every call, runs the trainer from the
/// benchmark and snapshots the registry around each segment.
struct Pass {
  std::vector<Segment> segments;
  RegistryDelta delta;
  /// Registry delta of the first kCheckedSegments segments.
  RegistryDelta checked;
  std::vector<double> rank_us, reward_us;
  uint64_t retrains = 0;
  double retrain_ms = 0.0;
  double wall_ms = 0.0;
  double stage_ms = 0.0;
};

Pass RunPass(uint64_t seed, const std::vector<Context>& contexts, bool traced,
             double rate, int segments, uint64_t count, uint64_t first,
             Report* report) {
  Pass pass;
  const uint64_t start = NowNs();
  RankTarget target(seed, &contexts);
  uint64_t next = first;
  obs::MetricsSnapshot before;
  SegmentHooks hooks;
  hooks.begin = [&](uint64_t first_index, uint64_t n) {
    target.Begin(first_index, n, traced);
    before = TakeSnapshot();
  };
  int done = 0;
  hooks.after = [&](const Segment& seg) {
    RegistryDelta delta(before, TakeSnapshot());
    if (done++ < kCheckedSegments) pass.checked.Add(delta);
    pass.delta.Add(delta);
    target.CheckInto(report);
    pass.stage_ms += seg.wall_s * 1e3;
  };
  int ended = 0;
  hooks.end = [&] {
    target.End();
    if (ended++ == 0) return;  // the warm-up segment
    pass.retrains += target.retrains();
    pass.retrain_ms += target.retrain_ms();
  };
  pass.segments = RunSegments(target, rate, segments, count, hooks, &next);
  pass.wall_ms = static_cast<double>(NowNs() - start) * 1e-6;
  pass.rank_us = target.RankUs();
  pass.reward_us = target.RewardUs();
  Account(pass.segments, report);
  return pass;
}

}  // namespace

void RunServeRank(const Options& options, Report* report) {
  const int segments = ServeSegments(options.seconds, kSegmentsPerSecond);
  std::vector<double> setups;
  std::vector<Context> contexts;
  Digest setup_digest;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t start = NowNs();
    Digest d;
    contexts = BuildContexts(options.seed, &d);
    RankTarget target(options.seed, &contexts);
    target.Begin(0, 1, false);
    setups.push_back(SetupSeconds(start, i));
    target.End();
    if (i > 0 && d.value() != setup_digest.value()) {
      report->violations.push_back("serve_rank setup is not deterministic");
    }
    setup_digest = d;
  }
  report->digest = "contexts=" + setup_digest.Hex();
  double features = 0.0, actions = 0.0;
  for (const Context& c : contexts) {
    features += static_cast<double>(c.features.size());
    actions += static_cast<double>(c.actions.size());
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "serve_rank: %zu contexts, %.1f features and %.1f actions "
                "on average",
                contexts.size(), features / contexts.size(),
                actions / contexts.size());
  report->lines.push_back(line);

  MetricTable& m = report->metrics;
  if (!options.trace) {
    Pass pass = RunPass(options.seed, contexts, false, 0.0, segments,
                        kSegmentCount, 0, report);
    SetServiceMetrics(kRates, pass.segments, report);
    m.Set("setup_s", Median(setups), "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    report->counters["ranks"] = pass.checked.Count("span.rank");
    report->counters["rewards"] =
        pass.checked.Series("service.reward_requests");
    return;
  }

  Pass plain = RunPass(options.seed, contexts, false, 0.0, segments,
                       kSegmentCount, 0, report);
  Pass traced = RunPass(options.seed, contexts, true, 0.0, segments,
                        kSegmentCount, 0, report);
  const uint64_t paced_first = static_cast<uint64_t>(segments) * kSegmentCount;
  Pass low = RunPass(options.seed, contexts, false, kRates.low_qps, 1,
                     static_cast<uint64_t>(kRates.low_qps), paced_first,
                     report);
  Pass high = RunPass(options.seed, contexts, false, kRates.high_qps, 1,
                      static_cast<uint64_t>(kRates.high_qps * 0.5),
                      paced_first, report);
  SetServiceMetrics(kRates, plain.segments, report);
  std::vector<Segment> paced = low.segments;
  paced.insert(paced.end(), high.segments.begin(), high.segments.end());
  SetPacedDiagnostics(paced, report);

  SetEngineLayerMetrics(traced.delta, report);
  const double rewards = traced.delta.Series("service.reward_requests");
  report->counters["ranks"] = traced.checked.Count("span.rank");
  report->counters["rewards"] =
      traced.checked.Series("service.reward_requests");
  m.Set("bandit.retrains", static_cast<double>(traced.retrains), "count");
  m.Set("bandit.retrain_ms", traced.retrain_ms, "ms");
  // The end-of-segment flush trains every joined reward.
  m.Set("bandit.examples_trained", rewards, "count");
  m.Set("service.rank_us_p50", Quantile(traced.rank_us, 0.50), "us");
  m.Set("service.rank_us_p99", Quantile(traced.rank_us, 0.99), "us");
  m.Set("service.reward_us_p99", Quantile(traced.reward_us, 0.99), "us");
  m.Set("service.publications",
        traced.delta.Series("service.snapshot_publications"), "count");
  m.Set("core.glue_ms", traced.wall_ms - traced.stage_ms, "ms");
  const double plain_ms = ServiceMs(plain.segments);
  m.Set("obs.overhead_pct",
        100.0 * (ServiceMs(traced.segments) - plain_ms) / plain_ms, "%");
  std::snprintf(line, sizeof(line),
                "stages: %d segments %.1f ms + glue %.1f ms = traced wall "
                "%.1f ms",
                segments, traced.stage_ms, traced.wall_ms - traced.stage_ms,
                traced.wall_ms);
  report->lines.push_back(line);
  double busy_ms = 0.0;
  for (const Segment& s : traced.segments) busy_ms += s.cpu_s * 1e3;
  ReportLedger(traced.delta, busy_ms, traced.retrain_ms,
               {.scope_optimizer_zero = true, .bandit_dominates = true},
               report);
  report->missing = traced.delta.missing();
}

}  // namespace perfbench
