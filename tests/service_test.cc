// Advisor service tests: the env-snapshot-once contract of AdvisorOptions,
// the AdvisorApi request/response flow against per-tenant state, RCU
// snapshot-swap linearizability (a reader never observes a half-published
// snapshot), fully concurrent rank/reward/compile/upload from 8 threads x 4
// tenants with the background trainer live (the TSAN CI leg's target), and
// byte-identity of scripted per-tenant streams at 1 vs 4 serving threads —
// the service-layer extension of the runtime determinism contract — and
// RankGoldenTest, which pins the rank path (Personalizer and service) bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bandit/features.h"
#include "common/hash.h"
#include "common/rng.h"
#include "experiments/experiments.h"
#include "optimizer/rules.h"
#include "runtime/runtime.h"
#include "service/advisor_service.h"
#include "workload/workload.h"

namespace qo::service {
namespace {

// --- AdvisorOptions ---------------------------------------------------------

// Saves + restores one env var around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  void Set(const char* value) { ::setenv(name_.c_str(), value, 1); }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(AdvisorOptionsTest, DefaultsReadNothingFromEnv) {
  ScopedEnv threads("QO_THREADS", "9");
  AdvisorOptions options = AdvisorOptions::Defaults();
  EXPECT_EQ(options.runtime.num_threads, 1);
  EXPECT_EQ(options.retrain_period_ms, 0);
  EXPECT_FALSE(options.guard.enabled);
}

TEST(AdvisorOptionsTest, FromEnvSnapshotsOnce) {
  ScopedEnv threads("QO_THREADS", "3");
  ScopedEnv retrain("QO_SERVICE_RETRAIN_MS", "250");
  AdvisorOptions snapshot = AdvisorOptions::FromEnv();
  EXPECT_EQ(snapshot.runtime.num_threads, 3);
  EXPECT_EQ(snapshot.retrain_period_ms, 250);

  // Later env mutations are invisible to the captured snapshot; only a new
  // FromEnv() call observes them.
  threads.Set("7");
  retrain.Set("0");
  EXPECT_EQ(snapshot.runtime.num_threads, 3);
  EXPECT_EQ(snapshot.retrain_period_ms, 250);
  AdvisorOptions fresh = AdvisorOptions::FromEnv();
  EXPECT_EQ(fresh.runtime.num_threads, 7);
  EXPECT_EQ(fresh.retrain_period_ms, 0);
}

// --- Request/response flow --------------------------------------------------

// A tiny deterministic job for compile tests.
workload::JobInstance TestJob(int salt) {
  workload::WorkloadDriver driver({.num_templates = 4,
                                   .jobs_per_day = 8,
                                   .recurring_fraction = 1.0,
                                   .template_skew = 0.0,
                                   .seed = 42});
  std::vector<workload::JobInstance> jobs = driver.DayJobs(0);
  return jobs[static_cast<size_t>(salt) % jobs.size()];
}

RankRequest TestRank(const std::string& tenant, int i) {
  RankRequest rank;
  rank.tenant = tenant;
  rank.event_id = tenant + "-e" + std::to_string(i);
  rank.context.AddNamed("ctx", 1.0);
  for (int a = 0; a < 3; ++a) {
    bandit::RankableAction action;
    action.action_id = "a" + std::to_string(a);
    action.features.AddNamed("arm" + std::to_string(a), 1.0);
    rank.actions.push_back(std::move(action));
  }
  return rank;
}

TEST(AdvisorServiceTest, OpenTenantPublishesInitialSnapshot) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("t0");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->sequence, 1u);
  EXPECT_EQ(snap->model_generation, 0u);
  ASSERT_NE(snap->hints, nullptr);
  EXPECT_EQ(snap->hints->version(), 0);
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));

  EXPECT_TRUE(advisor.OpenTenant("t0").status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(advisor.Session("nope").status().IsNotFound());
  EXPECT_TRUE(advisor.Rank(TestRank("nope", 0)).status().IsNotFound());
  EXPECT_EQ(advisor.CurrentSnapshot("nope"), nullptr);
}

TEST(AdvisorServiceTest, RankRewardCompileUploadFlow) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("flow");
  ASSERT_TRUE(session.ok());

  // Rank returns a valid typed event bound to the initial snapshot.
  auto ranked = session->Rank(TestRank("flow", 0));
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->event.valid());
  EXPECT_LT(ranked->chosen_index, 3u);
  EXPECT_EQ(ranked->snapshot_sequence, 1u);

  // Typed reward join; then a second reward on the same event must fail.
  auto rewarded = session->Reward(ranked->event, 0.5);
  ASSERT_TRUE(rewarded.ok()) << rewarded.status().ToString();
  EXPECT_EQ(rewarded->rewarded_events, 1u);
  EXPECT_FALSE(session->Reward(ranked->event, 0.5).ok());

  // String-fallback join for callers that only kept the id text.
  auto ranked2 = session->Rank(TestRank("flow", 1));
  ASSERT_TRUE(ranked2.ok());
  RewardRequest by_string;
  by_string.event_id = ranked2->event_id;
  by_string.reward = 1.0;
  auto rewarded2 = session->Reward(by_string);
  ASSERT_TRUE(rewarded2.ok()) << rewarded2.status().ToString();
  EXPECT_EQ(rewarded2->rewarded_events, 2u);

  // Compile before any hints: default config, version-0 snapshot view.
  workload::JobInstance job = TestJob(0);
  auto base = session->Compile(job);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_FALSE(base->hint_applied);
  EXPECT_EQ(base->rule_id, -1);
  EXPECT_EQ(base->sis_version, 0);

  // Upload a hint for the job's template; the republished snapshot carries
  // it to the very next compile.
  sis::HintFile hints;
  hints.day = 0;
  hints.entries.push_back({.template_name = job.template_name,
                           .rule_id = opt::rules::kBroadcastJoinAggressive,
                           .enable = true});
  auto upload = session->UploadHints(hints);
  ASSERT_TRUE(upload.ok()) << upload.status().ToString();
  EXPECT_EQ(upload->version, 1);
  EXPECT_EQ(upload->active_hints, 1u);
  EXPECT_GT(upload->snapshot_sequence, 1u);

  auto steered = session->Compile(job);
  ASSERT_TRUE(steered.ok());
  EXPECT_TRUE(steered->hint_applied);
  EXPECT_EQ(steered->rule_id, opt::rules::kBroadcastJoinAggressive);
  EXPECT_EQ(steered->sis_version, 1);

  // apply_hints=false bypasses the hint without touching the snapshot.
  auto unsteered = session->Compile(job, /*apply_hints=*/false);
  ASSERT_TRUE(unsteered.ok());
  EXPECT_FALSE(unsteered->hint_applied);
}

TEST(AdvisorServiceTest, TrainAndPublishAdvancesGenerations) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("train");
  ASSERT_TRUE(session.ok());

  // Nothing pending: no cycle, no publication.
  EXPECT_FALSE(session->TrainAndPublish());
  EXPECT_EQ(session->snapshot()->sequence, 1u);

  for (int i = 0; i < 8; ++i) {
    auto ranked = session->Rank(TestRank("train", i));
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(session->Reward(ranked->event, i % 2 == 0 ? 1.0 : 0.0).ok());
  }
  EXPECT_TRUE(session->TrainAndPublish());
  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  EXPECT_EQ(snap->model_generation, 1u);
  EXPECT_EQ(snap->sequence, 2u);
  EXPECT_GT(snap->model->updates(), 0u);
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));

  // The drained batch is gone: a second cycle has nothing to train on.
  EXPECT_FALSE(session->TrainAndPublish());
}

// --- RCU linearizability ----------------------------------------------------

// Readers spin on the snapshot while a writer keeps retraining/uploading:
// every observed snapshot must be internally consistent (checksum matches a
// recomputed fingerprint — no half-published state) and sequences must be
// monotone per reader. TSAN covers the memory-order claims in CI.
TEST(AdvisorServiceConcurrencyTest, SnapshotSwapLinearizability) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("rcu");
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> non_monotone{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&advisor, &stop, &torn, &non_monotone] {
      uint64_t last_seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const ServiceSnapshot> snap =
            advisor.CurrentSnapshot("rcu");
        if (snap == nullptr || snap->hints == nullptr ||
            snap->checksum != ServiceSnapshot::Fingerprint(*snap)) {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (snap->sequence < last_seq) {
          non_monotone.fetch_add(1, std::memory_order_relaxed);
        }
        last_seq = snap->sequence;
      }
    });
  }

  // Writer: interleave reward traffic, retrains and hint uploads.
  for (int i = 0; i < 200; ++i) {
    auto ranked = session->Rank(TestRank("rcu", i));
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(session->Reward(ranked->event, (i % 3) / 2.0).ok());
    if (i % 5 == 4) session->TrainAndPublish();
    if (i % 50 == 49) {
      sis::HintFile hints;
      hints.day = i / 50;
      hints.entries.push_back(
          {.template_name = "T" + std::to_string(i / 50),
           .rule_id = opt::rules::kBroadcastJoinAggressive,
           .enable = true});
      ASSERT_TRUE(session->UploadHints(hints).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(non_monotone.load(), 0);
  EXPECT_GE(session->snapshot()->sequence, 40u);
}

// 8 serving threads x 4 tenants, every API op in the mix, background
// trainer swapping snapshots at 1ms — the full concurrent-serving shape.
// Assertions are counted (per-op EXPECTs from multiple threads are fine in
// gtest, but keeping shared state in atomics makes failures readable).
TEST(AdvisorServiceConcurrencyTest, ConcurrentServingAcrossTenants) {
  AdvisorOptions options;
  AdvisorService advisor(options);
  const int kTenants = 4;
  const int kThreads = 8;
  const int kOpsPerThread = 60;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(advisor.OpenTenant("tenant" + std::to_string(t)).ok());
  }
  advisor.StartBackgroundTrainer(std::chrono::milliseconds(1));
  ASSERT_TRUE(advisor.background_trainer_running());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&advisor, &failures, w] {
      const std::string tenant = "tenant" + std::to_string(w % kTenants);
      auto session = advisor.Session(tenant);
      if (!session.ok()) {
        failures.fetch_add(1000);
        return;
      }
      workload::JobInstance job = TestJob(w);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Unique event ids per (thread, op): rank + typed reward.
        auto ranked = session->Rank(
            TestRank(tenant + "-w" + std::to_string(w), i));
        if (!ranked.ok() || !ranked->event.valid()) failures.fetch_add(1);
        if (ranked.ok() && !session->Reward(ranked->event, 0.25).ok()) {
          failures.fetch_add(1);
        }
        if (!session->Compile(job).ok()) failures.fetch_add(1);
        if (i % 16 == 15) {
          char tpl[32];
          std::snprintf(tpl, sizeof(tpl), "W%d_%d", w, i);
          sis::HintFile hints;
          hints.day = w * kOpsPerThread + i;
          hints.entries.push_back(
              {.template_name = tpl,
               .rule_id = opt::rules::kEagerAggregationLeft,
               .enable = true});
          if (!session->UploadHints(hints).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  advisor.StopBackgroundTrainer();
  EXPECT_FALSE(advisor.background_trainer_running());
  EXPECT_EQ(failures.load(), 0);

  // Post-run: every tenant's final snapshot is coherent and the learner
  // absorbed every reward (8 threads x 60 ops / 4 tenants each).
  for (int t = 0; t < kTenants; ++t) {
    auto snap = advisor.CurrentSnapshot("tenant" + std::to_string(t));
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
  }
}

// --- Determinism across thread counts --------------------------------------

// Scripted per-tenant streams: the tenant is the unit of parallelism, so
// transcripts must be byte-identical no matter how many runtime threads
// serve them (timing-dependent snapshot swaps are pinned by synchronous
// TrainAndPublish inside each stream).
std::string ScriptedStream(AdvisorService& advisor, int tenant_idx, int ops) {
  const std::string tenant = "s" + std::to_string(tenant_idx);
  auto session = advisor.Session(tenant);
  if (!session.ok()) return "open-failed";
  workload::JobInstance job = TestJob(tenant_idx);
  std::string transcript;
  char line[160];
  for (int i = 0; i < ops; ++i) {
    auto compiled = session->Compile(job);
    if (!compiled.ok()) return "compile-failed";
    auto ranked = session->Rank(TestRank(tenant, i));
    if (!ranked.ok()) return "rank-failed";
    if (!session->Reward(ranked->event, (i % 5) / 4.0).ok()) {
      return "reward-failed";
    }
    std::snprintf(line, sizeof(line), "%d %.6f %d %zu %s %.4f %llu\n", i,
                  compiled->compilation->est_cost, compiled->sis_version,
                  ranked->chosen_index, ranked->chosen_action_id.c_str(),
                  ranked->probability,
                  static_cast<unsigned long long>(ranked->snapshot_sequence));
    transcript += line;
    if (i % 10 == 9) session->TrainAndPublish();
    if (i == ops / 2) {
      sis::HintFile hints;
      hints.day = 0;
      hints.entries.push_back(
          {.template_name = job.template_name,
           .rule_id = opt::rules::kBroadcastJoinAggressive,
           .enable = true});
      if (!session->UploadHints(hints).ok()) return "upload-failed";
    }
  }
  return transcript;
}

std::vector<std::string> RunScripted(int num_threads, int tenants, int ops) {
  AdvisorOptions options;
  options.runtime.num_threads = num_threads;
  AdvisorService advisor(options);
  for (int t = 0; t < tenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "s%d", t);
    EXPECT_TRUE(advisor.OpenTenant(name).ok());
  }
  runtime::ParallelRuntime runtime(options.runtime);
  return runtime.TransformOrdered<std::string>(
      static_cast<size_t>(tenants),
      [](size_t i) { return static_cast<uint64_t>(i); },
      [](size_t i) { return static_cast<double>(i); },
      [&advisor, ops](size_t i) {
        return ScriptedStream(advisor, static_cast<int>(i), ops);
      });
}

TEST(AdvisorServiceDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  const int kTenants = 3;
  const int kOps = 40;
  std::vector<std::string> serial = RunScripted(1, kTenants, kOps);
  std::vector<std::string> parallel = RunScripted(4, kTenants, kOps);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(serial[static_cast<size_t>(t)],
              parallel[static_cast<size_t>(t)])
        << "tenant " << t << " transcript differs between 1 and 4 threads";
    EXPECT_GT(serial[static_cast<size_t>(t)].size(), 0u);
  }
}

// --- Offline pipeline through the service ----------------------------------

// A pipeline tenant borrows the harness engine and keeps the offline
// retrain cadence; RunPipelineDay republishes the snapshot each day.
TEST(AdvisorServicePipelineTest, RunPipelineDayPublishes) {
  experiments::ExperimentEnv env(
      {.num_templates = 20, .jobs_per_day = 40, .seed = 11});
  AdvisorService advisor;
  TenantConfig tenant;
  tenant.engine = &env.engine();
  tenant.service_owns_retrain = false;
  tenant.pipeline.validation.min_training_samples = 10;
  auto session = advisor.OpenTenant("pipe", tenant);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  uint64_t last_seq = session->snapshot()->sequence;
  for (int day = 0; day < 3; ++day) {
    telemetry::WorkloadView view = env.BuildDayView(day, &session->sis());
    auto report = session->RunPipelineDay(view);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->feature_gen.input_jobs, 0u);
    std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
    EXPECT_GT(snap->sequence, last_seq);
    EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
    last_seq = snap->sequence;
  }
  ASSERT_NE(session->pipeline(), nullptr);
}

// --- Rank golden ------------------------------------------------------------
//
// Pins the rank path bit for bit. Seed-driven streams run through
// PersonalizerService (greedy and explore_uniform ranks, with inline and explicit retrains and retention compaction) and through
// AdvisorService (6 tenants doing Rank, Reward and TrainAndPublish). The
// digest covers every arm's score bits before each rank, every pick, the
// propensity bits, the RankResponse fields, the join statuses, the weights'
// bit pattern after every retrain and the EvaluateOffline bits. EventId is
// an opaque handle and is not digested. An intentional change to any of
// these updates kRankGoldenDigest and says why in CHANGES.md.

/// FNV-1a chained over everything the streams produce.
class GoldenDigest {
 public:
  void U64(uint64_t v) { h_ = HashU64(v, h_); }
  void Double(double v) { h_ = HashDouble(v, h_); }
  void Str(const std::string& s) {
    U64(s.size());
    h_ = HashString(s, h_);
  }
  void Code(const Status& s) { U64(static_cast<uint64_t>(s.code())); }
  void Weights(const bandit::CbModel& model) {
    const std::vector<float>& w = model.weights();
    h_ = HashBytes(w.data(), w.size() * sizeof(float), h_);
    U64(model.updates());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

/// One rankable job: context and the Recommender-shaped action set (no-op
/// plus one flip per span bit).
struct GoldenJob {
  bandit::FeatureVector context;
  std::vector<bandit::RankableAction> actions;
};

/// Jobs with 2-13 span bits: short spans take the combine's sort path,
/// long ones the arena path.
std::vector<GoldenJob> GoldenJobs(uint64_t seed) {
  Rng rng(seed);
  std::vector<GoldenJob> jobs;
  for (int j = 0; j < 10; ++j) {
    const size_t bits = 2 + rng.UniformInt(12);
    std::vector<int> positions;
    while (positions.size() < bits) {
      const int bit = static_cast<int>(rng.UniformInt(256));
      if (std::find(positions.begin(), positions.end(), bit) ==
          positions.end()) {
        positions.push_back(bit);
      }
    }
    bandit::JobContext ctx;
    ctx.span = BitVector256::FromPositions(positions);
    ctx.row_count = static_cast<double>(rng.UniformInt(1000000000));
    ctx.est_cost = static_cast<double>(rng.UniformInt(100000));
    ctx.bytes_read = static_cast<double>(rng.UniformInt(1000000000));
    ctx.total_vertices = static_cast<int>(rng.UniformInt(5000));
    GoldenJob job;
    job.context = bandit::BuildContextFeatures(ctx);
    // Real-valued features, so that a score depends on its summation order
    // (sums of unit-valued features over float weights are exact).
    for (int k = 0; k < 3; ++k) {
      job.context.AddNamed("load_" + std::to_string(k), rng.Uniform(0.1, 3.0));
    }
    job.context.Canonicalize();
    bandit::RankableAction noop;
    noop.action_id = "noop";
    noop.features = bandit::BuildActionFeatures(-1, /*is_noop=*/true);
    job.actions.push_back(std::move(noop));
    for (int bit : ctx.span.Positions()) {
      bandit::RankableAction a;
      a.action_id = "flip_";
      a.action_id += std::to_string(bit);
      a.features = bandit::BuildActionFeatures(bit, /*is_noop=*/false);
      job.actions.push_back(std::move(a));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

bandit::RankRequest GoldenRequest(const std::string& id, const GoldenJob& job,
                                  bool uniform);
const bandit::CbModel& SnapshotModel(const ServiceSnapshot& snap);
/// Every arm's score under `model`, computed the way Rank computes it.
std::vector<double> GoldenScores(const bandit::CbModel& model,
                                 const GoldenJob& job);

/// A reward that depends on the job and the arm, so the model has
/// something to learn.
double GoldenReward(size_t job, size_t arm) {
  return static_cast<double>(MixHash(job * 131 + arm) % 1000) / 250.0;
}

void DigestResponse(const bandit::RankResponse& r, GoldenDigest* d) {
  d->Str(r.event_id);
  d->U64(r.chosen_index);
  d->Str(r.chosen_action_id);
  d->Double(r.probability);
}

void RunPersonalizerGolden(uint64_t seed, GoldenDigest* d) {
  bandit::PersonalizerService service({.epsilon = 0.2,
                                       .seed = seed,
                                       .retrain_interval = 24,
                                       .retention_window = 80});
  const std::vector<GoldenJob> jobs = GoldenJobs(seed);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<std::string> late;  // ranked, rewarded much later (or never)
  size_t updates = 0;
  auto digest_if_retrained = [&] {
    if (service.model().updates() != updates) {
      updates = service.model().updates();
      d->Weights(service.model());
    }
  };
  for (int step = 0; step < 300; ++step) {
    const size_t j = rng.UniformInt(jobs.size());
    const int mode = step % 4;
    const bool uniform = mode == 2 || (mode == 3 && (step / 4) % 2 == 1);
    std::string id = "p";
    id += std::to_string(seed);
    id += "_";
    id += std::to_string(step);
    for (double s : GoldenScores(service.model(), jobs[j])) d->Double(s);
    auto ranked = service.Rank(GoldenRequest(id, jobs[j], uniform));
    d->Code(ranked.status());
    if (!ranked.ok()) continue;
    DigestResponse(*ranked, d);
    if (step % 37 == 5) {
      // A duplicate id is rejected and logs nothing.
      d->Code(service.Rank(GoldenRequest(id, jobs[j], uniform)).status());
    }
    const double reward = GoldenReward(j, ranked->chosen_index);
    switch (rng.UniformInt(6)) {
      case 0:
        late.push_back(id);
        break;
      case 1:
        d->Code(service.Reward(id, reward));
        d->Code(service.Reward(ranked->event, reward));  // double reward
        break;
      default:
        d->Code(service.Reward(ranked->event, reward));
        break;
    }
    digest_if_retrained();
    if (step % 50 == 49) {
      // Late joins: recent ids land, ids past the window are NotFound.
      for (const std::string& late_id : late) {
        d->Code(service.Reward(late_id, 1.0));
        digest_if_retrained();
      }
      late.clear();
      service.Retrain();
      digest_if_retrained();
      auto eval = service.EvaluateOffline();
      d->Code(eval.status());
      if (eval.ok()) {
        d->Double(eval->logged_average_reward);
        d->Double(eval->policy_ips_estimate);
        d->U64(eval->events);
      }
    }
  }
  d->Code(service.Reward("never_ranked", 1.0));
  d->U64(service.logged_events());
  d->U64(service.resident_events());
  d->U64(service.rewarded_events());
}

void RunAdvisorGolden(GoldenDigest* d) {
  constexpr int kTenants = 6;
  AdvisorService advisor;
  std::vector<TenantSession> sessions;
  for (int k = 0; k < kTenants; ++k) {
    TenantConfig config;
    config.personalizer = {.epsilon = 0.15,
                           .seed = static_cast<uint64_t>(100 + k),
                           .retention_window = 48};
    auto session = advisor.OpenTenant("golden_" + std::to_string(k), config);
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  const std::vector<GoldenJob> jobs = GoldenJobs(2022);
  Rng rng(99);
  for (int step = 0; step < 240; ++step) {
    const int k = step % kTenants;
    TenantSession& session = sessions[static_cast<size_t>(k)];
    const size_t j = rng.UniformInt(jobs.size());
    RankRequest req;
    req.event_id = "a";
    req.event_id += std::to_string(step);
    req.context = jobs[j].context;
    req.actions = jobs[j].actions;
    req.explore_uniform = step % 5 == 0;
    const bandit::CbModel& model = SnapshotModel(*session.snapshot());
    for (double s : GoldenScores(model, jobs[j])) d->Double(s);
    auto ranked = session.Rank(req);
    d->Code(ranked.status());
    if (!ranked.ok()) continue;
    d->Str(ranked->event_id);
    d->U64(ranked->chosen_index);
    d->Str(ranked->chosen_action_id);
    d->Double(ranked->probability);
    d->U64(ranked->snapshot_sequence);
    const double reward = GoldenReward(j, ranked->chosen_index);
    RewardRequest by_string;
    by_string.event_id = ranked->event_id;
    by_string.reward = reward;
    auto rewarded = step % 7 == 3 ? session.Reward(by_string)
                                  : session.Reward(ranked->event, reward);
    d->Code(rewarded.status());
    if (rewarded.ok()) d->U64(rewarded->rewarded_events);
    if (step % 36 == 35) {
      for (TenantSession& s : sessions) {
        d->U64(s.TrainAndPublish());
        auto snap = s.snapshot();
        d->U64(snap->sequence);
        d->U64(snap->model_generation);
        d->Weights(SnapshotModel(*snap));
      }
    }
  }
  d->U64(advisor.TrainAndPublishAll());
  for (TenantSession& s : sessions) d->Weights(SnapshotModel(*s.snapshot()));
}

// Recorded on the tree whose Rank combined every arm into its own shared
// vector and logged all of them.
constexpr uint64_t kRankGoldenDigest = 0xc13db568d6fb404cULL;

TEST(RankGoldenTest, RankStreamsMatchGolden) {
  GoldenDigest d;
  for (uint64_t seed : {2022ULL, 7ULL, 11ULL}) RunPersonalizerGolden(seed, &d);
  RunAdvisorGolden(&d);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                static_cast<unsigned long long>(d.value()));
  EXPECT_EQ(d.value(), kRankGoldenDigest) << "rank golden digest " << hex;
}

/// The request for one golden rank (context x actions combined by the
/// service).
bandit::RankRequest GoldenRequest(const std::string& id, const GoldenJob& job,
                                  bool uniform) {
  bandit::RankRequest req;
  req.event_id = id;
  req.inputs = std::make_shared<const bandit::RankInputs>(
      bandit::RankInputs{job.context, job.actions});
  req.explore_uniform = uniform;
  return req;
}

const bandit::CbModel& SnapshotModel(const ServiceSnapshot& snap) {
  return *snap.model;
}

std::vector<double> GoldenScores(const bandit::CbModel& model,
                                 const GoldenJob& job) {
  return bandit::ScoreArms(model,
                           bandit::RankInputs{job.context, job.actions});
}

}  // namespace
}  // namespace qo::service
