// Contextual bandit tests: featurization, the canonical sparse
// representation, model learning, the Personalizer service contract
// (including shared combined features, incremental retraining and log
// retention), and offline (IPS) evaluation.
#include <algorithm>
#include <gtest/gtest.h>
#include <utility>

#include "bandit/cb_model.h"
#include "bandit/features.h"
#include "bandit/personalizer.h"

#include "obs/metrics.h"
#include "optimizer/rules.h"

namespace qo::bandit {
namespace {

/// Value of a registry series. The bandit.* counts are process-wide, so
/// tests that read them zero the registry first and run one service per
/// zeroed phase.
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

/// True when entries are strictly increasing by index (sorted + deduped).
bool IsCanonical(const std::vector<std::pair<uint32_t, double>>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].first >= entries[i].first) return false;
  }
  return true;
}

/// SoA overload: the index column is strictly increasing and the value
/// column stays parallel to it.
bool IsCanonical(const SparseVector& v) {
  if (v.values().size() != v.indices().size()) return false;
  for (size_t i = 1; i < v.indices().size(); ++i) {
    if (v.indices()[i - 1] >= v.indices()[i]) return false;
  }
  return true;
}

TEST(SparseVectorTest, CanonicalizeSortsCoalescesAndCachesNorm) {
  SparseVector v = SparseVector::Canonicalize(
      {{9, 1.0}, {3, 2.0}, {9, 0.5}, {1, -1.0}, {3, -2.0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(IsCanonical(v));
  EXPECT_EQ(v.indices(), (std::vector<uint32_t>{1, 3, 9}));
  // Index 3 coalesced to zero: the entry stays, at its summed value.
  EXPECT_EQ(v.values(), (std::vector<double>{-1.0, 0.0, 1.5}));
  EXPECT_DOUBLE_EQ(v.norm_sq(), 1.0 + 0.0 + 2.25);
}

TEST(SparseVectorTest, CanonicalizeReducesIndicesIntoModelSpace) {
  SparseVector v =
      SparseVector::Canonicalize({{FeatureVector::kDim + 7, 1.0}, {7, 1.0}});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.indices()[0], 7u);
  EXPECT_DOUBLE_EQ(v.values()[0], 2.0);
}

TEST(FeaturesTest, ContextIncludesSpanAndCooccurrences) {
  JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50});
  ctx.row_count = 1e6;
  FeatureVector f = BuildContextFeatures(ctx);
  // 3 first-order + 3 pairs + 1 triple + 4 buckets + bias = 12 (no hash
  // collisions among these 12 in the 2^18 space).
  EXPECT_EQ(f.size(), 12u);
  EXPECT_TRUE(IsCanonical(f.entries));
}

TEST(FeaturesTest, TriplesAreCapped) {
  std::vector<int> many;
  for (int i = 40; i < 70; ++i) many.push_back(i);
  JobContext ctx;
  ctx.span = BitVector256::FromPositions(many);
  FeatureVector f = BuildContextFeatures(ctx);
  // 30 singles + C(30,2)=435 pairs + C(12,3)=220 capped triples + 5 misc,
  // minus any hashed-index collisions coalesced by canonicalization.
  EXPECT_LE(f.size(), 30u + 435u + 220u + 5u);
  EXPECT_GE(f.size(), 30u + 435u + 220u + 5u - 4u);
  EXPECT_TRUE(IsCanonical(f.entries));
}

TEST(FeaturesTest, ActionFeaturesEncodeRuleAndCategory) {
  FeatureVector noop = BuildActionFeatures(-1, true);
  EXPECT_EQ(noop.size(), 1u);
  FeatureVector flip = BuildActionFeatures(opt::rules::kHashJoinImpl, false);
  EXPECT_EQ(flip.size(), 2u);  // rule id + category
  EXPECT_TRUE(IsCanonical(flip.entries));
}

TEST(FeaturesTest, CombineAddsQuadraticInteractions) {
  FeatureVector shared;
  shared.AddNamed("a", 1.0);
  shared.AddNamed("b", 1.0);
  FeatureVector action;
  action.AddNamed("x", 1.0);
  SparseVector combined = CombineFeatures(shared, action);
  EXPECT_EQ(combined.size(), 2u + 1u + 2u);  // shared + action + cross
  EXPECT_TRUE(IsCanonical(combined));
  EXPECT_DOUBLE_EQ(combined.norm_sq(), 5.0);
}

TEST(FeaturesTest, CombineIsInvariantUnderInputPermutation) {
  FeatureVector shared_ab, shared_ba;
  shared_ab.AddNamed("a", 1.0);
  shared_ab.AddNamed("b", 2.0);
  shared_ba.AddNamed("b", 2.0);
  shared_ba.AddNamed("a", 1.0);
  FeatureVector action;
  action.AddNamed("x", 1.0);
  action.AddNamed("y", 0.5);
  SparseVector c1 = CombineFeatures(shared_ab, action);
  SparseVector c2 = CombineFeatures(shared_ba, action);
  EXPECT_EQ(c1.indices(), c2.indices());
  EXPECT_EQ(c1.values(), c2.values());
  EXPECT_DOUBLE_EQ(c1.norm_sq(), c2.norm_sq());

  // And a trained model scores the two identically — the canonical form is
  // what the model consumes, not the insertion order.
  CbModel model({.learning_rate = 0.3, .epochs = 5});
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(
        {std::make_shared<const SparseVector>(c1), 1.5, 1.0});
  }
  model.Train(examples);
  EXPECT_DOUBLE_EQ(model.Score(c1), model.Score(c2));
}

TEST(FeaturesTest, HashingIsStable) {
  EXPECT_EQ(HashFeatureName("span_41"), HashFeatureName("span_41"));
  EXPECT_NE(HashFeatureName("span_41"), HashFeatureName("span_42"));
}

TEST(CbModelTest, LearnsLinearRewards) {
  // Two actions: action A pays 2.0, action B pays 0.5; contexts irrelevant.
  CbModel model({.learning_rate = 0.2, .epochs = 50});
  FeatureVector fa = BuildActionFeatures(10, false);
  FeatureVector fb = BuildActionFeatures(20, false);
  FeatureVector shared;
  shared.AddNamed("bias", 1.0);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 50; ++i) {
    examples.push_back({CombineFeaturesShared(shared, fa), 2.0, 0.5});
    examples.push_back({CombineFeaturesShared(shared, fb), 0.5, 0.5});
  }
  model.Train(examples);
  EXPECT_GT(model.Score(CombineFeatures(shared, fa)),
            model.Score(CombineFeatures(shared, fb)));
  EXPECT_NEAR(model.Score(CombineFeatures(shared, fa)), 2.0, 0.4);
  EXPECT_NEAR(model.Score(CombineFeatures(shared, fb)), 0.5, 0.4);
}

TEST(CbModelTest, LearnsContextDependentPolicy) {
  // Action A is good only in context 1; action B only in context 2.
  CbModel model({.learning_rate = 0.3, .epochs = 80});
  FeatureVector c1, c2;
  c1.AddNamed("ctx1", 1.0);
  c2.AddNamed("ctx2", 1.0);
  FeatureVector fa = BuildActionFeatures(10, false);
  FeatureVector fb = BuildActionFeatures(20, false);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 100; ++i) {
    examples.push_back({CombineFeaturesShared(c1, fa), 2.0, 0.5});
    examples.push_back({CombineFeaturesShared(c1, fb), 0.2, 0.5});
    examples.push_back({CombineFeaturesShared(c2, fa), 0.2, 0.5});
    examples.push_back({CombineFeaturesShared(c2, fb), 2.0, 0.5});
  }
  model.Train(examples);
  EXPECT_GT(model.Score(CombineFeatures(c1, fa)),
            model.Score(CombineFeatures(c1, fb)));
  EXPECT_LT(model.Score(CombineFeatures(c2, fa)),
            model.Score(CombineFeatures(c2, fb)));
}

TEST(CbModelTest, DuplicateIndexDecaysWeightOncePerExample) {
  // Regression test for the double-decay / norm-overcount bug: two raw
  // entries forced onto one hashed index must behave as a single coalesced
  // feature — L2 decay applied exactly once per example, norm_sq counting
  // the summed value once.
  CbModel model({.learning_rate = 0.5, .l2 = 0.2, .epochs = 1});
  auto single = std::make_shared<const SparseVector>(
      SparseVector::Canonicalize({{7, 1.0}}));
  auto collided = std::make_shared<const SparseVector>(
      SparseVector::Canonicalize({{7, 1.0}, {7, 1.0}}));
  ASSERT_EQ(collided->size(), 1u);
  EXPECT_DOUBLE_EQ(collided->values()[0], 2.0);
  // The collided feature's norm counts the coalesced value once: (1+1)^2,
  // not 1^2 + 1^2.
  EXPECT_DOUBLE_EQ(collided->norm_sq(), 4.0);

  // Step 1: plain example, reward 1 -> w7 = lr * (1 - 0) / max(1, 1) = 0.5.
  model.TrainEpoch({{single, 1.0, 1.0}});
  EXPECT_NEAR(model.Score(*single), 0.5, 1e-6);

  // Step 2: collided example, reward 0. pred = w7 * 2 = 1.0, norm_sq = 4,
  // grad = 0.5 * (0 - 1) / 4 = -0.125, and the weight decays ONCE:
  //   w7 = 0.5 * (1 - lr * l2) + grad * 2 = 0.5 * 0.9 - 0.25 = 0.2.
  // The pre-fix path decayed twice and interleaved the two updates,
  // yielding -0.07 instead.
  model.TrainEpoch({{collided, 0.0, 1.0}});
  EXPECT_NEAR(model.Score(*single), 0.2, 1e-6);
}

TEST(CbModelTest, ScoreBatchBitIdenticalToPerArmScore) {
  // Train a model so the weights are non-trivial, then score batches whose
  // shapes exercise every ScoreBatch path: full blocks of four, a
  // remainder block, arms of different lengths (per-arm tails), an empty
  // arm, and a null arm — in the remainder, and moved into a full block.
  // Each arm's batch score must equal its individual Score() bit for bit,
  // and the null arm scores 0.0.
  CbModel model({.learning_rate = 0.2, .epochs = 30});
  FeatureVector shared;
  shared.AddNamed("bias", 1.0);
  shared.AddNamed("ctx", 0.5);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 40; ++i) {
    FeatureVector fa = BuildActionFeatures(10 + (i % 5), false);
    examples.push_back(
        {CombineFeaturesShared(shared, fa), (i % 5) * 0.5, 0.5});
  }
  model.Train(examples);

  std::vector<std::shared_ptr<const SparseVector>> arms;
  for (int i = 0; i < 9; ++i) {
    FeatureVector fa = BuildActionFeatures(10 + i, i % 2 == 0);
    arms.push_back(CombineFeaturesShared(shared, fa));
  }
  arms.push_back(std::make_shared<const SparseVector>());  // empty arm
  arms.push_back(nullptr);                                 // null arm
  ASSERT_EQ(arms.size() % 4, 3u);  // remainder block exists

  // The empty arm moved into the second full block; the null arm moved
  // into the first.
  auto empty_in_block = arms;
  std::swap(empty_in_block[5], empty_in_block[9]);
  auto null_in_block = arms;
  std::swap(null_in_block[1], null_in_block[10]);
  for (const auto* batch_arms : {&arms, &empty_in_block, &null_in_block}) {
    std::vector<double> batch = model.ScoreBatch(*batch_arms);
    ASSERT_EQ(batch.size(), batch_arms->size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& arm = (*batch_arms)[i];
      EXPECT_EQ(batch[i], arm ? model.Score(*arm) : 0.0) << "arm=" << i;
    }
  }
  EXPECT_TRUE(model.ScoreBatch({}).empty());
}

std::vector<RankableAction> ThreeActions() {
  std::vector<RankableAction> actions;
  for (int i = 0; i < 3; ++i) {
    RankableAction a;
    a.action_id = "a";
    a.action_id += std::to_string(i);
    a.features = BuildActionFeatures(40 + i, false);
    actions.push_back(std::move(a));
  }
  return actions;
}

FeatureVector SmallContext() {
  JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50});
  ctx.row_count = 1e6;
  return BuildContextFeatures(ctx);
}

TEST(PersonalizerTest, RankRequiresActionsAndUniqueEventIds) {
  PersonalizerService service;
  RankRequest empty;
  empty.event_id = "e0";
  EXPECT_FALSE(service.Rank(empty).ok());

  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  EXPECT_TRUE(service.Rank(req).ok());
  EXPECT_FALSE(service.Rank(req).ok());  // duplicate id
}

TEST(PersonalizerTest, RankRejectsMismatchedPrecombined) {
  PersonalizerService service;
  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  req.precombined = {CombineFeaturesShared(SmallContext(), req.actions[0].features)};
  EXPECT_FALSE(service.Rank(req).ok());  // 1 precombined vs 3 actions

  // Correct size but a null entry is rejected too (nothing null may reach
  // the event log, where BestAction dereferences unchecked).
  req.precombined.resize(3);
  EXPECT_FALSE(service.Rank(req).ok());
}

TEST(PersonalizerTest, UniformExplorationHasUniformPropensity) {
  PersonalizerService service({.seed = 4});
  RankRequest req;
  req.event_id = "e";
  req.actions = ThreeActions();
  req.explore_uniform = true;
  auto resp = service.Rank(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_NEAR(resp->probability, 1.0 / 3.0, 1e-12);
}

TEST(PersonalizerTest, RewardJoinSemantics) {
  obs::Registry::Get().ZeroAllForTest();
  PersonalizerService service;
  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  ASSERT_TRUE(service.Rank(req).ok());
  EXPECT_TRUE(service.Reward("e1", 1.5).ok());
  // Double reward and unknown events are rejected.
  EXPECT_FALSE(service.Reward("e1", 1.0).ok());
  EXPECT_TRUE(service.Reward("ghost", 1.0).IsNotFound());
  EXPECT_EQ(service.rewarded_events(), 1u);
  EXPECT_EQ(service.logged_events(), 1u);
  EXPECT_EQ(Series("bandit.reward_joins"), 1.0);
  EXPECT_EQ(Series("bandit.reward_failures"), 2.0);
}

/// What one service did with one event stream: its choices, propensities,
/// final model scores per action, and the registry counts of its phase.
struct StreamRun {
  std::vector<size_t> chosen;
  std::vector<double> probabilities;
  std::vector<double> final_scores;
  double combines = 0.0;
  double precombined_reused = 0.0;
  double examples_trained = 0.0;
};

TEST(PersonalizerTest, PrecombinedRanksIdenticallyAndSharesVectors) {
  // Two identically seeded services fed the same event stream, one zeroed
  // phase each; one combines inline per Rank, the other shares precombined
  // vectors per "job". Both must produce identical choices, propensities
  // and learned models.
  PersonalizerConfig config{.seed = 11, .retrain_interval = 40};
  FeatureVector context = SmallContext();
  std::vector<RankableAction> actions = ThreeActions();
  auto run = [&](bool precombine) {
    obs::Registry::Get().ZeroAllForTest();
    PersonalizerService service(config);
    StreamRun out;
    for (int i = 0; i < 120; ++i) {
      RankRequest req;
      req.event_id = "e";
      req.event_id += std::to_string(i);
      req.context = context;
      req.actions = actions;
      req.explore_uniform = (i % 2 == 0);
      if (precombine) req.precombined = CombineActionSet(context, actions);
      auto r = service.Rank(req);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) return out;
      // The logged event holds the caller's vectors, not copies: the probe
      // and acting arms of one job share one combine.
      for (const auto& c : req.precombined) EXPECT_GT(c.use_count(), 1);
      out.chosen.push_back(r->chosen_index);
      out.probabilities.push_back(r->probability);
      double reward = r->chosen_index == 1 ? 2.0 : 0.5;
      EXPECT_TRUE(service.Reward(r->event_id, reward).ok());
    }
    service.Retrain();
    for (const auto& action : actions) {
      out.final_scores.push_back(
          service.model().Score(CombineFeatures(context, action.features)));
    }
    out.combines = Series("bandit.combines");
    out.precombined_reused = Series("bandit.precombined_reused");
    return out;
  };
  const StreamRun inline_run = run(/*precombine=*/false);
  const StreamRun shared_run = run(/*precombine=*/true);
  ASSERT_EQ(inline_run.chosen.size(), 120u);
  EXPECT_EQ(inline_run.chosen, shared_run.chosen);
  EXPECT_EQ(inline_run.probabilities, shared_run.probabilities);
  ASSERT_EQ(inline_run.final_scores.size(), shared_run.final_scores.size());
  for (size_t a = 0; a < inline_run.final_scores.size(); ++a) {
    EXPECT_DOUBLE_EQ(inline_run.final_scores[a], shared_run.final_scores[a]);
  }
  EXPECT_EQ(inline_run.combines, 120.0 * 3.0);
  EXPECT_EQ(inline_run.precombined_reused, 0.0);
  EXPECT_GT(shared_run.precombined_reused, 0.0);
  EXPECT_EQ(shared_run.combines, 0.0);
}

TEST(PersonalizerTest, IncrementalRetrainMatchesFullRetrain) {
  // With epochs = 1, retraining after every batch produces exactly the same
  // SGD update sequence as one retrain over all pending examples: the
  // incremental path must drop nothing and train nothing twice. One zeroed
  // phase per service.
  PersonalizerConfig config{.model = {.epochs = 1},
                            .seed = 21,
                            .retrain_interval = 1000000};
  FeatureVector context = SmallContext();
  std::vector<RankableAction> actions = ThreeActions();
  auto run = [&](bool incremental) {
    obs::Registry::Get().ZeroAllForTest();
    PersonalizerService service(config);
    StreamRun out;
    for (int i = 0; i < 120; ++i) {
      RankRequest req;
      req.event_id = "e";
      req.event_id += std::to_string(i);
      req.context = context;
      req.actions = actions;
      req.explore_uniform = true;  // identical RNG consumption in both
      auto r = service.Rank(req);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) return out;
      out.chosen.push_back(r->chosen_index);
      double reward = r->chosen_index == 2 ? 1.5 : 0.5;
      EXPECT_TRUE(service.Reward(r->event_id, reward).ok());
      if (incremental && (i + 1) % 40 == 0) service.Retrain();
    }
    if (!incremental) service.Retrain();
    for (const auto& action : actions) {
      out.final_scores.push_back(
          service.model().Score(CombineFeatures(context, action.features)));
    }
    out.examples_trained = Series("bandit.examples_trained");
    return out;
  };
  const StreamRun incremental = run(/*incremental=*/true);
  const StreamRun full = run(/*incremental=*/false);
  ASSERT_EQ(incremental.chosen.size(), 120u);
  ASSERT_EQ(incremental.chosen, full.chosen);
  ASSERT_EQ(incremental.final_scores.size(), full.final_scores.size());
  for (size_t a = 0; a < full.final_scores.size(); ++a) {
    EXPECT_DOUBLE_EQ(incremental.final_scores[a], full.final_scores[a]);
  }
  EXPECT_EQ(incremental.examples_trained, 120.0);
  EXPECT_EQ(incremental.examples_trained, full.examples_trained);
}

TEST(PersonalizerTest, RetentionBoundsResidentEvents) {
  obs::Registry::Get().ZeroAllForTest();
  PersonalizerService service({.seed = 13,
                               .retrain_interval = 16,
                               .retention_window = 64});
  // "Acting arm" events (every third) are never rewarded — retention must
  // reclaim them too.
  for (int i = 0; i < 400; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    if (i % 3 != 0) {
      ASSERT_TRUE(service.Reward(resp->event_id, 1.0).ok());
    }
    EXPECT_LE(service.resident_events(), 64u);
  }
  EXPECT_EQ(service.logged_events(), 400u);
  EXPECT_EQ(Series("bandit.events_compacted"), 400.0 - 64.0);
  // A reward for an event beyond the retention window is an expired join.
  EXPECT_TRUE(service.Reward("e0", 1.0).IsNotFound());
  // The retained window still supports offline evaluation.
  EXPECT_TRUE(service.EvaluateOffline().ok());
}

TEST(PersonalizerTest, ColdStartRanksUniformly) {
  // With an untrained model all scores tie at zero; ties break randomly, so
  // all actions should be chosen across many requests.
  PersonalizerService service({.epsilon = 0.0, .seed = 8});
  std::set<std::string> chosen;
  for (int i = 0; i < 60; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    chosen.insert(resp->chosen_action_id);
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST(PersonalizerTest, LearnsToPickTheGoodAction) {
  PersonalizerService service(
      {.epsilon = 0.1, .model = {.epochs = 5}, .seed = 6,
       .retrain_interval = 50});
  // Reward structure: action a1 pays 2.0, others 0.5.
  for (int i = 0; i < 400; ++i) {
    RankRequest req;
    req.event_id = "train";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    double reward = resp->chosen_action_id == "a1" ? 2.0 : 0.5;
    ASSERT_TRUE(service.Reward(resp->event_id, reward).ok());
  }
  service.Retrain();
  int picked_good = 0;
  const int kTrials = 100;
  for (int i = 0; i < kTrials; ++i) {
    RankRequest req;
    req.event_id = "test";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    picked_good += resp->chosen_action_id == "a1";
  }
  // Greedy (1 - epsilon) plus a share of exploration.
  EXPECT_GT(picked_good, 75);
}

TEST(PersonalizerTest, OfflineEvaluationComparesPolicies) {
  PersonalizerService service({.seed = 2, .retrain_interval = 1000000});
  for (int i = 0; i < 200; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    service.Reward(resp->event_id,
                   resp->chosen_action_id == "a2" ? 3.0 : 0.1)
        .ok();
  }
  service.Retrain();
  auto eval = service.EvaluateOffline();
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->events, 200u);
  // The learned greedy policy should beat the uniform logging baseline.
  EXPECT_GT(eval->policy_ips_estimate, eval->logged_average_reward);
}

TEST(PersonalizerTest, EvaluateOfflineRequiresRewards) {
  PersonalizerService service;
  EXPECT_FALSE(service.EvaluateOffline().ok());
}

}  // namespace
}  // namespace qo::bandit
