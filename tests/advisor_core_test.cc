// QO-Advisor core tests: span computation, feature generation,
// recommendation, validation model, hint generation, and the end-to-end
// daily pipeline.
#include <gtest/gtest.h>

#include "core/feature_gen.h"
#include "core/hint_gen.h"
#include "core/pipeline.h"
#include "core/recommend.h"
#include "core/span.h"
#include "core/validation.h"
#include "common/symbol_table.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"

namespace qo::advisor {
namespace {

/// Value of a registry series; counts are process-wide, so tests that read
/// them zero the registry first.
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

engine::ScopeEngine& Engine() {
  static auto* engine = new engine::ScopeEngine();
  return *engine;
}

std::vector<workload::JobInstance> Jobs(uint64_t seed = 2024, int count = 40) {
  workload::WorkloadDriver driver(
      {.num_templates = 20, .jobs_per_day = count, .seed = seed});
  return driver.DayJobs(0);
}

// ---------------------------------------------------------------------------
// Span computation.
// ---------------------------------------------------------------------------

TEST(SpanTest, SpanNeverContainsRequiredOrSoleImplementationRules) {
  const auto& reg = opt::RuleRegistry::Get();
  for (const auto& job : Jobs()) {
    auto span = ComputeJobSpan(Engine(), job);
    ASSERT_TRUE(span.ok()) << span.status();
    EXPECT_TRUE(
        (span->span & reg.CategoryMask(opt::RuleCategory::kRequired)).None());
    for (int sole : {opt::rules::kScanImpl, opt::rules::kOutputImpl,
                     opt::rules::kFilterImpl, opt::rules::kProjectImpl,
                     opt::rules::kExchangeShuffleImpl,
                     opt::rules::kExchangeGatherImpl}) {
      EXPECT_FALSE(span->span.Test(sole)) << job.job_id;
    }
    EXPECT_GE(span->iterations, 1);
  }
}

TEST(SpanTest, SomeJobsHaveEmptySpans) {
  // ~30% of templates are trivial copy jobs whose plan no flip can change.
  int empty = 0, total = 0;
  for (const auto& job : Jobs(7, 60)) {
    auto span = ComputeJobSpan(Engine(), job);
    ASSERT_TRUE(span.ok());
    ++total;
    empty += span->span.None();
  }
  EXPECT_GT(empty, 0);
  EXPECT_LT(empty, total);
}

TEST(SpanTest, SpanRulesComeFromSignaturesSeen) {
  for (const auto& job : Jobs(3, 10)) {
    auto span = ComputeJobSpan(Engine(), job);
    ASSERT_TRUE(span.ok());
    // Rules used by the default plan (minus infra) must be in the span.
    const auto& reg = opt::RuleRegistry::Get();
    BitVector256 default_flippable =
        span->default_compilation->signature.AndNot(
            reg.CategoryMask(opt::RuleCategory::kRequired));
    default_flippable = default_flippable.AndNot(BitVector256::FromPositions(
        {opt::rules::kScanImpl, opt::rules::kOutputImpl,
         opt::rules::kFilterImpl, opt::rules::kProjectImpl,
         opt::rules::kExchangeShuffleImpl, opt::rules::kExchangeGatherImpl}));
    EXPECT_TRUE(span->span.Contains(default_flippable)) << job.job_id;
  }
}

// ---------------------------------------------------------------------------
// Feature generation.
// ---------------------------------------------------------------------------

telemetry::WorkloadView DayView(uint64_t seed = 11, int count = 30) {
  telemetry::WorkloadView view;
  for (const auto& job : Jobs(seed, count)) {
    auto result = Engine().Run(job, opt::RuleConfig::Default(), 0);
    if (!result.ok()) continue;
    view.rows.push_back(
        telemetry::MakeViewRow(job, *result->compilation, result->metrics));
  }
  return view;
}

TEST(FeatureGenTest, DropsEmptySpansAndReportsStats) {
  telemetry::WorkloadView view = DayView();
  FeatureGenStats stats;
  auto features = GenerateFeatures(Engine(), view, &stats);
  EXPECT_EQ(stats.input_jobs, view.rows.size());
  EXPECT_EQ(stats.emitted, features.size());
  EXPECT_EQ(stats.input_jobs,
            stats.emitted + stats.empty_span_dropped + stats.compile_failures);
  for (const auto& f : features) {
    EXPECT_TRUE(f.span.Any());
    EXPECT_GT(f.default_compilation->est_cost, 0);
    // Context carries the Table 1 features.
    bandit::JobContext ctx = f.ToContext();
    EXPECT_EQ(ctx.span, f.span);
    EXPECT_GT(ctx.est_cost, 0);
  }
}

// ---------------------------------------------------------------------------
// Recommendation.
// ---------------------------------------------------------------------------

TEST(RecommendTest, EvaluateFlipClassifiesOutcomes) {
  telemetry::WorkloadView view = DayView(13);
  auto features = GenerateFeatures(Engine(), view);
  ASSERT_FALSE(features.empty());
  bandit::PersonalizerService personalizer({.seed = 1});
  Recommender recommender(&Engine(), &personalizer, {});

  int classified = 0;
  for (const auto& f : features) {
    for (int bit : f.span.Positions()) {
      Recommendation rec = recommender.EvaluateFlip(f, bit);
      ++classified;
      switch (rec.outcome) {
        case RecompileOutcome::kLowerCost:
          EXPECT_LT(rec.est_cost_new, rec.est_cost_default);
          EXPECT_GT(rec.reward, 1.0);
          EXPECT_LE(rec.reward, 2.0);  // clipped (paper Sec. 4.2)
          break;
        case RecompileOutcome::kHigherCost:
          EXPECT_GT(rec.est_cost_new, rec.est_cost_default);
          EXPECT_LT(rec.reward, 1.0);
          break;
        case RecompileOutcome::kEqualCost:
          EXPECT_NEAR(rec.reward, 1.0, 1e-6);
          break;
        case RecompileOutcome::kRecompileFailure:
          EXPECT_EQ(rec.reward, 0.0);
          break;
      }
      // Flip direction must disagree with the default config.
      EXPECT_EQ(rec.enable,
                !opt::RuleConfig::Default().IsEnabled(bit));
    }
  }
  EXPECT_GT(classified, 20);
}

TEST(RecommendTest, NoopFlipIsIdentity) {
  telemetry::WorkloadView view = DayView(13);
  auto features = GenerateFeatures(Engine(), view);
  ASSERT_FALSE(features.empty());
  bandit::PersonalizerService personalizer({.seed = 1});
  Recommender recommender(&Engine(), &personalizer, {});
  Recommendation rec = recommender.EvaluateFlip(features[0], -1);
  EXPECT_EQ(rec.outcome, RecompileOutcome::kEqualCost);
  EXPECT_DOUBLE_EQ(rec.reward, 1.0);
  EXPECT_EQ(rec.ToConfig(), opt::RuleConfig::Default());
}

TEST(RecommendTest, ForwardedRecommendationsAllImproveEstCost) {
  telemetry::WorkloadView view = DayView(17);
  auto features = GenerateFeatures(Engine(), view);
  bandit::PersonalizerService personalizer({.seed = 9});
  Recommender recommender(&Engine(), &personalizer, {});
  RecommenderStats stats;
  auto recs = recommender.RecommendDay(features, 0, &stats);
  EXPECT_EQ(stats.jobs, features.size());
  EXPECT_EQ(stats.forwarded, recs.size());
  for (const auto& rec : recs) {
    EXPECT_TRUE(rec.ImprovesEstimatedCost());
    EXPECT_LT(rec.est_cost_new, rec.est_cost_default);
  }
  // The off-policy design logs one uniform event and one acting event per
  // job (uniform probes default to 1).
  EXPECT_EQ(personalizer.logged_events(), 2 * features.size());
  EXPECT_EQ(personalizer.rewarded_events(), features.size());
}

TEST(RecommendTest, AblationDisablesPruning) {
  telemetry::WorkloadView view = DayView(17);
  auto features = GenerateFeatures(Engine(), view);
  bandit::PersonalizerService personalizer({.seed = 9});
  RecommenderConfig config;
  config.prune_non_improving = false;
  config.use_contextual_bandit = false;
  Recommender recommender(&Engine(), &personalizer, config);
  RecommenderStats stats;
  auto recs = recommender.RecommendDay(features, 0, &stats);
  // Without pruning, non-improving flips flow through too.
  size_t improving = 0;
  for (const auto& rec : recs) improving += rec.ImprovesEstimatedCost();
  EXPECT_GT(recs.size(), improving);
}

// ---------------------------------------------------------------------------
// Validation model.
// ---------------------------------------------------------------------------

TEST(ValidationTest, RefusesToTrainOnTooFewSamples) {
  ValidationModel model({.min_training_samples = 10});
  std::vector<ValidationSample> samples(5);
  EXPECT_FALSE(model.Train(samples).ok());
  EXPECT_FALSE(model.trained());
}

TEST(ValidationTest, LearnsIoToPnRelationship) {
  // Synthetic ground truth: pn_delta = 0.8*read + 0.3*written + noise.
  Rng rng(5);
  std::vector<ValidationSample> samples;
  for (int i = 0; i < 200; ++i) {
    ValidationSample s;
    s.data_read_delta = rng.Uniform(-0.6, 0.6);
    s.data_written_delta = rng.Uniform(-0.6, 0.6);
    s.future_pn_delta = 0.8 * s.data_read_delta + 0.3 * s.data_written_delta +
                        rng.Normal(0, 0.01);
    samples.push_back(s);
  }
  ValidationModel model({.accept_threshold = -0.1,
                         .min_training_samples = 50});
  ASSERT_TRUE(model.Train(samples).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_NEAR(model.regression().weights()[0], 0.8, 0.05);
  EXPECT_NEAR(model.regression().weights()[1], 0.3, 0.05);
  // Acceptance: a big read reduction is accepted, a regression is not.
  flight::FlightResult good;
  good.data_read_delta = -0.5;
  good.data_written_delta = -0.2;
  EXPECT_TRUE(model.Accept(good));
  flight::FlightResult bad;
  bad.data_read_delta = 0.2;
  bad.data_written_delta = 0.0;
  EXPECT_FALSE(model.Accept(bad));
  // Borderline: predicted just above the threshold is rejected.
  flight::FlightResult borderline;
  borderline.data_read_delta = -0.05;
  borderline.data_written_delta = 0.0;
  EXPECT_FALSE(model.Accept(borderline));
}

TEST(ValidationTest, UntrainedModelAcceptsNothing) {
  ValidationModel model;
  flight::FlightResult flight;
  flight.data_read_delta = -0.9;
  EXPECT_FALSE(model.Accept(flight));
}

// ---------------------------------------------------------------------------
// Hint generation.
// ---------------------------------------------------------------------------

TEST(HintGenTest, OneHintPerTemplateSkippingNoops) {
  std::vector<Recommendation> recs(4);
  recs[0].template_name = "A";
  recs[0].rule_id = opt::rules::kEagerAggregationLeft;
  recs[0].enable = true;
  recs[1].template_name = "A";  // duplicate template -> dropped
  recs[1].rule_id = opt::rules::kJoinAssociativity;
  recs[1].enable = true;
  recs[2].template_name = "B";
  recs[2].rule_id = -1;  // no-op -> dropped
  recs[3].template_name = "C";
  recs[3].rule_id = opt::rules::kJoinCommute;
  recs[3].enable = false;
  sis::HintFile file = BuildHintFile(recs, 9);
  EXPECT_EQ(file.day, 9);
  ASSERT_EQ(file.entries.size(), 2u);
  EXPECT_EQ(file.entries[0].template_name, "A");
  EXPECT_EQ(file.entries[0].rule_id, opt::rules::kEagerAggregationLeft);
  EXPECT_EQ(file.entries[1].template_name, "C");
  EXPECT_FALSE(file.entries[1].enable);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline.
// ---------------------------------------------------------------------------

TEST(PipelineTest, MultiDayRunProducesConsistentReportsAndHints) {
  obs::Registry::Get().ZeroAllForTest();
  experiments::ExperimentEnv env(
      {.num_templates = 40, .jobs_per_day = 80, .seed = 31});
  sis::StatsInsightService sis;
  PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 20;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  QoAdvisorPipeline pipeline(&env.engine(), &sis, config);

  size_t total_hints = 0;
  for (int day = 0; day < 10; ++day) {
    telemetry::WorkloadView view = env.BuildDayView(day, &sis);
    auto report = pipeline.RunDay(view);
    ASSERT_TRUE(report.ok()) << report.status();
    // Report arithmetic must be internally consistent.
    EXPECT_EQ(report->flights_success + report->flights_failure +
                  report->flights_timeout + report->flights_filtered +
                  report->flights_budget_rejected,
              report->flight_requests);
    EXPECT_LE(report->validated, report->flights_success);
    EXPECT_LE(report->hints_uploaded, report->validated);
    EXPECT_LE(report->recommender.forwarded, report->recommender.jobs);
    // Every uniform probe rewards its own freshly ranked event, so no
    // Reward() may ever be rejected (the status used to be discarded).
    EXPECT_EQ(report->recommender.reward_failures, 0u);
    total_hints += report->hints_uploaded;
  }
  EXPECT_EQ(sis.active_hints() > 0, total_hints > 0);
  // The validation model must have trained within ten days.
  EXPECT_TRUE(pipeline.validation_model().trained());
  EXPECT_GE(pipeline.validation_samples().size(), 20u);
  // The pipeline sweeps many rule configs per job (span probes, multi-flip,
  // flighting); the per-job cross-config memo must have served a nonzero
  // share of those optimizer runs from a previously compiled config.
  EXPECT_GT(Series("optimizer.memo.full_hits") +
                Series("optimizer.memo.norm_hits"),
            0.0);
  EXPECT_GT(SymbolTable::Global().size(), 2u);
}

TEST(PipelineTest, PersonalizerMemoryBoundedAcrossDays) {
  // One pipeline instance persists across days; the Personalizer's event
  // log must not grow without bound (retention drops events that have been
  // trained on / whose reward-join horizon has passed).
  obs::Registry::Get().ZeroAllForTest();
  experiments::ExperimentEnv env(
      {.num_templates = 40, .jobs_per_day = 80, .seed = 31});
  sis::StatsInsightService sis;
  PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.retrain_interval = 64;
  config.personalizer.retention_window = 256;
  QoAdvisorPipeline pipeline(&env.engine(), &sis, config);
  for (int day = 0; day < 8; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->recommender.reward_failures, 0u);
    EXPECT_LE(pipeline.personalizer().resident_events(), 256u);
  }
  // The run logged far more events than are retained...
  EXPECT_GT(pipeline.personalizer().logged_events(), 256u);
  EXPECT_GT(Series("bandit.events_compacted"), 0.0);
  // ...and every rewarded example still reaches the trainer: after a final
  // explicit retrain drains the pending batch, the incremental trainer has
  // consumed exactly one example per reward join — compaction never drops
  // an untrained example.
  pipeline.personalizer().Retrain();
  EXPECT_EQ(Series("bandit.examples_trained"), Series("bandit.reward_joins"));
  // The recommender's per-job combined-feature cache served every Rank.
  EXPECT_EQ(Series("bandit.combines"), 0.0);
  EXPECT_GT(Series("bandit.precombined_reused"), 0.0);
}

TEST(PipelineTest, HintedTemplatesCompileWithSingleFlip) {
  experiments::ExperimentEnv env(
      {.num_templates = 40, .jobs_per_day = 80, .seed = 31});
  sis::StatsInsightService sis;
  PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 20;
  config.recommender.uniform_probes_per_job = 3;
  QoAdvisorPipeline pipeline(&env.engine(), &sis, config);
  for (int day = 0; day < 12 && sis.active_hints() < 2; ++day) {
    pipeline.RunDay(env.BuildDayView(day, &sis)).ok();
  }
  if (sis.active_hints() == 0) GTEST_SKIP() << "no hints in 12 days";
  for (const auto& job : env.driver().DayJobs(12)) {
    auto hint = sis.LookupHint(job.template_name);
    if (!hint.has_value()) continue;
    opt::RuleConfig config_with_hint = hint->ToConfig();
    EXPECT_EQ(config_with_hint.DiffFromDefault().size(), 1u);
    auto compiled = env.engine().Compile(job, config_with_hint);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
  }
}

}  // namespace
}  // namespace qo::advisor
