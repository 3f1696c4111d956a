// Integration tests asserting the paper's qualitative shapes on reduced
// workloads (the full-size reproductions live in bench/).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace qo::experiments {
namespace {

ExperimentConfig SmallConfig() {
  return {.num_templates = 40, .jobs_per_day = 60, .seed = 2022, .aa_runs = 8};
}

TEST(ExperimentsTest, BuildDayViewExecutesWholeDay) {
  ExperimentEnv env(SmallConfig());
  telemetry::WorkloadView view = env.BuildDayView(0);
  EXPECT_EQ(view.rows.size(), 60u);
  for (const auto& row : view.rows) {
    EXPECT_GT(row.pn_hours, 0);
    EXPECT_GT(row.est_cost, 0);
  }
}

TEST(ExperimentsTest, BuildDayViewAppliesSisHints) {
  ExperimentEnv env(SmallConfig());
  // Install a hint for the most popular template and check the signature of
  // its occurrences changes when the flip matters.
  sis::StatsInsightService sis;
  telemetry::WorkloadView before = env.BuildDayView(0);
  ASSERT_FALSE(before.rows.empty());
  sis::HintFile file;
  file.entries.push_back({before.rows[0].normalized_job_name,
                          opt::rules::kEagerAggregationLeft, true});
  ASSERT_TRUE(sis.UploadHintFile(file).ok());
  telemetry::WorkloadView after = env.BuildDayView(0, &sis);
  EXPECT_EQ(before.rows.size(), after.rows.size());
}

TEST(ExperimentsTest, AAVarianceShapes) {
  ExperimentEnv env(SmallConfig());
  VarianceResult latency = RunAAVariance(env, Metric::kLatency);
  VarianceResult pn = RunAAVariance(env, Metric::kPnHours);
  ASSERT_FALSE(latency.time_vs_cv.empty());
  // Fig. 3: the overwhelming majority of jobs exceed 5% latency variance.
  EXPECT_GT(latency.fraction_above_5pct, 0.7);
  // Fig. 5: PNhours is far more stable.
  EXPECT_LT(pn.fraction_above_5pct, 0.5);
  EXPECT_LT(pn.fraction_above_5pct, latency.fraction_above_5pct);
  // Normalized execution times are within [0, 1].
  for (auto& [t, cv] : latency.time_vs_cv) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
    EXPECT_GE(cv, 0.0);
  }
}

TEST(ExperimentsTest, RecurringStabilityShowsRegressions) {
  ExperimentEnv env(SmallConfig());
  StabilityResult latency = RunRecurringStability(env, Metric::kLatency);
  ASSERT_GT(latency.week0_week1.size(), 3u);
  // All kept points improved in week0 by construction.
  for (auto& [w0, w1] : latency.week0_week1) EXPECT_LT(w0, 0.0);
  // Fig. 2: a substantial share regresses in week1.
  EXPECT_GT(latency.regress_fraction, 0.15);
  EXPECT_LT(latency.regress_fraction, 0.9);
}

TEST(ExperimentsTest, CostVsLatencyDecorrelated) {
  ExperimentEnv env(SmallConfig());
  CostLatencyResult result = RunCostVsLatency(env, /*days=*/3);
  ASSERT_GT(result.cost_vs_latency.size(), 10u);
  // Fig. 6: "no real correlation" — a meaningful share of estimated-cost
  // winners still regress latency.
  EXPECT_GT(result.improved_cost_latency_regress_fraction, 0.2);
  EXPECT_LT(std::abs(result.correlation), 0.7);
}

TEST(ExperimentsTest, DataReadPredictsPnHours) {
  ExperimentEnv env(SmallConfig());
  IoPnResult read = RunIoVsPn(env, IoMetric::kDataRead, /*days=*/3);
  ASSERT_GT(read.io_vs_pn.size(), 10u);
  // Fig. 7: clear positive trend.
  EXPECT_GT(read.correlation, 0.4);
  EXPECT_GT(read.trend.slope, 0.0);
}

TEST(ExperimentsTest, ValidationModelGeneralizesTemporally) {
  ExperimentEnv env(SmallConfig());
  ValidationAccuracyResult result =
      RunValidationAccuracy(env, /*train_days=*/8, -0.1, /*test_days=*/4);
  ASSERT_GT(result.test_jobs, 0u);
  // Fig. 9: among accepted jobs the vast majority truly improve.
  if (result.accepted > 0) {
    EXPECT_GE(result.frac_actual_below_zero, 0.7);
  }
  EXPECT_GT(result.model_r2, 0.2);
}

TEST(ExperimentsTest, CbBeatsRandomOnEstimatedCost) {
  ExperimentEnv env(SmallConfig());
  RandomVsCbResult result = RunRandomVsCb(env, /*cb_train_days=*/6,
                                          /*eval_day=*/6);
  ASSERT_GT(result.jobs_with_span, 10u);
  // Paper Sec. 5.6 / Table 3: the span is non-empty for roughly two thirds
  // of the jobs, and CB finds more lower-cost plans with fewer failures and
  // fewer higher-cost plans than uniform random flips.
  double span_share = static_cast<double>(result.jobs_with_span) /
                      static_cast<double>(result.jobs_total);
  EXPECT_GT(span_share, 0.4);
  EXPECT_LT(span_share, 0.95);
  // At this reduced scale the CB has little training data, so require only
  // parity on wins (the full-scale Table 3 bench shows the 3x gap) while the
  // loss-avoidance effects are already decisive.
  EXPECT_GE(result.cb.lower_cost, result.random.lower_cost);
  EXPECT_LT(result.cb.higher_cost, result.random.higher_cost);
  EXPECT_LE(result.cb.recompile_failures, result.random.recompile_failures);
  EXPECT_LT(result.cb.total_est_cost, result.random.total_est_cost);
}

TEST(ExperimentsTest, CostFilterAblationFloodsFlighting) {
  ExperimentEnv env(SmallConfig());
  CostFilterAblationResult result = RunCostFilterAblation(env);
  // Sec. 5.2: without the estimated-cost filters far more jobs reach
  // flighting and the provisioned budget no longer suffices.
  EXPECT_GT(result.flights_requested_without_filter,
            2 * result.flights_requested_with_filter);
  EXPECT_GE(result.budget_hours_without_filter,
            result.budget_hours_with_filter);
  EXPECT_EQ(result.timeouts_with_filter, 0u);
}

TEST(ExperimentsTest, EndToEndPipelineImpactIsNetPositive) {
  // The validation model needs min_training_samples flighting observations
  // before any hint goes live, and at SmallConfig scale (40x60) no template
  // accumulates enough within 14 train days — the hint file stays empty and
  // nothing matches on the eval days. Run this end-to-end test on a slightly
  // larger workload so the Table-2 assertion is actually exercised.
  ExperimentConfig config = SmallConfig();
  config.num_templates = 60;
  config.jobs_per_day = 90;
  ExperimentEnv env(config);
  AggregateImpactResult result =
      RunAggregateImpact(env, /*train_days=*/14, /*eval_days=*/4);
  ASSERT_GT(result.matched_jobs, 0) << "no hints matched: the pipeline "
                                       "produced no live hints at this scale";
  ASSERT_GT(result.active_hints, 0u);
  // Table 2: net PNhours reduction on matched jobs.
  EXPECT_LT(result.pn_hours_reduction, 0.0);
  EXPECT_EQ(result.pn_deltas.size(),
            static_cast<size_t>(result.matched_jobs));
  // Drill-down series are sorted.
  for (size_t i = 1; i < result.pn_deltas.size(); ++i) {
    EXPECT_LE(result.pn_deltas[i - 1], result.pn_deltas[i]);
  }
}

TEST(ExperimentsTest, RunReportCarriesKeyPipelineSeries) {
  // The observability contract the bench scripts and CI artifacts rely on:
  // after an end-to-end run, one run-report line carries phase quantiles and
  // every subsystem's counters as series.
  obs::SetMetricsEnabledForTest(1);
  obs::Registry::Get().ZeroAllForTest();
  {
    ExperimentEnv env(SmallConfig());
    sis::StatsInsightService sis;
    advisor::PipelineConfig config;
    config.runtime = env.runtime_options();
    // Snapshot while the pipeline is alive: its collector exports the
    // SIS, flight-budget and bandit-log state.
    advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config,
                                        env.runtime());
    for (int day = 0; day < 4; ++day) {
      ASSERT_TRUE(pipeline.RunDay(env.BuildDayView(day, &sis)).ok());
    }
    obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
    const std::string line = obs::RunReportJsonLine("experiments_test", 0, snap);
    obs::SetMetricsEnabledForTest(-1);

    // Line is a single JSON object with both top-level sections populated.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"series\":{"), std::string::npos);
    EXPECT_NE(line.find("\"quantiles\":{"), std::string::npos);
    EXPECT_NE(line.find("\"span.compile\":{\"count\":"), std::string::npos);

    // Compile-phase latency quantiles are populated.
    const obs::HistogramSnapshot* compile = snap.FindHistogram("span.compile");
    ASSERT_NE(compile, nullptr);
    EXPECT_GT(compile->total, 0u);
    EXPECT_GT(compile->Quantile(0.5), 0u);

    // The memo served part of the compiles, and the bandit's reward join
    // never failed.
    EXPECT_GT(snap.SeriesValue("optimizer.memo.full_hits") +
                  snap.SeriesValue("optimizer.memo.norm_hits"),
              0.0);
    ASSERT_TRUE(snap.HasSeries("bandit.reward_failures"));
    EXPECT_EQ(snap.SeriesValue("bandit.reward_failures"), 0.0);
    EXPECT_GT(snap.SeriesValue("bandit.ranks"), 0.0);
  }
  obs::SetMetricsEnabledForTest(-1);
}

}  // namespace
}  // namespace qo::experiments
