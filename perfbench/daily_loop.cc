// daily_loop: the offline steering loop at the fig10 shape (90 templates,
// 150 jobs/day). Each day builds its view under the current SIS hints
// (ExperimentEnv::BuildDayView) and runs the pipeline on it
// (QoAdvisorPipeline::RunDay) with 3 pool workers plus the committing thread.
// After the training days an evaluation loop runs every evaluation-day job
// with the default configuration and, where a hint exists, with its hinted
// configuration under the same salt.
//
// The whole loop repeats from a fresh environment several times per run,
// each repetition on its own sub-seed of the workload seed, so one run
// averages over several workloads: jobs_per_s is the median and cpu_s the
// mean over the repetitions.
#include <cstdio>
#include <memory>

#include "common/hash.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "experiments/experiments.h"
#include "sis/sis.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qo;  // NOLINT

constexpr int kTemplates = 90;
constexpr int kJobsPerDay = 150;
constexpr int kTrainDays = 24;
constexpr int kEvalDays = 5;
/// Pool workers; with the committing thread the loop uses 4 threads.
constexpr int kPoolThreads = 3;

experiments::ExperimentConfig EnvConfig(uint64_t seed, int threads) {
  experiments::ExperimentConfig config;
  config.num_templates = kTemplates;
  config.jobs_per_day = kJobsPerDay;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// The fig10 experiment's pipeline settings (RunAggregateImpact).
advisor::PipelineConfig PipelineSettings() {
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1.0e6;
  config.validation.min_training_samples = 30;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.retrain_interval = 128;
  config.personalizer.epsilon = 0.15;
  return config;
}

/// One repetition's state: environment, hint store and pipeline.
struct LoopState {
  std::unique_ptr<experiments::ExperimentEnv> env;
  std::unique_ptr<sis::StatsInsightService> sis;
  std::unique_ptr<advisor::QoAdvisorPipeline> pipeline;
};

LoopState BuildLoop(uint64_t seed) {
  LoopState s;
  s.env = std::make_unique<experiments::ExperimentEnv>(
      EnvConfig(seed, kPoolThreads));
  s.sis = std::make_unique<sis::StatsInsightService>();
  s.pipeline = std::make_unique<advisor::QoAdvisorPipeline>(
      &s.env->engine(), s.sis.get(), PipelineSettings(), s.env->runtime());
  return s;
}

/// A timed call into one layer of the loop (traced repetitions only).
struct Stage {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

struct StageClock {
  bool traced = false;
  RegistryDelta* delta = nullptr;
  template <typename F>
  void Time(Stage* stage, const F& body) {
    if (!traced) {
      body();
      return;
    }
    obs::MetricsSnapshot before = TakeSnapshot();
    const uint64_t t0 = NowNs();
    const double c0 = ProcessCpuSec();
    body();
    stage->cpu_ms += (ProcessCpuSec() - c0) * 1e3;
    stage->wall_ms += static_cast<double>(NowNs() - t0) * 1e-6;
    delta->Add(RegistryDelta(before, TakeSnapshot()));
  }
};

struct RepResult {
  double setup_s = 0.0;
  double days_wall_s = 0.0;  ///< BuildDayView + RunDay over training days
  double wall_s = 0.0;       ///< days + evaluation
  double cpu_s = 0.0;
  std::string digest;
  std::map<std::string, double> counters;
  double pn_saving_pct = 0.0;
  double flight_budget_h = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Traced repetitions only.
  Stage build, run_day, eval;
  RegistryDelta delta;
  advisor::PipelineDayReport totals;
  size_t recommended_jobs = 0;
  size_t active_hints = 0;
};

/// Runs one repetition: training days then the evaluation loop.
RepResult RunRepetition(uint64_t seed, int repetition, bool traced) {
  RepResult r;
  const uint64_t setup_start = NowNs();
  LoopState s = BuildLoop(seed);
  r.setup_s = SetupSeconds(setup_start, repetition);

  Digest digest;
  StageClock clock{traced, &r.delta};
  const obs::MetricsSnapshot before = TakeSnapshot();
  const double cpu0 = ProcessCpuSec();
  const uint64_t t0 = NowNs();

  for (int day = 0; day < kTrainDays; ++day) {
    telemetry::WorkloadView view;
    clock.Time(&r.build, [&] { view = s.env->BuildDayView(day, s.sis.get()); });
    r.attempted += kJobsPerDay;
    r.failed += kJobsPerDay - std::min<size_t>(view.rows.size(), kJobsPerDay);
    Result<advisor::PipelineDayReport> day_report =
        advisor::PipelineDayReport{};
    clock.Time(&r.run_day, [&] { day_report = s.pipeline->RunDay(view); });
    if (!day_report.ok()) {
      ++r.failed;
      digest.AddLine("day " + std::to_string(day) + " failed: " +
                     day_report.status().ToString());
      continue;
    }
    const advisor::PipelineDayReport& rep = *day_report;
    digest.AddLine(rep.ToString());
    r.flight_budget_h += rep.flight_budget_used_hours;
    r.totals.flight_requests += rep.flight_requests;
    r.totals.flights_success += rep.flights_success;
    r.totals.flights_failure += rep.flights_failure;
    r.totals.flights_timeout += rep.flights_timeout;
    r.totals.flights_filtered += rep.flights_filtered;
    r.totals.flights_budget_rejected += rep.flights_budget_rejected;
    r.totals.hints_uploaded += rep.hints_uploaded;
    r.totals.recommender.forwarded += rep.recommender.forwarded;
    r.recommended_jobs += rep.recommender.jobs;
  }
  r.days_wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  for (const sis::HintFile& file : s.sis->history()) {
    digest.Add(file.Serialize());
  }

  // Evaluation loop: default vs hinted under one salt per job.
  struct EvalJob {
    workload::JobInstance job;
    bool hinted = false;
    opt::RuleConfig config = opt::RuleConfig::Default();
    uint64_t salt = 0;
  };
  struct EvalOut {
    bool base_ok = false;
    bool cand_ok = false;
    double base_pn = 0.0;
    double cand_pn = 0.0;
  };
  double base_total = 0.0;
  double steered_total = 0.0;
  clock.Time(&r.eval, [&] {
    Rng rng(seed ^ 0xab1e);
    std::vector<EvalJob> jobs;
    for (int day = kTrainDays; day < kTrainDays + kEvalDays; ++day) {
      for (auto& job : s.env->driver().DayJobs(day)) {
        auto hint = s.sis->LookupHint(job.template_name);
        EvalJob e;
        e.hinted = hint.has_value();
        e.config = e.hinted ? hint->ToConfig() : opt::RuleConfig::Default();
        e.job = std::move(job);
        e.salt = rng.Next();
        jobs.push_back(std::move(e));
      }
    }
    runtime::ForEachOrdered<EvalOut>(
        s.env->runtime(), jobs.size(),
        [&](size_t i) {
          return static_cast<uint64_t>(jobs[i].job.template_id);
        },
        [](size_t i) { return static_cast<double>(i); },
        [&](size_t i) {
          const EvalJob& e = jobs[i];
          EvalOut out;
          auto base = s.env->engine().Run(e.job, opt::RuleConfig::Default(),
                                          e.salt);
          out.base_ok = base.ok();
          if (base.ok()) out.base_pn = base->metrics.pn_hours;
          if (e.hinted) {
            auto cand = s.env->engine().Run(e.job, e.config, e.salt);
            out.cand_ok = cand.ok();
            if (cand.ok()) out.cand_pn = cand->metrics.pn_hours;
          }
          return out;
        },
        [&](size_t i, EvalOut&& out) {
          const EvalJob& e = jobs[i];
          r.attempted += e.hinted ? 2 : 1;
          char line[160];
          if (!out.base_ok) {
            ++r.failed;
            std::snprintf(line, sizeof(line), "eval %s base failed",
                          e.job.job_id.c_str());
            digest.AddLine(line);
            return;
          }
          // A hinted plan that fails to compile is an output (an infeasible
          // flip): the job runs its default plan, as SCOPE falls back.
          const double steered = out.cand_ok ? out.cand_pn : out.base_pn;
          base_total += out.base_pn;
          steered_total += steered;
          std::snprintf(line, sizeof(line), "eval %s %d %d %.9g %.9g",
                        e.job.job_id.c_str(), e.hinted ? 1 : 0,
                        out.cand_ok ? 1 : 0, out.base_pn, steered);
          digest.AddLine(line);
        });
  });
  r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  r.cpu_s = ProcessCpuSec() - cpu0;
  r.pn_saving_pct =
      base_total > 0.0 ? 100.0 * (base_total - steered_total) / base_total
                       : 0.0;
  r.active_hints = s.sis->active_hints();
  char tail[96];
  std::snprintf(tail, sizeof(tail), "pn_saving %.9g budget %.9g hints %zu",
                r.pn_saving_pct, r.flight_budget_h, r.active_hints);
  digest.AddLine(tail);
  r.digest = digest.Hex();

  RegistryDelta delta(before, TakeSnapshot());
  Report scratch;
  SetWorkCounters(delta, &scratch);
  r.counters = scratch.counters;
  r.counters["combines"] = delta.Series("bandit.combines");
  r.counters["examples_trained"] = delta.Series("bandit.examples_trained");
  r.counters["flights_success"] = static_cast<double>(r.totals.flights_success);
  r.counters["flights_failure"] = static_cast<double>(r.totals.flights_failure);
  r.counters["flights_timeout"] = static_cast<double>(r.totals.flights_timeout);
  r.counters["flights_filtered"] =
      static_cast<double>(r.totals.flights_filtered);
  r.counters["flights_budget_rejected"] =
      static_cast<double>(r.totals.flights_budget_rejected);
  r.counters["hints_uploaded"] = static_cast<double>(r.totals.hints_uploaded);
  return r;
}

int Repetitions(double seconds) {
  return std::max(3, static_cast<int>(seconds * 0.6 + 0.5));
}

/// Repetition k's workload seed.
uint64_t SubSeed(uint64_t seed, int k) {
  return k == 0 ? seed
                : MixHash(seed ^ (0x7f4a7c15ULL * static_cast<uint64_t>(k)));
}

void SetTracedMetrics(const Options& options, const RepResult& plain,
                      RepResult& t, double traced_ms, Report* report) {
  MetricTable& m = report->metrics;
  SetEngineLayerMetrics(t.delta, report);
  m.Set("bandit.combines", t.delta.Series("bandit.combines"), "count");
  m.Set("bandit.retrains", t.delta.Series("bandit.retrains"), "count");
  m.Set("bandit.examples_trained", t.delta.Series("bandit.examples_trained"),
        "count");
  m.Set("bandit.retrain_ms", t.delta.SumMs("span.retrain"), "ms");
  const double stage_ms = t.build.wall_ms + t.run_day.wall_ms + t.eval.wall_ms;
  m.Set("core.build_day_view_ms", t.build.wall_ms, "ms");
  m.Set("core.run_day_ms", t.run_day.wall_ms, "ms");
  m.Set("core.feature_gen_ms", t.delta.SumMs("span.feature_gen"), "ms");
  m.Set("core.recommend_ms", t.delta.SumMs("span.recommend"), "ms");
  m.Set("core.validate_ms", t.delta.SumMs("span.validate"), "ms");
  m.Set("core.hint_gen_ms", t.delta.SumMs("span.hint_gen"), "ms");
  m.Set("core.eval_ms", t.eval.wall_ms, "ms");
  m.Set("core.glue_ms", traced_ms - stage_ms, "ms");
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m.Set("core.forwarded_ratio",
        ratio(static_cast<double>(t.totals.recommender.forwarded),
              static_cast<double>(t.recommended_jobs)),
        "ratio");
  m.Set("flighting.flights", static_cast<double>(t.totals.flight_requests),
        "count");
  m.Set("flighting.ms", t.delta.SumMs("span.flight"), "ms");
  m.Set("flighting.success_ratio",
        ratio(static_cast<double>(t.totals.flights_success),
              static_cast<double>(t.totals.flight_requests)),
        "ratio");
  m.Set("flighting.budget_rejected",
        static_cast<double>(t.totals.flights_budget_rejected), "count");
  m.Set("sis.hints_uploaded", static_cast<double>(t.totals.hints_uploaded),
        "count");
  m.Set("sis.active_hints", static_cast<double>(t.active_hints), "count");
  m.Set("pn_saving_pct", t.pn_saving_pct, "%");
  m.Set("flight_budget_h", t.flight_budget_h, "machine-h");
  constexpr double kThreads = kPoolThreads + 1;
  auto eff = [&](const Stage& s) {
    return ratio(s.cpu_ms, s.wall_ms * kThreads);
  };
  m.Set("runtime.par_eff.build_day_view", eff(t.build), "ratio");
  m.Set("runtime.par_eff.run_day", eff(t.run_day), "ratio");
  m.Set("runtime.par_eff.eval", eff(t.eval), "ratio");
  {
    workload::WorkloadDriver driver({.num_templates = kTemplates,
                                     .jobs_per_day = kJobsPerDay,
                                     .seed = options.seed});
    const uint64_t g0 = NowNs();
    for (int day = 0; day < kTrainDays + kEvalDays; ++day) driver.DayJobs(day);
    m.Set("workload.gen_ms", static_cast<double>(NowNs() - g0) * 1e-6, "ms");
  }
  m.Set("obs.overhead_pct", 100.0 * (t.wall_s - plain.wall_s) / plain.wall_s,
        "%");
  char line[200];
  std::snprintf(line, sizeof(line),
                "stages: build_day_view %.1f ms + run_day %.1f ms + eval "
                "%.1f ms + glue %.1f ms = traced wall %.1f ms",
                t.build.wall_ms, t.run_day.wall_ms, t.eval.wall_ms,
                traced_ms - stage_ms, traced_ms);
  report->lines.push_back(line);
  ReportLedger(t.delta, t.build.cpu_ms + t.run_day.cpu_ms + t.eval.cpu_ms,
               0.0, {.scope_optimizer_dominates = true}, report);
  report->missing = t.delta.missing();
}

}  // namespace

void RunDailyLoop(const Options& options, Report* report) {
  const int repetitions = Repetitions(options.seconds);
  std::vector<double> setups, throughput, cpu;
  auto account = [&](const RepResult& r) {
    report->attempted += r.attempted;
    report->failed += r.failed;
  };

  if (options.trace) {
    // A warm-up repetition as in a timed run, then repetition 0 plain and
    // again traced over the same work.
    RunRepetition(SubSeed(options.seed, 1000), 0, false);
    RepResult plain = RunRepetition(options.seed, 1, false);
    const uint64_t traced_start = NowNs();
    RepResult traced = RunRepetition(options.seed, 2, true);
    const double traced_ms =
        static_cast<double>(NowNs() - traced_start) * 1e-6 -
        traced.setup_s * 1e3;
    if (traced.digest != plain.digest) {
      report->violations.push_back("daily_loop traced digest " +
                                   traced.digest + " != " + plain.digest);
    }
    SetTracedMetrics(options, plain, traced, traced_ms, report);
    account(plain);
    account(traced);
    report->counters = traced.counters;
    report->digest = "loop0=" + traced.digest;
    return;
  }

  // A warm-up repetition on a sub-seed of its own brings the heap and the
  // process-wide tables to their working size; only its set-up counts.
  setups.push_back(
      RunRepetition(SubSeed(options.seed, 1000), 0, false).setup_s);
  for (int k = 0; k < repetitions; ++k) {
    RepResult r = RunRepetition(SubSeed(options.seed, k), k + 1, false);
    account(r);
    setups.push_back(r.setup_s);
    throughput.push_back(kTrainDays * kJobsPerDay / r.days_wall_s);
    cpu.push_back(r.cpu_s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "repetition %d: %.0f jobs/s, %.3f s CPU, %.3f s wall, "
                  "pn_saving %.3f%%, %zu active hints",
                  k, throughput.back(), r.cpu_s,
                  r.wall_s, r.pn_saving_pct, r.active_hints);
    report->lines.push_back(line);
    if (k == 0) {
      report->counters = r.counters;
      report->digest = "loop0=" + r.digest;
    }
  }

  // Every repetition is a different workload (its own sub-seed). The
  // median throughput is not moved by a stall of the host that hits a few
  // of them; CPU time does not count such stalls and is averaged.
  double cpu_sum = 0.0;
  for (double c : cpu) cpu_sum += c;
  MetricTable& m = report->metrics;
  m.Set("setup_s", Median(setups), "s");
  m.Set("cpu_s", cpu_sum / static_cast<double>(cpu.size()), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("jobs_per_s", Median(throughput), "1/s");
}

}  // namespace perfbench
