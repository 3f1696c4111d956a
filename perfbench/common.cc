// Helpers shared by the workloads: setup timing, the per-layer metric set,
// registry-derived layer metrics and counters, the busy-time ledger and the
// open-loop plan.
#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

uint64_t g_process_start_ns = 0;

qo::workload::JobInstance JobStream::Next() {
  if (next_ == jobs_.size()) {
    const uint64_t start = NowNs();
    jobs_ = driver_->DayJobs(day_++);
    gen_ns_ += static_cast<double>(NowNs() - start);
    next_ = 0;
  }
  return std::move(jobs_[next_++]);
}

double SetupSeconds(uint64_t start_ns, int repetition) {
  const uint64_t from = repetition == 0 ? g_process_start_ns : start_ns;
  return static_cast<double>(NowNs() - from) * 1e-9;
}

namespace {

/// Every per-layer metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"p50_us_low", "us"},
      {"p99_us_low", "us"},
      {"p50_us_high", "us"},
      {"p99_us_high", "us"},
      {"max_qps", "1/s"},
      {"scope.parses", "count"},
      {"scope.parse_ms", "ms"},
      {"optimizer.optimizes", "count"},
      {"optimizer.optimize_ms", "ms"},
      {"optimizer.memo_hit_ratio", "ratio"},
      {"cache.fe_hit_ratio", "ratio"},
      {"cache.l2_hit_ratio", "ratio"},
      {"cache.l2_misses", "count"},
      {"cache.evictions", "count"},
      {"engine.compiles", "count"},
      {"engine.compile_self_ms", "ms"},
      {"exec.runs", "count"},
      {"exec.prepares", "count"},
      {"exec.ms", "ms"},
      {"exec.profile_reuse_ratio", "ratio"},
      {"bandit.ranks", "count"},
      {"bandit.combines", "count"},
      {"bandit.rank_ms", "ms"},
      {"bandit.reward_ms", "ms"},
      {"bandit.retrains", "count"},
      {"bandit.examples_trained", "count"},
      {"bandit.retrain_ms", "ms"},
      {"core.build_day_view_ms", "ms"},
      {"core.run_day_ms", "ms"},
      {"core.feature_gen_ms", "ms"},
      {"core.recommend_ms", "ms"},
      {"core.validate_ms", "ms"},
      {"core.hint_gen_ms", "ms"},
      {"core.eval_ms", "ms"},
      {"core.glue_ms", "ms"},
      {"core.forwarded_ratio", "ratio"},
      {"flighting.flights", "count"},
      {"flighting.ms", "ms"},
      {"flighting.success_ratio", "ratio"},
      {"flighting.budget_rejected", "count"},
      {"sis.hints_uploaded", "count"},
      {"sis.active_hints", "count"},
      {"pn_saving_pct", "%"},
      {"flight_budget_h", "machine-h"},
      {"service.compile_us_p50", "us"},
      {"service.compile_us_p99", "us"},
      {"service.rank_us_p50", "us"},
      {"service.rank_us_p99", "us"},
      {"service.reward_us_p99", "us"},
      {"service.upload_us_p99", "us"},
      {"service.publications", "count"},
      {"service.queue_wait_us_p99", "us"},
      {"service.gen_late_us_p99", "us"},
      {"runtime.par_eff.build_day_view", "ratio"},
      {"runtime.par_eff.run_day", "ratio"},
      {"runtime.par_eff.eval", "ratio"},
      {"workload.gen_ms", "ms"},
      {"obs.overhead_pct", "%"},
      {"ledger.scope_optimizer_pct", "%"},
      {"ledger.compile_self_pct", "%"},
      {"ledger.exec_pct", "%"},
      {"ledger.bandit_pct", "%"},
      {"ledger.flight_pct", "%"},
  };
  return kMetrics;
}

}  // namespace

void FillPerLayerDefaults(Report* report) {
  MetricTable ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0.0;
    for (const auto& row : report->metrics.rows()) {
      if (row.first == name) value = row.second.first;
    }
    ordered.Set(name, value, unit);
  }
  report->metrics = ordered;
}

namespace {

/// Rungs of the max_qps ladder: 2% apart over the serve_* ranges.
constexpr int kLadderRungs = 126;
/// The p99 latency max_qps must meet.
constexpr double kLatencyLimitUs = 1000.0;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void SetEngineLayerMetrics(RegistryDelta& d, Report* report) {
  MetricTable& m = report->metrics;
  const double parse_ms = d.SumMs("span.parse");
  const double optimize_ms = d.SumMs("span.optimize");
  m.Set("scope.parses", d.Count("span.parse"), "count");
  m.Set("scope.parse_ms", parse_ms, "ms");
  m.Set("optimizer.optimizes", d.Count("span.optimize"), "count");
  m.Set("optimizer.optimize_ms", optimize_ms, "ms");
  const double memo_hits = d.Series("optimizer.memo.full_hits") +
                           d.Series("optimizer.memo.norm_hits");
  m.Set("optimizer.memo_hit_ratio",
        Ratio(memo_hits, memo_hits + d.Series("optimizer.memo.misses")),
        "ratio");
  const double fe_hits = d.Series("cache.front_end.hits");
  m.Set("cache.fe_hit_ratio",
        Ratio(fe_hits, fe_hits + d.Series("cache.front_end.misses")), "ratio");
  const double l2_hits = d.Series("cache.compilations.hits");
  const double l2_misses = d.Series("cache.compilations.misses");
  m.Set("cache.l2_hit_ratio", Ratio(l2_hits, l2_hits + l2_misses), "ratio");
  m.Set("cache.l2_misses", l2_misses, "count");
  m.Set("cache.evictions",
        d.Series("cache.front_end.evictions") +
            d.Series("cache.compilations.evictions"),
        "count");
  m.Set("engine.compiles", d.Count("span.compile"), "count");
  m.Set("engine.compile_self_ms",
        std::max(0.0, d.SumMs("span.compile") - parse_ms - optimize_ms), "ms");
  m.Set("exec.runs",
        d.Series("exec.prepared_runs") + d.Series("exec.unprepared_runs"),
        "count");
  m.Set("exec.prepares", d.Series("exec.prepares"), "count");
  m.Set("exec.ms", d.SumMs("span.execute") + d.SumMs("span.exec.run_batch"),
        "ms");
  const double profile_hits = d.Series("exec.profile_hits");
  m.Set("exec.profile_reuse_ratio",
        Ratio(profile_hits, profile_hits + d.Series("exec.profile_misses")),
        "ratio");
  m.Set("bandit.ranks", d.Count("span.rank"), "count");
  m.Set("bandit.rank_ms", d.SumMs("span.rank"), "ms");
  m.Set("bandit.reward_ms", d.SumMs("span.reward"), "ms");
}

void SetWorkCounters(RegistryDelta& d, Report* report) {
  auto& c = report->counters;
  c["parses"] = d.Count("span.parse");
  c["optimizes"] = d.Count("span.optimize");
  c["memo_hits"] = d.Series("optimizer.memo.full_hits") +
                   d.Series("optimizer.memo.norm_hits");
  c["fe_hits"] = d.Series("cache.front_end.hits");
  c["fe_misses"] = d.Series("cache.front_end.misses");
  c["l2_hits"] = d.Series("cache.compilations.hits");
  c["l2_misses"] = d.Series("cache.compilations.misses");
  c["exec_prepares"] = d.Series("exec.prepares");
  c["exec_runs"] =
      d.Series("exec.prepared_runs") + d.Series("exec.unprepared_runs");
  c["ranks"] = d.Count("span.rank");
}

void ReportLedger(RegistryDelta& d, double busy_ms, double extra_bandit_ms,
                  const LedgerPrediction& prediction, Report* report) {
  const double parse = d.SumMs("span.parse");
  const double optimize = d.SumMs("span.optimize");
  const double compile_self =
      std::max(0.0, d.SumMs("span.compile") - parse - optimize);
  const double exec = d.SumMs("span.execute") + d.SumMs("span.exec.run_batch");
  const double bandit = d.SumMs("span.rank") + d.SumMs("span.reward") +
                        d.SumMs("span.retrain") + extra_bandit_ms;
  const double flight = d.SumMs("span.flight");
  const double other =
      busy_ms - (parse + optimize + compile_self + exec + bandit);
  auto pct = [&](double v) {
    return busy_ms > 0.0 ? 100.0 * v / busy_ms : 0.0;
  };

  char line[256];
  std::snprintf(line, sizeof(line),
                "ledger: busy %.1f ms = parse %.1f (%.1f%%) + optimize %.1f "
                "(%.1f%%) + compile_self %.1f (%.1f%%) + exec %.1f (%.1f%%) + "
                "bandit %.1f (%.1f%%) + other %.1f (%.1f%%)",
                busy_ms, parse, pct(parse), optimize, pct(optimize),
                compile_self, pct(compile_self), exec, pct(exec), bandit,
                pct(bandit), other, pct(other));
  report->lines.push_back(line);
  std::snprintf(line, sizeof(line),
                "ledger: flight %.1f ms (%.1f%%, includes the compiles and "
                "executions it runs)",
                flight, pct(flight));
  report->lines.push_back(line);

  MetricTable& m = report->metrics;
  m.Set("ledger.scope_optimizer_pct", pct(parse + optimize), "%");
  m.Set("ledger.compile_self_pct", pct(compile_self), "%");
  m.Set("ledger.exec_pct", pct(exec), "%");
  m.Set("ledger.bandit_pct", pct(bandit), "%");
  m.Set("ledger.flight_pct", pct(flight), "%");

  auto verdict = [&](const char* name, bool pass, double share) {
    std::snprintf(line, sizeof(line), "prediction %s: %s (%.1f%% of busy)",
                  name, pass ? "PASS" : "FAIL", share);
    report->lines.push_back(line);
  };
  const double scope_opt = parse + optimize;
  const double largest_other = std::max({compile_self, exec, bandit});
  if (prediction.scope_optimizer_dominates) {
    verdict("scope+optimizer dominate busy time",
            scope_opt >= largest_other && scope_opt >= other, pct(scope_opt));
  }
  if (prediction.scope_optimizer_zero) {
    verdict("no parse or optimize after setup",
            d.Count("span.parse") == 0 && d.Count("span.optimize") == 0,
            pct(scope_opt));
  }
  if (prediction.bandit_dominates) {
    verdict("bandit dominates busy time",
            bandit >= std::max({scope_opt, compile_self, exec, other}),
            pct(bandit));
  }
  verdict("exec below 5% of busy time", pct(exec) < 5.0, pct(exec));
}

std::vector<Segment> RunSegments(Target& target, double rate, int segments,
                                 uint64_t count, const SegmentHooks& hooks,
                                 uint64_t* next_index) {
  std::vector<Segment> out;
  for (int s = -1; s < segments; ++s) {
    hooks.begin(*next_index, count);
    Segment seg = RunSegment(target, rate, *next_index, count);
    *next_index += count;
    if (s >= 0) {
      out.push_back(std::move(seg));
      hooks.after(out.back());
    }
    hooks.end();
  }
  return out;
}

int ServeSegments(double seconds, double per_second) {
  return std::max(kCheckedSegments,
                  static_cast<int>(seconds * per_second + 0.5));
}

void SetServiceMetrics(const RatePlan& plan,
                       const std::vector<Segment>& segments, Report* report) {
  // Each wall-clock figure is the median over segments of that segment's
  // figure, so one segment hit by a stall of the host moves it little. CPU
  // time does not count such stalls and is the mean segment's.
  const std::vector<double> ladder =
      RateLadder(plan.ladder_lo, plan.ladder_hi, kLadderRungs);
  const double limit = kLatencyLimitUs;
  std::vector<double> cpu, throughput, p50_low, p99_low, p50_high, p99_high,
      qps;
  for (const Segment& s : segments) {
    cpu.push_back(s.cpu_s);
    throughput.push_back(static_cast<double>(s.count) / s.wall_s);
    bool backlog = false;
    std::vector<double> low = ReplayAtRate(s, plan.low_qps, limit, &backlog);
    p50_low.push_back(Quantile(low, 0.50));
    p99_low.push_back(Quantile(low, 0.99));
    std::vector<double> high = ReplayAtRate(s, plan.high_qps, limit, &backlog);
    p50_high.push_back(Quantile(high, 0.50));
    p99_high.push_back(Quantile(high, 0.99));
    double max_qps = 0.0;
    for (double rate : ladder) {
      std::vector<double> lat = ReplayAtRate(s, rate, limit, &backlog);
      if (backlog || Quantile(std::move(lat), 0.99) > limit) break;
      max_qps = rate;
    }
    qps.push_back(max_qps);
  }
  MetricTable& m = report->metrics;
  double cpu_sum = 0.0;
  for (double c : cpu) cpu_sum += c;
  m.Set("cpu_s", cpu.empty() ? 0.0 : cpu_sum / static_cast<double>(cpu.size()),
        "s");
  m.Set("jobs_per_s", Median(throughput), "1/s");
  m.Set("p50_us_low", Median(p50_low), "us");
  m.Set("p99_us_low", Median(p99_low), "us");
  m.Set("p50_us_high", Median(p50_high), "us");
  m.Set("p99_us_high", Median(p99_high), "us");
  m.Set("max_qps", Median(qps), "1/s");
  char line[256];
  std::snprintf(line, sizeof(line),
                "service: %zu closed-loop segments of %llu requests, "
                "throughput %.0f/s, replayed at %.0f and %.0f req/s; "
                "segment CPU min %.3f s, median %.3f s, max %.3f s",
                segments.size(),
                static_cast<unsigned long long>(
                    segments.empty() ? 0 : segments[0].count),
                Median(throughput), plan.low_qps, plan.high_qps,
                Quantile(cpu, 0.0), Median(cpu), Quantile(cpu, 1.0));
  report->lines.push_back(line);
}

void Account(const std::vector<Segment>& segments, Report* report) {
  for (const Segment& s : segments) {
    report->attempted += s.count;
    report->failed += s.failed;
  }
}

void SetPacedDiagnostics(const std::vector<Segment>& paced, Report* report) {
  std::vector<double> wait, late;
  for (const Segment& s : paced) {
    wait.insert(wait.end(), s.queue_us.begin(), s.queue_us.end());
    late.insert(late.end(), s.gen_late_us.begin(), s.gen_late_us.end());
  }
  report->metrics.Set("service.queue_wait_us_p99", Quantile(wait, 0.99), "us");
  report->metrics.Set("service.gen_late_us_p99", Quantile(late, 0.99), "us");
}

double ServiceMs(const std::vector<Segment>& segments) {
  double ms = 0.0;
  for (const Segment& s : segments) {
    for (double us : s.service_us) ms += us * 1e-3;
  }
  return ms;
}

}  // namespace perfbench
