// serve_compile: the production compile path. Each request is
// TenantSession::Compile of a fresh job occurrence under the tenant's
// published hints, for 6 tenants over 3 workers (tenant = i % 6, so every
// tenant's stream runs in order on one worker). At fixed points of each
// tenant's stream the request is an UploadHints instead, which publishes a
// new snapshot while the other tenants keep compiling.
//
// Requests run in closed-loop segments (see open_loop.h for how their
// service demands give the open-loop latencies). Each segment serves a fresh
// AdvisorService, so the compile caches start cold, mostly miss and insert,
// and memory stays bounded by the segment. The segments are deterministic:
// every response of the first kCheckedSegments segments is digested into
// its tenant's transcript.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <variant>

#include "common/hash.h"
#include "common/rng.h"
#include "optimizer/rules.h"
#include "service/advisor_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace qo;  // NOLINT

constexpr int kTenants = 6;
/// A tenant uploads a hint file at every kUploadEvery-th request of its
/// stream within a segment, starting with the first.
constexpr uint64_t kUploadEvery = 256;
/// Near a quarter and two thirds of the closed-loop throughput measured on
/// a 4-vCPU x86-64 virtual machine (about 18000 requests/s); the ladder
/// spans an eighth to 1.5 times it.
constexpr RatePlan kRates{.low_qps = 4500,
                          .high_qps = 12000,
                          .ladder_lo = 2200,
                          .ladder_hi = 27000};
/// Set-ups timed before the first request, the first from process start.
/// setup_s is the median of these and of every segment's set-up: one takes
/// a few milliseconds, and set-ups spread over the whole run are not all
/// caught by one slow spell of a shared host.
constexpr int kSetups = 5;

uint64_t TenantSeed(uint64_t seed, int tenant) {
  return MixHash(seed ^ (0x51ed27ULL * static_cast<uint64_t>(tenant + 1)));
}

class CompileTarget : public Target {
 public:
  explicit CompileTarget(uint64_t seed) : seed_(seed), ring_(kRingSlots) {
    const opt::RuleRegistry& rules = opt::RuleRegistry::Get();
    for (auto c : {opt::RuleCategory::kOnByDefault,
                   opt::RuleCategory::kOffByDefault,
                   opt::RuleCategory::kImplementation}) {
      for (int id : rules.ByCategory(c)) flippable_.push_back(id);
    }
  }

  /// Fresh service and tenants for a segment of `count` requests. Each
  /// segment's tenants draw their templates and jobs from their own seeds
  /// (derived from the workload seed and the segment's first request), so
  /// one run averages over many template sets.
  void Begin(uint64_t first, uint64_t count, bool traced) {
    segment_seed_ = MixHash(seed_ ^ (first * 0x9e3779b97f4a7c15ULL));
    drivers_.clear();
    streams_.clear();
    for (int t = 0; t < kTenants; ++t) {
      drivers_.push_back(std::make_unique<workload::WorkloadDriver>(
          workload::WorkloadConfig{.seed = TenantSeed(segment_seed_, t)}));
      streams_.emplace_back(drivers_.back().get(), 0);
    }
    service_ = std::make_unique<service::AdvisorService>(
        service::AdvisorOptions::FromEnv());
    sessions_.clear();
    for (int t = 0; t < kTenants; ++t) {
      auto session = service_->OpenTenant("tenant_" + std::to_string(t));
      sessions_.push_back(*session);
    }
    first_ = first;
    traced_ = traced;
    outputs_.assign(count, 0);
    unexpected_.assign(count, std::string());
    uploaded_ = 0;
    for (auto& v : compile_us_) v.clear();
    for (auto& v : upload_us_) v.clear();
  }
  void End() {
    for (const JobStream& stream : streams_) gen_ms_ += stream.gen_ms();
    active_hints_ = 0;
    for (auto& s : sessions_) {
      active_hints_ += s.snapshot()->hints->active_hints();
    }
    sessions_.clear();
    service_.reset();
  }

  bool generates() const override { return true; }
  void Generate(uint64_t index) override {
    const int tenant = static_cast<int>(index % kTenants);
    const uint64_t position = (index - first_) / kTenants;
    Request& req = ring_[index % kRingSlots];
    if (position % kUploadEvery == 0) {
      req = HintFileFor(tenant, index / kTenants / kUploadEvery);
    } else {
      req = streams_[static_cast<size_t>(tenant)].Next();
    }
  }

  bool Serve(uint64_t index) override {
    const size_t k = static_cast<size_t>(index - first_);
    const int worker = static_cast<int>(index % kServeWorkers);
    service::TenantSession& session =
        sessions_[static_cast<size_t>(index % kTenants)];
    Request req = std::move(ring_[index % kRingSlots]);
    char line[200];
    if (auto* file = std::get_if<sis::HintFile>(&req)) {
      const uint64_t t0 = traced_ ? NowNs() : 0;
      auto up = session.UploadHints(*file);
      if (traced_) upload_us_[worker].push_back(ElapsedUs(t0));
      if (!up.ok()) {
        unexpected_[k] = "upload: " + up.status().ToString();
        return false;
      }
      uploaded_ += file->entries.size();
      std::snprintf(line, sizeof(line), "u %d %zu %llu", up->version,
                    up->active_hints,
                    static_cast<unsigned long long>(up->snapshot_sequence));
    } else {
      const workload::JobInstance& job = std::get<workload::JobInstance>(req);
      const uint64_t t0 = traced_ ? NowNs() : 0;
      auto compiled = session.Compile(job);
      if (traced_) compile_us_[worker].push_back(ElapsedUs(t0));
      if (compiled.ok()) {
        std::snprintf(line, sizeof(line), "c %s %.9g %d %d %d",
                      job.job_id.c_str(), compiled->compilation->est_cost,
                      compiled->hint_applied ? 1 : 0, compiled->rule_id,
                      compiled->sis_version);
      } else if (session.snapshot()->hints->LookupHint(job.template_name)) {
        // A hinted configuration the optimizer cannot plan: an expected
        // outcome of steering, recorded as output.
        std::snprintf(line, sizeof(line), "x %s %d", job.job_id.c_str(),
                      static_cast<int>(compiled.status().code()));
      } else {
        unexpected_[k] = "compile " + job.job_id + ": " +
                         compiled.status().ToString();
        return false;
      }
    }
    Digest d;
    d.Add(line);
    outputs_[k] = d.value();
    return true;
  }

  /// Folds the last segment's responses into per-tenant transcripts.
  void DigestInto(std::vector<Digest>* tenants) const {
    for (size_t k = 0; k < outputs_.size(); ++k) {
      (*tenants)[(first_ + k) % kTenants].Add(std::to_string(outputs_[k]));
    }
  }
  /// Reports the last segment's unexpected failures.
  void CheckInto(Report* report) const {
    for (const std::string& problem : unexpected_) {
      if (!problem.empty()) {
        report->violations.push_back("serve_compile " + problem);
      }
    }
  }

  std::vector<double> CompileUs() const { return Flatten(compile_us_); }
  std::vector<double> UploadUs() const { return Flatten(upload_us_); }
  /// Hint entries uploaded in the last segment.
  uint64_t uploaded() const { return uploaded_; }
  size_t active_hints() const { return active_hints_; }
  double gen_ms() const { return gen_ms_; }

 private:
  using Request = std::variant<workload::JobInstance, sis::HintFile>;

  static double ElapsedUs(uint64_t t0) {
    return static_cast<double>(NowNs() - t0) * 1e-3;
  }
  static std::vector<double> Flatten(
      const std::vector<double> (&per_worker)[kServeWorkers]) {
    std::vector<double> all;
    for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  /// A third of the tenant's templates, each with one flip of a
  /// non-required rule away from its default.
  sis::HintFile HintFileFor(int tenant, uint64_t version) const {
    Rng rng(TenantSeed(segment_seed_, tenant) ^ MixHash(version + 1));
    sis::HintFile file;
    file.day = static_cast<int>(version);
    const opt::RuleConfig defaults = opt::RuleConfig::Default();
    const workload::WorkloadDriver& driver =
        *drivers_[static_cast<size_t>(tenant)];
    for (const auto& tmpl : driver.templates()) {
      if (rng.UniformInt(3) != 0) continue;
      const int rule = flippable_[rng.UniformInt(flippable_.size())];
      file.entries.push_back({.template_name = tmpl.name,
                              .rule_id = rule,
                              .enable = !defaults.IsEnabled(rule)});
    }
    return file;
  }

  uint64_t seed_;
  uint64_t segment_seed_ = 0;
  std::vector<int> flippable_;
  std::vector<std::unique_ptr<workload::WorkloadDriver>> drivers_;
  std::vector<JobStream> streams_;
  std::vector<Request> ring_;
  std::unique_ptr<service::AdvisorService> service_;
  std::vector<service::TenantSession> sessions_;
  uint64_t first_ = 0;
  bool traced_ = false;
  std::vector<uint64_t> outputs_;
  std::vector<std::string> unexpected_;
  std::vector<double> compile_us_[kServeWorkers];
  std::vector<double> upload_us_[kServeWorkers];
  std::atomic<uint64_t> uploaded_{0};
  size_t active_hints_ = 0;
  double gen_ms_ = 0.0;
};

constexpr uint64_t kSegmentCount = 6000;
/// Segments per second of the run: one takes about 0.3 s.
constexpr double kSegmentsPerSecond = 1.6;

/// One pass over the closed-loop segments from request 0 with a fresh
/// target. A traced pass times every call and snapshots the registry around
/// each segment.
struct Pass {
  std::vector<Segment> segments;
  /// Transcripts of the first kCheckedSegments segments.
  std::string digest;
  RegistryDelta delta;
  /// Registry delta and hint entries uploaded in the first
  /// kCheckedSegments segments.
  RegistryDelta checked;
  uint64_t checked_uploads = 0;
  std::vector<double> compile_us, upload_us;
  uint64_t uploaded = 0;
  size_t active_hints = 0;
  double gen_ms = 0.0;
  double wall_ms = 0.0;   ///< the whole pass
  double stage_ms = 0.0;  ///< the segments within it
  std::vector<double> setup_s;  ///< each segment's set-up
};

Pass RunPass(uint64_t seed, bool traced, double rate, int segments,
             uint64_t count, uint64_t first, Report* report) {
  Pass pass;
  const uint64_t start = NowNs();
  CompileTarget target(seed);
  std::vector<Digest> tenants(kTenants);
  uint64_t next = first;
  obs::MetricsSnapshot before;
  SegmentHooks hooks;
  hooks.begin = [&](uint64_t first_index, uint64_t n) {
    const uint64_t t0 = NowNs();
    target.Begin(first_index, n, traced);
    pass.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    before = TakeSnapshot();
  };
  int done = 0;
  hooks.after = [&](const Segment& seg) {
    RegistryDelta delta(before, TakeSnapshot());
    if (done++ < kCheckedSegments) {
      pass.checked.Add(delta);
      pass.checked_uploads += target.uploaded();
      target.DigestInto(&tenants);
    }
    pass.delta.Add(delta);
    pass.uploaded += target.uploaded();
    target.CheckInto(report);
    pass.stage_ms += seg.wall_s * 1e3;
  };
  hooks.end = [&] { target.End(); };
  pass.segments = RunSegments(target, rate, segments, count, hooks, &next);
  pass.wall_ms = static_cast<double>(NowNs() - start) * 1e-6;
  Digest all;
  for (const Digest& d : tenants) all.Add(d.Hex());
  pass.digest = all.Hex();
  pass.compile_us = target.CompileUs();
  pass.upload_us = target.UploadUs();
  pass.active_hints = target.active_hints();
  pass.gen_ms = target.gen_ms();
  Account(pass.segments, report);
  return pass;
}

}  // namespace

void RunServeCompile(const Options& options, Report* report) {
  const int segments = ServeSegments(options.seconds, kSegmentsPerSecond);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t start = NowNs();
    // Set-up i builds segment i's state: its own template sets.
    CompileTarget target(options.seed);
    target.Begin(static_cast<uint64_t>(i) * kSegmentCount, 1, false);
    setups.push_back(SetupSeconds(start, i));
    target.End();
  }

  MetricTable& m = report->metrics;
  if (!options.trace) {
    Pass pass =
        RunPass(options.seed, false, 0.0, segments, kSegmentCount, 0, report);
    SetServiceMetrics(kRates, pass.segments, report);
    setups.insert(setups.end(), pass.setup_s.begin(), pass.setup_s.end());
    m.Set("setup_s", Median(setups), "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    SetWorkCounters(pass.checked, report);
    report->counters["uploads"] = static_cast<double>(pass.checked_uploads);
    report->digest = "segments=" + pass.digest;
    return;
  }

  // Traced: the same segments plain, then again with every call timed and
  // the registry snapshotted around each segment; then one paced segment
  // at each fixed rate for the queue-wait and generator diagnostics.
  Pass plain =
      RunPass(options.seed, false, 0.0, segments, kSegmentCount, 0, report);
  Pass traced =
      RunPass(options.seed, true, 0.0, segments, kSegmentCount, 0, report);
  if (plain.digest != traced.digest) {
    report->violations.push_back("serve_compile traced digest " +
                                 traced.digest + " != " + plain.digest);
  }
  const uint64_t paced_first = static_cast<uint64_t>(segments) * kSegmentCount;
  Pass low = RunPass(options.seed, false, kRates.low_qps, 1,
                     static_cast<uint64_t>(kRates.low_qps), paced_first,
                     report);
  Pass high = RunPass(options.seed, false, kRates.high_qps, 1,
                      static_cast<uint64_t>(kRates.high_qps * 0.5),
                      paced_first, report);
  SetServiceMetrics(kRates, plain.segments, report);
  std::vector<Segment> paced = low.segments;
  paced.insert(paced.end(), high.segments.begin(), high.segments.end());
  SetPacedDiagnostics(paced, report);

  SetEngineLayerMetrics(traced.delta, report);
  SetWorkCounters(traced.checked, report);
  report->counters["uploads"] = static_cast<double>(traced.checked_uploads);
  m.Set("service.compile_us_p50", Quantile(traced.compile_us, 0.50), "us");
  m.Set("service.compile_us_p99", Quantile(traced.compile_us, 0.99), "us");
  m.Set("service.upload_us_p99", Quantile(traced.upload_us, 0.99), "us");
  m.Set("service.publications",
        traced.delta.Series("service.snapshot_publications"), "count");
  m.Set("sis.hints_uploaded", static_cast<double>(traced.uploaded), "count");
  m.Set("sis.active_hints", static_cast<double>(traced.active_hints), "count");
  m.Set("workload.gen_ms", traced.gen_ms, "ms");
  const double plain_ms = ServiceMs(plain.segments);
  m.Set("obs.overhead_pct",
        100.0 * (ServiceMs(traced.segments) - plain_ms) / plain_ms, "%");
  m.Set("core.glue_ms", traced.wall_ms - traced.stage_ms, "ms");
  char line[160];
  std::snprintf(line, sizeof(line),
                "stages: %d segments %.1f ms + glue %.1f ms = traced wall "
                "%.1f ms",
                segments, traced.stage_ms, traced.wall_ms - traced.stage_ms,
                traced.wall_ms);
  report->lines.push_back(line);
  double busy_ms = 0.0;
  for (const Segment& s : traced.segments) busy_ms += s.cpu_s * 1e3;
  ReportLedger(traced.delta, busy_ms, 0.0, {.scope_optimizer_dominates = true},
               report);
  report->missing = traced.delta.missing();
  report->digest = "segments=" + traced.digest;
}

}  // namespace perfbench
