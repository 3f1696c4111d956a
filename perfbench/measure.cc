#include "measure.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <thread>

namespace perfbench {

namespace {

std::vector<std::pair<std::string, double>> Subtract(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out.emplace_back(name, value - (it == before.end() ? 0.0 : it->second));
  }
  return out;
}

double Lookup(const std::vector<std::pair<std::string, double>>& rows,
              std::string_view name, std::set<std::string>* missing) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const auto& row, std::string_view key) { return row.first < key; });
  if (it != rows.end() && it->first == name) return it->second;
  missing->insert(std::string(name));
  return 0.0;
}

void Merge(std::vector<std::pair<std::string, double>>* into,
           const std::vector<std::pair<std::string, double>>& from) {
  std::map<std::string, double> sum(into->begin(), into->end());
  for (const auto& [name, value] : from) sum[name] += value;
  into->assign(sum.begin(), sum.end());
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSec() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  if (!std::isfinite(samples[hi])) return samples[hi];
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

RegistryDelta::RegistryDelta(const qo::obs::MetricsSnapshot& before,
                             const qo::obs::MetricsSnapshot& after) {
  std::map<std::string, double> c0, c1, s0, s1, v0, v1;
  for (const auto& [name, h] : before.histograms) {
    c0[name] = static_cast<double>(h.total);
    s0[name] = static_cast<double>(h.sum);
  }
  for (const auto& [name, h] : after.histograms) {
    c1[name] = static_cast<double>(h.total);
    s1[name] = static_cast<double>(h.sum);
  }
  for (const auto& [name, v] : before.series) v0[name] = v;
  for (const auto& [name, v] : after.series) v1[name] = v;
  counts_ = Subtract(c0, c1);
  sums_ns_ = Subtract(s0, s1);
  series_ = Subtract(v0, v1);
}

double RegistryDelta::Count(std::string_view name) {
  return Lookup(counts_, name, &missing_);
}

double RegistryDelta::SumMs(std::string_view name) {
  return Lookup(sums_ns_, name, &missing_) * 1e-6;
}

double RegistryDelta::Series(std::string_view name) {
  return Lookup(series_, name, &missing_);
}

void RegistryDelta::Add(const RegistryDelta& other) {
  Merge(&counts_, other.counts_);
  Merge(&sums_ns_, other.sums_ns_);
  Merge(&series_, other.series_);
}

qo::obs::MetricsSnapshot TakeSnapshot() {
  return qo::obs::Registry::Get().Snapshot();
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = {value, unit};
      return;
    }
  }
  rows_.push_back({name, {value, unit}});
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : rows_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}";
  return out;
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntilNs(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (due_ns <= now) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
}

}  // namespace perfbench
