#include "sis/sis.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/metrics.h"

namespace qo::sis {

namespace {

struct SisCounters {
  obs::Counter& hints_uploaded;  ///< entries installed across all versions
  obs::Counter& hints_reverted;  ///< hints rolled back via RevertHint
};

const SisCounters& Counters() {
  static const SisCounters counters{
      obs::Registry::Get().counter("sis.hints_uploaded"),
      obs::Registry::Get().counter("sis.hints_reverted")};
  return counters;
}

}  // namespace

opt::RuleConfig HintEntry::ToConfig() const {
  opt::RuleConfig config = opt::RuleConfig::Default();
  if (enable) {
    config.Enable(rule_id);
  } else {
    config.Disable(rule_id);
  }
  return config;
}

std::string HintFile::Serialize() const {
  std::string out = "# qo-advisor hints day=" + std::to_string(day) + "\n";
  for (const HintEntry& e : entries) {
    out += e.template_name + "," + std::to_string(e.rule_id) + "," +
           (e.enable ? "on" : "off") + "\n";
  }
  return out;
}

namespace {

/// Strict non-negative integer parse: every character a digit, value within
/// [0, limit). Rejects what std::atoi silently accepts (trailing garbage,
/// empty fields, overflow).
bool ParseBoundedInt(const std::string& s, int limit, int* out) {
  if (s.empty() || s.size() > 9) return false;
  long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  if (v >= limit) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

Result<HintFile> HintFile::Parse(const std::string& text) {
  HintFile file;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      auto pos = line.find("day=");
      if (pos == std::string::npos ||
          !ParseBoundedInt(line.substr(pos + 4), 1 << 30, &file.day)) {
        return Status::ParseError("malformed hint file header: " + line);
      }
      if (saw_header) {
        return Status::ParseError("duplicate hint file header");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) {
      return Status::ParseError("hint row before header: " + line);
    }
    auto c1 = line.find(',');
    auto c2 = line.find(',', c1 == std::string::npos ? c1 : c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        line.find(',', c2 + 1) != std::string::npos) {
      return Status::ParseError("malformed hint row: " + line);
    }
    HintEntry e;
    e.template_name = line.substr(0, c1);
    if (e.template_name.empty()) {
      return Status::ParseError("hint row with empty template: " + line);
    }
    if (!ParseBoundedInt(line.substr(c1 + 1, c2 - c1 - 1),
                         opt::RuleRegistry::kNumRules, &e.rule_id)) {
      return Status::ParseError("bad rule id in hint row: " + line);
    }
    std::string dir = line.substr(c2 + 1);
    if (dir == "on") {
      e.enable = true;
    } else if (dir == "off") {
      e.enable = false;
    } else {
      return Status::ParseError("bad flip direction: " + dir);
    }
    if (!seen.insert(e.template_name).second) {
      return Status::ParseError("duplicate template in hint file: " +
                                e.template_name);
    }
    file.entries.push_back(std::move(e));
  }
  if (!saw_header) return Status::ParseError("missing hint file header");
  return file;
}

SnapshotView::SnapshotView(
    int version, const std::map<std::string, HintEntry>& active_hints)
    : version_(version) {
  entries_.reserve(active_hints.size());
  // std::map iterates in key order, so entries_ is born sorted by template
  // name — the invariant the binary-search lookup below relies on.
  for (const auto& [name, entry] : active_hints) {
    entries_.push_back(entry);
  }
}

std::optional<HintEntry> SnapshotView::LookupHint(
    std::string_view template_name) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), template_name,
      [](const HintEntry& e, std::string_view name) {
        return e.template_name < name;
      });
  if (it == entries_.end() || it->template_name != template_name) {
    return std::nullopt;
  }
  return *it;
}

opt::RuleConfig SnapshotView::ConfigForTemplate(
    std::string_view template_name) const {
  auto hint = LookupHint(template_name);
  if (!hint.has_value()) return opt::RuleConfig::Default();
  return hint->ToConfig();
}

std::shared_ptr<const SnapshotView> StatsInsightService::BuildSnapshotView()
    const {
  return std::make_shared<const SnapshotView>(version_, active_);
}

StatsInsightService::StatsInsightService(SisConfig config) : config_(config) {
  Counters();  // register the series: they read 0 until the first event
}

Result<int> StatsInsightService::UploadHintFile(const HintFile& file) {
  // Format validation before installation.
  std::set<std::string> seen;
  const opt::RuleConfig default_config = opt::RuleConfig::Default();
  for (const HintEntry& e : file.entries) {
    if (e.template_name.empty()) {
      return Status::InvalidArgument("hint with empty template name");
    }
    if (e.rule_id < 0 || e.rule_id >= opt::RuleRegistry::kNumRules) {
      return Status::InvalidArgument("unknown rule id " +
                                     std::to_string(e.rule_id));
    }
    if (opt::RuleRegistry::Get().category(e.rule_id) ==
        opt::RuleCategory::kRequired) {
      return Status::InvalidArgument("hint flips required rule " +
                                     opt::RuleRegistry::Get().name(e.rule_id));
    }
    if (default_config.IsEnabled(e.rule_id) == e.enable) {
      return Status::InvalidArgument(
          "no-op hint (matches default) for rule " +
          opt::RuleRegistry::Get().name(e.rule_id));
    }
    if (!seen.insert(e.template_name).second) {
      return Status::InvalidArgument("duplicate template in hint file: " +
                                     e.template_name);
    }
  }
  ++version_;
  history_.push_back(file);
  while (config_.history_retention > 0 &&
         history_.size() > config_.history_retention) {
    history_.pop_front();
    ++history_dropped_;
  }
  for (const HintEntry& e : file.entries) {
    active_[e.template_name] = e;
  }
  Counters().hints_uploaded.Add(file.entries.size());
  return version_;
}

std::optional<HintEntry> StatsInsightService::LookupHint(
    const std::string& template_name) const {
  auto it = active_.find(template_name);
  if (it == active_.end()) return std::nullopt;
  return it->second;
}

opt::RuleConfig StatsInsightService::ConfigForTemplate(
    const std::string& template_name) const {
  auto hint = LookupHint(template_name);
  if (!hint.has_value()) return opt::RuleConfig::Default();
  return hint->ToConfig();
}

Status StatsInsightService::RevertHint(const std::string& template_name) {
  auto it = active_.find(template_name);
  if (it == active_.end()) {
    return Status::NotFound("no active hint for " + template_name);
  }
  active_.erase(it);
  Counters().hints_reverted.Add();
  return Status::OK();
}

}  // namespace qo::sis
