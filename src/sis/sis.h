// The Stats & Insight Service (SIS): versioned hint files mapping job
// templates to rule-flip hints, consumed by the SCOPE optimizer at compile
// time (paper Secs. 2.5 and 4.4; [16]).
//
// SIS "makes deploying models and configurations in SCOPE easier as it
// manages versioning and validates the format before installing them".
#ifndef QO_SIS_SIS_H_
#define QO_SIS_SIS_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "optimizer/rules.h"

namespace qo::sis {

/// One hint row: flip `rule_id` (to `enable`) for every future occurrence of
/// the job template.
struct HintEntry {
  std::string template_name;
  int rule_id = 0;
  bool enable = true;  ///< true = turn the rule on, false = turn it off

  /// The single-flip configuration this hint induces.
  opt::RuleConfig ToConfig() const;
};

/// A hint file produced by one pipeline run.
struct HintFile {
  int day = 0;  ///< pipeline date the hints were generated from
  std::vector<HintEntry> entries;

  /// Text format: one "template,rule_id,on|off" row per line, with a header.
  std::string Serialize() const;
  /// Strict parser: requires the "# ... day=N" header, exactly three fields
  /// per row, a numeric in-range rule id, an "on"/"off" direction and no
  /// duplicate templates. ParseError on garbage lines, truncated rows and
  /// every other malformation — corrupt files are rejected whole, never
  /// partially installed. Round-trips Serialize() exactly.
  static Result<HintFile> Parse(const std::string& text);
};

struct SisConfig {
  /// Hint-file versions retained in history(); older files are dropped from
  /// the front (0 = unbounded). current_version() and the registry's
  /// sis.hints_uploaded / sis.hints_reverted counters are unaffected by
  /// trimming, as are active hints.
  size_t history_retention = 128;
};

/// An immutable point-in-time view of the active hint set — the read side of
/// the service layer's RCU double-buffer (src/service/). A writer builds a
/// fresh view from the live StatsInsightService after every upload/revert
/// and publishes it through the service's SnapshotSlot; concurrent readers
/// resolve templates against whichever view they loaded, with no lock
/// anywhere on the lookup path. Entries are sorted by template name (binary-search
/// probes), and a view can never change after construction, so a reader
/// always sees a hint set that existed in full at some version.
class SnapshotView {
 public:
  /// Builds a view from a sorted-by-construction hint map (what the live
  /// service maintains) at the given version.
  SnapshotView(int version,
               const std::map<std::string, HintEntry>& active_hints);

  /// The hint in effect for the template in this view, if any.
  std::optional<HintEntry> LookupHint(std::string_view template_name) const;

  /// Compile configuration under this view: default, or default+flip.
  opt::RuleConfig ConfigForTemplate(std::string_view template_name) const;

  /// The SIS version this view was built from (monotonic across swaps).
  int version() const { return version_; }
  size_t active_hints() const { return entries_.size(); }
  const std::vector<HintEntry>& entries() const { return entries_; }

 private:
  int version_ = 0;
  std::vector<HintEntry> entries_;  ///< sorted by template_name
};

/// The service: stores versioned hint files and serves the effective hint
/// for a template (the newest version wins).
///
/// Thread-safety: thread-compatible, not thread-safe — the offline pipeline
/// drives it from one thread. The always-on advisor service wraps it behind
/// a short writer lock and serves concurrent compile traffic from published
/// SnapshotViews instead (see src/service/advisor_service.h).
class StatsInsightService {
 public:
  StatsInsightService() : StatsInsightService(SisConfig{}) {}
  explicit StatsInsightService(SisConfig config);

  /// Validates and installs a hint file as the next version.
  /// InvalidArgument for malformed entries (unknown rule id, duplicate
  /// template, flip that matches the default — i.e. a no-op hint).
  /// [[deprecated]]-in-comment for direct service callers: go through
  /// service::TenantSession::UploadHints, which also republishes the
  /// tenant's snapshot so concurrent compiles see the new hints.
  Result<int> UploadHintFile(const HintFile& file);

  /// Immutable snapshot of the active hint set at the current version — the
  /// unit the advisor service publishes for lock-free readers.
  std::shared_ptr<const SnapshotView> BuildSnapshotView() const;

  /// The hint currently in effect for the template, if any.
  std::optional<HintEntry> LookupHint(const std::string& template_name) const;

  /// The compile configuration the optimizer should use for this template:
  /// default, or default+flip when a hint is installed.
  opt::RuleConfig ConfigForTemplate(const std::string& template_name) const;

  /// Removes the hint for one template (the paper's "easily reversible"
  /// property of single rule flips, Sec. 2.4).
  Status RevertHint(const std::string& template_name);

  int current_version() const { return version_; }
  size_t active_hints() const { return active_.size(); }
  /// Retained versions only (bounded by SisConfig::history_retention).
  const std::deque<HintFile>& history() const { return history_; }
  /// Versions trimmed out of history() by the retention window (monotonic).
  size_t history_dropped() const { return history_dropped_; }

 private:
  SisConfig config_;
  int version_ = 0;
  std::deque<HintFile> history_;
  std::map<std::string, HintEntry> active_;
  size_t history_dropped_ = 0;
};

}  // namespace qo::sis

#endif  // QO_SIS_SIS_H_
