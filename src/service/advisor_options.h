// One aggregate for the environment knobs that configure the advisor stack.
//
// Before the service layer, option structs each read the environment at
// their own construction time (RuntimeOptions/GuardConfig via FromEnv
// defaults). A long-running process could therefore observe *different*
// env values per subsystem depending on construction order. AdvisorOptions
// fixes the inconsistency: FromEnv() snapshots these knobs exactly once, and
// the AdvisorService threads the captured values explicitly into each
// subsystem it builds — nothing downstream of the service re-reads them.
//
// Knob map (legacy reader -> field):
//   QO_THREADS                 -> runtime.num_threads
//   QO_GUARD + QO_FAULT_*      -> guard.{enabled,faults}
//   QO_SERVICE_RETRAIN_MS      -> retrain_period_ms
//
// The observability knobs are not part of it: each has one process-wide
// reader, cached on first use — QO_METRICS (obs::MetricsEnabled),
// QO_OBS_REPORT (obs::RunReportWriter::FromEnv), QO_OBS_LABEL
// (obs::ObsLabelFromEnv) and QO_TRACE / QO_OBS_SAMPLE (obs/trace.h,
// obs/span.h).
#ifndef QO_SERVICE_ADVISOR_OPTIONS_H_
#define QO_SERVICE_ADVISOR_OPTIONS_H_

#include "guard/guardrail.h"
#include "runtime/runtime.h"

namespace qo::service {

/// Everything an AdvisorService (and the subsystems it constructs) is
/// allowed to know about its environment. Defaults are the no-env defaults
/// of each subsystem — constructing AdvisorOptions{} performs no env reads.
struct AdvisorOptions {
  runtime::RuntimeOptions runtime;
  /// Guardrails + fault injection. Default-inert (enabled=false, no fault
  /// probabilities), matching GuardConfig{}.
  guard::GuardConfig guard;
  /// Background retrain/ingest loop period in milliseconds; 0 keeps
  /// retraining manual (the owner calls TrainAndPublish at points of its
  /// choosing — the deterministic mode benches and tests use).
  int retrain_period_ms = 0;

  /// All-default options; reads nothing from the environment.
  static AdvisorOptions Defaults() { return {}; }

  /// Snapshots every knob in the map above in one pass. Call once at service
  /// start and thread the result explicitly; later env mutations are
  /// invisible to a service constructed from this snapshot.
  static AdvisorOptions FromEnv();
};

}  // namespace qo::service

#endif  // QO_SERVICE_ADVISOR_OPTIONS_H_
