// Thread-safe machine-hour budget arbiter for budget-aware admission
// (paper Sec. 4.3: the flighting service runs under a constrained total
// machine-hour budget).
//
// Admission through TrySpend is strict: committed spend never exceeds
// capacity. Spend() is the legacy single-flight path (admission is a
// pre-check, the actual hours land afterwards), which may overshoot
// capacity by at most one flight.
//
// Deterministic admission reads only committed hours, which advance solely
// at the caller's ordered commit: speculative in-flight work is not tracked
// here, so results never depend on thread interleaving. The cost is bounded
// speculation: up to one in-flight task per worker may run past the cap and
// be rejected at its commit.
//
// Thread-safety: all methods are safe to call concurrently. committed() is
// monotonically non-decreasing between Reset() calls — callers exploit this
// for deterministic early-skip (once Exhausted(), always Exhausted()).
#ifndef QO_RUNTIME_BUDGET_GATE_H_
#define QO_RUNTIME_BUDGET_GATE_H_

#include <mutex>

namespace qo::runtime {

class BudgetGate {
 public:
  explicit BudgetGate(double capacity_hours) : capacity_(capacity_hours) {}

  double capacity() const { return capacity_; }
  double committed() const;

  /// True once no budget remains (committed >= capacity).
  bool Exhausted() const;

  /// Strict spend: commits `hours` iff committed + hours <= capacity.
  /// Returns whether the hours were committed (false = refused, nothing
  /// spent).
  bool TrySpend(double hours);

  /// Unchecked spend: always lands, may overshoot capacity (legacy
  /// FlightOne/RunAA semantics where admission is a pre-check).
  void Spend(double hours);

  /// Zeroes committed hours.
  void Reset();

 private:
  const double capacity_;
  mutable std::mutex mu_;
  double committed_ = 0.0;
};

}  // namespace qo::runtime

#endif  // QO_RUNTIME_BUDGET_GATE_H_
