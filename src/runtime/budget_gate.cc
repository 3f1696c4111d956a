#include "runtime/budget_gate.h"

namespace qo::runtime {

double BudgetGate::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

bool BudgetGate::Exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !(committed_ < capacity_);  // a NaN total reads as exhausted
}

bool BudgetGate::TrySpend(double hours) {
  std::lock_guard<std::mutex> lock(mu_);
  if (committed_ + hours > capacity_) return false;
  committed_ += hours;
  return true;
}

void BudgetGate::Spend(double hours) {
  std::lock_guard<std::mutex> lock(mu_);
  committed_ += hours;
}

void BudgetGate::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  committed_ = 0.0;
}

}  // namespace qo::runtime
