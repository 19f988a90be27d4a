#include "decorators.h"

namespace perfbench {

cdt::util::Result<std::vector<int>> TimedPolicy::SelectRound(
    std::int64_t round) {
  ScopedSpan span(spans_, "bandit.select");
  return inner_->SelectRound(round);
}

cdt::util::Status TimedPolicy::SelectRoundInto(std::int64_t round,
                                               std::vector<int>* out) {
  ScopedSpan span(spans_, "bandit.select");
  return inner_->SelectRoundInto(round, out);
}

cdt::util::Status TimedPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  ScopedSpan span(spans_, "bandit.learn");
  return inner_->Observe(selected, observations);
}

cdt::util::Status TimedObserver::OnRound(
    const cdt::market::TradingEngine& engine,
    const cdt::market::RoundReport& report) {
  ScopedSpan span(spans_, span_name_);
  return inner_->OnRound(engine, report);
}

}  // namespace perfbench
