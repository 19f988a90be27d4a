// Forwarding decorators the traced campaign wires around the library's
// own policy and observer, so the benchmark can time the bandit and the
// invariant checker from outside the engine. Each forwards every virtual
// of its interface; a missed forward would fall back to the base-class
// default and silently measure a different program (the helper tests pin
// this). With a null recorder they only forward.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "bandit/policy.h"
#include "market/invariants.h"
#include "spans.h"

namespace perfbench {

/// Times SelectRoundInto/SelectRound as "bandit.select" and Observe as
/// "bandit.learn".
class TimedPolicy final : public cdt::bandit::SelectionPolicy {
 public:
  TimedPolicy(std::unique_ptr<cdt::bandit::SelectionPolicy> inner,
              SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  int num_sellers() const override { return inner_->num_sellers(); }
  cdt::util::Result<std::vector<int>> SelectRound(
      std::int64_t round) override;
  cdt::util::Status SelectRoundInto(std::int64_t round,
                                    std::vector<int>* out) override;
  cdt::util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;
  const cdt::bandit::EstimatorBank* estimator() const override {
    return inner_->estimator();
  }
  bool snapshot_safe() const override { return inner_->snapshot_safe(); }
  cdt::bandit::EstimatorBank* mutable_estimator() override {
    return inner_->mutable_estimator();
  }

 private:
  std::unique_ptr<cdt::bandit::SelectionPolicy> inner_;
  SpanRecorder* spans_;
};

/// Times OnRound under `span_name`.
class TimedObserver final : public cdt::market::RoundObserver {
 public:
  TimedObserver(std::unique_ptr<cdt::market::RoundObserver> inner,
                const char* span_name, SpanRecorder* spans)
      : inner_(std::move(inner)), span_name_(span_name), spans_(spans) {}

  cdt::util::Status OnRound(const cdt::market::TradingEngine& engine,
                            const cdt::market::RoundReport& report) override;

 private:
  std::unique_ptr<cdt::market::RoundObserver> inner_;
  const char* span_name_;
  SpanRecorder* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
