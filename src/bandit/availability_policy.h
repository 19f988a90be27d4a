// Availability-aware CUCB: the paper's policy restricted per round to the
// sellers an availability oracle reports as on-shift. A blind policy that
// selects an off-shift seller wastes the slot (no data, no revenue); this
// variant never does. The availability callback keeps the bandit layer
// decoupled from the trace layer (trace::AvailabilityModel plugs in).

#ifndef CDT_BANDIT_AVAILABILITY_POLICY_H_
#define CDT_BANDIT_AVAILABILITY_POLICY_H_

#include <functional>

#include "bandit/policy.h"

namespace cdt {
namespace bandit {

/// Returns whether `seller` can sense in 1-based `round`.
using AvailabilityFn = std::function<bool(int seller, std::int64_t round)>;

/// CUCB over the per-round available subset. Round 1 selects every
/// *available* seller (Algorithm 1's initial exploration, restricted).
/// When fewer than K sellers are available the policy selects all of them.
class AvailabilityAwareCucbPolicy : public SelectionPolicy {
 public:
  /// `availability` must be non-null; exploration <= 0 means K+1.
  static util::Result<AvailabilityAwareCucbPolicy> Create(
      int num_sellers, int k, AvailabilityFn availability,
      double exploration = 0.0);

  std::string name() const override { return "cmab-hs-avail"; }
  int num_sellers() const override { return bank_.num_arms(); }

  /// Allocation-free selection: the bank's UCB scan with off-shift
  /// sellers masked to -infinity, then the shared top-K.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const EstimatorBank* estimator() const override { return &bank_; }

 private:
  AvailabilityAwareCucbPolicy(EstimatorBank bank, int k,
                              AvailabilityFn availability)
      : bank_(std::move(bank)),
        k_(k),
        availability_(std::move(availability)) {}

  EstimatorBank bank_;
  int k_;
  AvailabilityFn availability_;
  /// Masked UCB values (-inf for off-shift sellers), reused every round.
  std::vector<double> masked_scratch_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_AVAILABILITY_POLICY_H_
