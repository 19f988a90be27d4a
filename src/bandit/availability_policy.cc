#include "bandit/availability_policy.h"

#include <algorithm>
#include <limits>

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

Result<AvailabilityAwareCucbPolicy> AvailabilityAwareCucbPolicy::Create(
    int num_sellers, int k, AvailabilityFn availability, double exploration) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  if (!availability) {
    return Status::InvalidArgument("availability callback must be set");
  }
  Result<double> resolved = ResolveExploration(exploration, k);
  if (!resolved.ok()) return resolved.status();
  Result<EstimatorBank> bank =
      EstimatorBank::Create(num_sellers, resolved.value());
  if (!bank.ok()) return bank.status();
  return AvailabilityAwareCucbPolicy(std::move(bank).value(), k,
                                     std::move(availability));
}

Status AvailabilityAwareCucbPolicy::SelectRoundInto(std::int64_t round,
                                                    std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  // `out` collects the available subset; off-shift sellers are masked out
  // of the Eq. (19) scores so the shared top-K never picks them.
  bank_.UcbValuesInto(&masked_scratch_);
  out->clear();
  for (int i = 0; i < bank_.num_arms(); ++i) {
    if (availability_(i, round)) {
      out->push_back(i);
    } else {
      masked_scratch_[static_cast<std::size_t>(i)] =
          -std::numeric_limits<double>::infinity();
    }
  }
  if (out->empty()) {
    return Status::FailedPrecondition("no seller available in round " +
                                      std::to_string(round));
  }
  // Round 1 keeps the whole available subset (restricted initial
  // exploration); later rounds take the top K among it by UCB.
  if (round == 1) return Status::OK();
  TopKIndicesInto(masked_scratch_,
                  std::min<int>(k_, static_cast<int>(out->size())), out);
  return Status::OK();
}

Status AvailabilityAwareCucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  CDT_RETURN_NOT_OK(CheckFeedback(num_sellers(), selected, observations));
  for (std::size_t j = 0; j < selected.size(); ++j) {
    // Empty batches (an unavailable seller produced no data) carry no
    // information and are skipped rather than rejected.
    if (observations[j].empty()) continue;
    CDT_RETURN_NOT_OK(bank_.Update(selected[j], observations[j]));
  }
  return Status::OK();
}

}  // namespace bandit
}  // namespace cdt
