#include "bandit/extension_policies.h"

#include <cmath>
#include <sstream>

#include "bandit/baseline_policies.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

// ------------------------------------------------------------- ε-greedy --

Result<EpsilonGreedyPolicy> EpsilonGreedyPolicy::Create(int num_sellers,
                                                        int k, double epsilon,
                                                        std::uint64_t seed) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::OutOfRange("epsilon must lie in (0, 1)");
  }
  Result<EstimatorBank> bank = EstimatorBank::Create(num_sellers, 1.0);
  if (!bank.ok()) return bank.status();
  return EpsilonGreedyPolicy(std::move(bank).value(), k, epsilon, seed);
}

std::string EpsilonGreedyPolicy::name() const {
  std::ostringstream os;
  os << epsilon_ << "-greedy";
  return os.str();
}

Status EpsilonGreedyPolicy::SelectRoundInto(std::int64_t round,
                                            std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  if (rng_.NextDouble() < epsilon_) {
    *out = SampleDistinct(rng_, bank_.num_arms(), k_);
    return Status::OK();
  }
  TopKIndicesInto(bank_.means(), k_, out);
  return Status::OK();
}

Status EpsilonGreedyPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  return bank_.UpdateRound(selected, observations);
}

// -------------------------------------------------------------- Thompson --

Result<ThompsonPolicy> ThompsonPolicy::Create(int num_sellers, int k,
                                              std::uint64_t seed) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  Result<EstimatorBank> bank = EstimatorBank::Create(num_sellers, 1.0);
  if (!bank.ok()) return bank.status();
  return ThompsonPolicy(std::move(bank).value(), k, seed);
}

Status ThompsonPolicy::SelectRoundInto(std::int64_t round,
                                       std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  draws_scratch_.resize(static_cast<std::size_t>(bank_.num_arms()));
  for (int i = 0; i < bank_.num_arms(); ++i) {
    const ArmState arm = bank_.arm(i);
    double mean = arm.observations > 0 ? arm.mean : 0.5;
    double stddev =
        1.0 / std::sqrt(static_cast<double>(arm.observations) + 1.0);
    draws_scratch_[static_cast<std::size_t>(i)] =
        gaussian_.Sample(rng_, mean, stddev);
  }
  TopKIndicesInto(draws_scratch_, k_, out);
  return Status::OK();
}

Status ThompsonPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  return bank_.UpdateRound(selected, observations);
}

}  // namespace bandit
}  // namespace cdt
