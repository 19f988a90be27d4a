#include "bandit/baseline_policies.h"

#include <cmath>
#include <numeric>
#include <sstream>

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

std::vector<int> SampleDistinct(stats::Xoshiro256& rng, int n, int k) {
  std::vector<int> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  k = std::min(k, n);
  for (int i = 0; i < k; ++i) {
    std::size_t j = static_cast<std::size_t>(i) +
                    static_cast<std::size_t>(rng.NextBounded(
                        static_cast<std::uint64_t>(n - i)));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
  }
  pool.resize(static_cast<std::size_t>(k));
  return pool;
}

// ---------------------------------------------------------------- Oracle --

Result<OraclePolicy> OraclePolicy::Create(std::vector<double> qualities,
                                          int k) {
  CDT_RETURN_NOT_OK(
      CheckSelectionSize(static_cast<int>(qualities.size()), k));
  std::vector<int> selection;
  TopKIndicesInto(qualities, k, &selection);
  return OraclePolicy(std::move(selection),
                      static_cast<int>(qualities.size()));
}

Status OraclePolicy::SelectRoundInto(std::int64_t round,
                                     std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  *out = selection_;
  return Status::OK();
}

Status OraclePolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  // The oracle has nothing to learn.
  return CheckFeedback(num_sellers_, selected, observations);
}

// -------------------------------------------------------------- ε-first --

Result<EpsilonFirstPolicy> EpsilonFirstPolicy::Create(
    int num_sellers, int k, std::int64_t total_rounds, double epsilon,
    std::uint64_t seed) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  if (total_rounds <= 0) {
    return Status::InvalidArgument("total_rounds must be > 0");
  }
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::OutOfRange("epsilon must lie in (0, 1)");
  }
  // Exploration constant is irrelevant here (the bank only tracks means),
  // but the bank requires a positive value.
  Result<EstimatorBank> bank = EstimatorBank::Create(num_sellers, 1.0);
  if (!bank.ok()) return bank.status();
  std::int64_t expl = static_cast<std::int64_t>(
      std::ceil(epsilon * static_cast<double>(total_rounds)));
  expl = std::max<std::int64_t>(1, expl);
  return EpsilonFirstPolicy(std::move(bank).value(), k, expl, epsilon, seed);
}

std::string EpsilonFirstPolicy::name() const {
  std::ostringstream os;
  os << epsilon_ << "-first";
  return os.str();
}

Status EpsilonFirstPolicy::SelectRoundInto(std::int64_t round,
                                           std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  if (round <= exploration_rounds_) {
    *out = SampleDistinct(rng_, bank_.num_arms(), k_);
  } else {
    TopKIndicesInto(bank_.means(), k_, out);
  }
  return Status::OK();
}

Status EpsilonFirstPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  return bank_.UpdateRound(selected, observations);
}

// --------------------------------------------------------------- Random --

Result<RandomPolicy> RandomPolicy::Create(int num_sellers, int k,
                                          std::uint64_t seed) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  return RandomPolicy(num_sellers, k, seed);
}

Status RandomPolicy::SelectRoundInto(std::int64_t round,
                                     std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  *out = SampleDistinct(rng_, num_sellers_, k_);
  return Status::OK();
}

Status RandomPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  return CheckFeedback(num_sellers_, selected, observations);
}

}  // namespace bandit
}  // namespace cdt
