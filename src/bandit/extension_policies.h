// Extension policies beyond the paper's comparison set, used by the policy
// ablation bench: per-round ε-greedy and Gaussian Thompson sampling.

#ifndef CDT_BANDIT_EXTENSION_POLICIES_H_
#define CDT_BANDIT_EXTENSION_POLICIES_H_

#include "bandit/policy.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace cdt {
namespace bandit {

/// ε-greedy: every round, explore (K uniform sellers) with probability ε,
/// otherwise exploit the empirical top-K.
class EpsilonGreedyPolicy : public SelectionPolicy {
 public:
  static util::Result<EpsilonGreedyPolicy> Create(int num_sellers, int k,
                                                  double epsilon,
                                                  std::uint64_t seed);

  std::string name() const override;
  int num_sellers() const override { return bank_.num_arms(); }

  /// Allocation-free exploit rounds (top-K by mean straight into `out`);
  /// explore rounds still draw a fresh uniform sample.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const EstimatorBank* estimator() const override { return &bank_; }

 private:
  EpsilonGreedyPolicy(EstimatorBank bank, int k, double epsilon,
                      std::uint64_t seed)
      : bank_(std::move(bank)), k_(k), epsilon_(epsilon), rng_(seed) {}

  EstimatorBank bank_;
  int k_;
  double epsilon_;
  stats::Xoshiro256 rng_;
};

/// Gaussian Thompson sampling: draw θ_i ~ N(q̄_i, 1/(n_i+1)) per arm and
/// select the top-K θ. Unexplored arms draw from N(0.5, 1), which keeps the
/// cold start exploratory without special cases.
class ThompsonPolicy : public SelectionPolicy {
 public:
  static util::Result<ThompsonPolicy> Create(int num_sellers, int k,
                                             std::uint64_t seed);

  std::string name() const override { return "thompson"; }
  int num_sellers() const override { return bank_.num_arms(); }

  /// Allocation-free selection via the reused posterior-draw scratch.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const EstimatorBank* estimator() const override { return &bank_; }

 private:
  ThompsonPolicy(EstimatorBank bank, int k, std::uint64_t seed)
      : bank_(std::move(bank)), k_(k), rng_(seed) {}

  EstimatorBank bank_;
  int k_;
  stats::Xoshiro256 rng_;
  stats::GaussianSampler gaussian_;
  /// Posterior draws scratch, reused every round.
  std::vector<double> draws_scratch_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_EXTENSION_POLICIES_H_
