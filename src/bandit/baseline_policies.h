// The paper's comparison policies (Sec. V-A):
//  * "optimal" — an oracle that knows expected qualities and always selects
//    the true top-K;
//  * "ε-first" — pure random exploration for the first εN rounds, then
//    greedy top-K by learned mean;
//  * "random" — K uniformly random sellers every round.

#ifndef CDT_BANDIT_BASELINE_POLICIES_H_
#define CDT_BANDIT_BASELINE_POLICIES_H_

#include "bandit/policy.h"
#include "stats/rng.h"

namespace cdt {
namespace bandit {

/// Draws k distinct indices from [0, n) uniformly (partial Fisher–Yates).
std::vector<int> SampleDistinct(stats::Xoshiro256& rng, int n, int k);

/// Oracle: knows the (effective) expected qualities in advance.
class OraclePolicy : public SelectionPolicy {
 public:
  /// `qualities` are the ground-truth expected qualities; k = |selection|.
  static util::Result<OraclePolicy> Create(std::vector<double> qualities,
                                           int k);

  std::string name() const override { return "optimal"; }
  int num_sellers() const override { return num_sellers_; }

  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  /// The oracle's selection is fixed at construction — nothing to restore.
  bool snapshot_safe() const override { return true; }

 private:
  OraclePolicy(std::vector<int> selection, int num_sellers)
      : selection_(std::move(selection)), num_sellers_(num_sellers) {}

  std::vector<int> selection_;
  int num_sellers_;
};

/// ε-first: explore uniformly for ceil(ε·N) rounds, then exploit.
class EpsilonFirstPolicy : public SelectionPolicy {
 public:
  static util::Result<EpsilonFirstPolicy> Create(int num_sellers, int k,
                                                 std::int64_t total_rounds,
                                                 double epsilon,
                                                 std::uint64_t seed);

  std::string name() const override;
  int num_sellers() const override { return bank_.num_arms(); }

  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const EstimatorBank* estimator() const override { return &bank_; }

  std::int64_t exploration_rounds() const { return exploration_rounds_; }

 private:
  EpsilonFirstPolicy(EstimatorBank bank, int k, std::int64_t expl_rounds,
                     double epsilon, std::uint64_t seed)
      : bank_(std::move(bank)),
        k_(k),
        exploration_rounds_(expl_rounds),
        epsilon_(epsilon),
        rng_(seed) {}

  EstimatorBank bank_;
  int k_;
  std::int64_t exploration_rounds_;
  double epsilon_;
  stats::Xoshiro256 rng_;
};

/// Uniform random selection every round.
class RandomPolicy : public SelectionPolicy {
 public:
  static util::Result<RandomPolicy> Create(int num_sellers, int k,
                                           std::uint64_t seed);

  std::string name() const override { return "random"; }
  int num_sellers() const override { return num_sellers_; }

  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

 private:
  RandomPolicy(int num_sellers, int k, std::uint64_t seed)
      : num_sellers_(num_sellers), k_(k), rng_(seed) {}

  int num_sellers_;
  int k_;
  stats::Xoshiro256 rng_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_BASELINE_POLICIES_H_
