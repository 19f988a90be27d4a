// Non-stationary selection policies for the drifting-quality extension:
// sliding-window CUCB (estimates from the last W observations per arm) and
// discounted UCB (exponentially decayed counts/means). Both reduce to the
// paper's CMAB-HS behaviour as W → ∞ / γ → 1.

#ifndef CDT_BANDIT_NONSTATIONARY_POLICIES_H_
#define CDT_BANDIT_NONSTATIONARY_POLICIES_H_

#include <deque>

#include "bandit/policy.h"

namespace cdt {
namespace bandit {

/// Sliding-window CUCB: per-arm mean and count computed over the most
/// recent `window` observations; the UCB radius uses the windowed counts.
class SlidingWindowCucbPolicy : public SelectionPolicy {
 public:
  /// `window` is the per-arm observation budget (>= 1); exploration <= 0
  /// defaults to the paper's K+1.
  static util::Result<SlidingWindowCucbPolicy> Create(int num_sellers, int k,
                                                      std::size_t window,
                                                      double exploration = 0.0);

  std::string name() const override;
  int num_sellers() const override {
    return static_cast<int>(arms_.size());
  }

  /// Allocation-free selection via the reused UCB scratch.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  /// Windowed mean of one arm (0 when empty).
  double WindowedMean(int arm) const;
  /// Windowed observation count of one arm.
  std::size_t WindowedCount(int arm) const;

 private:
  struct WindowArm {
    std::deque<double> samples;
    double sum = 0.0;
  };

  SlidingWindowCucbPolicy(int num_sellers, int k, std::size_t window,
                          double exploration)
      : arms_(static_cast<std::size_t>(num_sellers)),
        k_(k),
        window_(window),
        exploration_(exploration) {}

  std::vector<WindowArm> arms_;
  int k_;
  std::size_t window_;
  double exploration_;
  /// UCB scores scratch, reused every round.
  std::vector<double> ucb_scratch_;
};

/// Discounted UCB: n_i and sums decay by γ every round, so stale evidence
/// fades and the radius re-opens for arms whose estimates age out.
class DiscountedUcbPolicy : public SelectionPolicy {
 public:
  /// `gamma` in (0, 1]; exploration <= 0 defaults to K+1.
  static util::Result<DiscountedUcbPolicy> Create(int num_sellers, int k,
                                                  double gamma,
                                                  double exploration = 0.0);

  std::string name() const override;
  int num_sellers() const override {
    return static_cast<int>(counts_.size());
  }

  /// Allocation-free selection via the reused UCB scratch.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  double DiscountedCount(int arm) const { return counts_.at(arm); }
  double DiscountedMean(int arm) const;

 private:
  DiscountedUcbPolicy(int num_sellers, int k, double gamma,
                      double exploration)
      : counts_(static_cast<std::size_t>(num_sellers), 0.0),
        sums_(static_cast<std::size_t>(num_sellers), 0.0),
        k_(k),
        gamma_(gamma),
        exploration_(exploration) {}

  std::vector<double> counts_;
  std::vector<double> sums_;
  int k_;
  double gamma_;
  double exploration_;
  /// UCB scores scratch, reused every round.
  std::vector<double> ucb_scratch_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_NONSTATIONARY_POLICIES_H_
