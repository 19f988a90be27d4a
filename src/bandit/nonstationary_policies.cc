#include "bandit/nonstationary_policies.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

// ------------------------------------------------------ sliding window --

Result<SlidingWindowCucbPolicy> SlidingWindowCucbPolicy::Create(
    int num_sellers, int k, std::size_t window, double exploration) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  if (window == 0) {
    return Status::InvalidArgument("window must be >= 1");
  }
  Result<double> resolved = ResolveExploration(exploration, k);
  if (!resolved.ok()) return resolved.status();
  return SlidingWindowCucbPolicy(num_sellers, k, window, resolved.value());
}

std::string SlidingWindowCucbPolicy::name() const {
  std::ostringstream os;
  os << "sw-cucb(" << window_ << ")";
  return os.str();
}

double SlidingWindowCucbPolicy::WindowedMean(int arm) const {
  const WindowArm& a = arms_.at(static_cast<std::size_t>(arm));
  if (a.samples.empty()) return 0.0;
  return a.sum / static_cast<double>(a.samples.size());
}

std::size_t SlidingWindowCucbPolicy::WindowedCount(int arm) const {
  return arms_.at(static_cast<std::size_t>(arm)).samples.size();
}

Status SlidingWindowCucbPolicy::SelectRoundInto(std::int64_t round,
                                                std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  if (round == 1) {
    // Initial exploration (Algorithm 1): select everyone once.
    out->resize(arms_.size());
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  std::size_t total = 0;
  for (const WindowArm& a : arms_) total += a.samples.size();
  double log_term = std::log(std::max<double>(static_cast<double>(total), 2.0));
  ucb_scratch_.resize(arms_.size());
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    std::size_t n = arms_[i].samples.size();
    if (n == 0) {
      ucb_scratch_[i] = std::numeric_limits<double>::infinity();
    } else {
      ucb_scratch_[i] =
          arms_[i].sum / static_cast<double>(n) +
          std::sqrt(exploration_ * log_term / static_cast<double>(n));
    }
  }
  TopKIndicesInto(ucb_scratch_, k_, out);
  return Status::OK();
}

Status SlidingWindowCucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  // Validate the whole round first: a rejected round leaves no sample.
  CDT_RETURN_NOT_OK(CheckFeedback(num_sellers(), selected, observations));
  for (std::size_t j = 0; j < selected.size(); ++j) {
    WindowArm& arm = arms_[static_cast<std::size_t>(selected[j])];
    for (double q : observations[j]) {
      arm.samples.push_back(q);
      arm.sum += q;
      if (arm.samples.size() > window_) {
        arm.sum -= arm.samples.front();
        arm.samples.pop_front();
      }
    }
  }
  return Status::OK();
}

// --------------------------------------------------------- discounted --

Result<DiscountedUcbPolicy> DiscountedUcbPolicy::Create(int num_sellers,
                                                        int k, double gamma,
                                                        double exploration) {
  CDT_RETURN_NOT_OK(CheckSelectionSize(num_sellers, k));
  if (gamma <= 0.0 || gamma > 1.0) {
    return Status::OutOfRange("gamma must lie in (0, 1]");
  }
  Result<double> resolved = ResolveExploration(exploration, k);
  if (!resolved.ok()) return resolved.status();
  return DiscountedUcbPolicy(num_sellers, k, gamma, resolved.value());
}

std::string DiscountedUcbPolicy::name() const {
  std::ostringstream os;
  os << "d-ucb(" << gamma_ << ")";
  return os.str();
}

double DiscountedUcbPolicy::DiscountedMean(int arm) const {
  double n = counts_.at(static_cast<std::size_t>(arm));
  if (n <= 0.0) return 0.0;
  return sums_.at(static_cast<std::size_t>(arm)) / n;
}

Status DiscountedUcbPolicy::SelectRoundInto(std::int64_t round,
                                            std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  if (round == 1) {
    out->resize(counts_.size());
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  double total = 0.0;
  for (double n : counts_) total += n;
  double log_term = std::log(std::max(total, 2.0));
  ucb_scratch_.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] <= 1e-12) {
      ucb_scratch_[i] = std::numeric_limits<double>::infinity();
    } else {
      ucb_scratch_[i] = sums_[i] / counts_[i] +
                        std::sqrt(exploration_ * log_term / counts_[i]);
    }
  }
  TopKIndicesInto(ucb_scratch_, k_, out);
  return Status::OK();
}

Status DiscountedUcbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  // Validate the whole round before the decay touches any arm.
  CDT_RETURN_NOT_OK(CheckFeedback(num_sellers(), selected, observations));
  // Per-round decay of every arm's evidence.
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] *= gamma_;
    sums_[i] *= gamma_;
  }
  for (std::size_t j = 0; j < selected.size(); ++j) {
    const std::size_t i = static_cast<std::size_t>(selected[j]);
    for (double q : observations[j]) {
      counts_[i] += 1.0;
      sums_[i] += q;
    }
  }
  return Status::OK();
}

}  // namespace bandit
}  // namespace cdt
