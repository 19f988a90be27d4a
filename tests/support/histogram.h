// Fixed-width histogram over a closed range, for tests that check the
// shape of sampler outputs. (Runtime latency histograms are obs::Histogram.)

#ifndef CDT_TESTS_SUPPORT_HISTOGRAM_H_
#define CDT_TESTS_SUPPORT_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace stats {

/// Equal-width bins over [lo, hi]; values outside the range are counted in
/// underflow/overflow buckets rather than dropped silently.
class Histogram {
 public:
  static util::Result<Histogram> Create(double lo, double hi,
                                        std::size_t num_bins);

  void Add(double x);

  std::uint64_t bin_count(std::size_t bin) const { return bins_.at(bin); }
  std::size_t num_bins() const { return bins_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Fraction of in-range samples in `bin`.
  double Fraction(std::size_t bin) const;

  /// Midpoint of the bin with the highest count.
  double ModeMidpoint() const;

  /// ASCII rendering (one line per bin) for debugging.
  std::string ToString(std::size_t bar_width = 40) const;

 private:
  Histogram(double lo, double hi, std::size_t num_bins)
      : lo_(lo), hi_(hi), bins_(num_bins, 0) {}

  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace stats
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_HISTOGRAM_H_
