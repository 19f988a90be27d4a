#include "support/histogram.h"

#include <algorithm>
#include <sstream>

namespace cdt {
namespace stats {

using util::Result;
using util::Status;

Result<Histogram> Histogram::Create(double lo, double hi,
                                    std::size_t num_bins) {
  if (num_bins == 0) {
    return Status::InvalidArgument("histogram requires >= 1 bin");
  }
  if (lo >= hi) {
    return Status::InvalidArgument("histogram requires lo < hi");
  }
  return Histogram(lo, hi, num_bins);
}

void Histogram::Add(double x) {
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x > hi_) {
    ++overflow_;
    return;
  }
  double frac = (x - lo_) / (hi_ - lo_);
  std::size_t bin = static_cast<std::size_t>(
      frac * static_cast<double>(bins_.size()));
  if (bin >= bins_.size()) bin = bins_.size() - 1;  // x == hi
  ++bins_[bin];
  ++total_;
}

double Histogram::Fraction(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bins_.at(bin)) / static_cast<double>(total_);
}

double Histogram::ModeMidpoint() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < bins_.size(); ++i) {
    if (bins_[i] > bins_[best]) best = i;
  }
  double width = (hi_ - lo_) / static_cast<double>(bins_.size());
  return lo_ + (static_cast<double>(best) + 0.5) * width;
}

std::string Histogram::ToString(std::size_t bar_width) const {
  std::uint64_t peak = 0;
  for (std::uint64_t c : bins_) peak = std::max(peak, c);
  if (peak == 0) peak = 1;
  double width = (hi_ - lo_) / static_cast<double>(bins_.size());
  std::ostringstream os;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    double left = lo_ + width * static_cast<double>(i);
    std::size_t bar = static_cast<std::size_t>(
        static_cast<double>(bins_[i]) / static_cast<double>(peak) *
        static_cast<double>(bar_width));
    os << "[" << left << ", " << left + width << ") "
       << std::string(bar, '#') << " " << bins_[i] << "\n";
  }
  return os.str();
}

}  // namespace stats
}  // namespace cdt
