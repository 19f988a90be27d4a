#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Nearest rank of the q-th percentile among n samples, 1-based.
std::uint64_t NearestRank(std::uint64_t n, double q) {
  const double exact = q / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};

}  // namespace

SampleSet::SampleSet(std::size_t capacity, std::uint64_t stream)
    : kept_(std::max<std::size_t>(capacity, 1), 0.0), rng_(stream) {}

void SampleSet::Add(double value) {
  ++count_;
  sum_ += value;
  if (filled_ < kept_.size()) {
    kept_[filled_++] = value;
    return;
  }
  const std::uint64_t slot = SplitMix64(&rng_) % count_;
  if (slot < kept_.size()) kept_[slot] = value;
}

void SampleSet::Clear() {
  filled_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

double SampleSet::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::vector<double> SampleSet::Sorted() const {
  std::vector<double> out(kept_.begin(),
                          kept_.begin() + static_cast<std::ptrdiff_t>(filled_));
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t SamplesBeyond(std::uint64_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool PercentileSupported(std::uint64_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double HighestSupportedPercentile(std::uint64_t n) {
  for (double q : kLadder) {
    if (PercentileSupported(n, q)) return q;
  }
  return 0.0;
}

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  const std::uint64_t rank = NearestRank(sorted.size(), q);
  return sorted[static_cast<std::size_t>(rank - 1)];
}

Summary Summarize(const SampleSet& samples) {
  Summary s;
  s.count = samples.count();
  s.mean = samples.mean();
  const std::vector<double> sorted = samples.Sorted();
  s.kept = sorted.size();
  if (sorted.empty()) return s;
  s.p50 = PercentileOfSorted(sorted, 50.0);
  if (PercentileSupported(s.kept, 99.0)) {
    s.p99 = PercentileOfSorted(sorted, 99.0);
  }
  s.tail_q = HighestSupportedPercentile(s.kept);
  if (s.tail_q > 0.0) s.tail = PercentileOfSorted(sorted, s.tail_q);
  return s;
}

SlicedPercentiles::SlicedPercentiles(std::size_t slice_samples)
    : slice_samples_(std::max<std::size_t>(slice_samples, 1)),
      current_(slice_samples_) {}

void SlicedPercentiles::Start(std::int64_t now_ns) { slice_start_ns_ = now_ns; }

void SlicedPercentiles::Add(std::int64_t now_ns, double value) {
  if (slice_start_ns_ < 0) slice_start_ns_ = now_ns;
  current_.Add(value);
  if (current_.count() < slice_samples_) return;
  const std::vector<double> sorted = current_.Sorted();
  current_.Clear();
  p50s_.push_back(PercentileOfSorted(sorted, 50.0));
  p99s_.push_back(PercentileOfSorted(sorted, 99.0));
  durations_ns_.push_back(static_cast<double>(now_ns - slice_start_ns_));
  slice_start_ns_ = now_ns;
}

void SlicedPercentiles::Finish() { current_.Clear(); }

namespace {

double FastDecile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, SlicedPercentiles::kFastQuantile);
}

}  // namespace

double SlicedPercentiles::p50() const { return FastDecile(p50s_); }

double SlicedPercentiles::p99() const { return FastDecile(p99s_); }

double SlicedPercentiles::rate_per_s() const {
  const double ns = FastDecile(durations_ns_);
  return ns > 0.0 ? static_cast<double>(slice_samples_) / (ns * 1e-9) : 0.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
