// Sample storage and percentile selection for the benchmark's timings.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Fixed-capacity sample store. Every offered sample counts towards
/// count()/sum(); the first `capacity` are kept, after which Algorithm R
/// reservoir sampling (deterministic stream) keeps a uniform subset. The
/// buffer is allocated and touched up front, so the benchmark's own
/// resident memory does not grow with the program's throughput and
/// cannot show up in peak_rss_mb.
class SampleSet {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 19;

  explicit SampleSet(std::size_t capacity = kDefaultCapacity,
                     std::uint64_t stream = 1);

  void Add(double value);
  /// Forgets every sample; keeps the buffer.
  void Clear();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// The kept samples, ascending.
  std::vector<double> Sorted() const;

 private:
  std::vector<double> kept_;
  std::size_t filled_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t rng_;
};

/// Number of samples strictly above the nearest-rank `q`-th percentile
/// (0 < q <= 100) of `n` samples: n - ceil(q/100 * n).
std::uint64_t SamplesBeyond(std::uint64_t n, double q);

/// True when the `q`-th percentile of `n` samples has at least ten
/// samples beyond it, so it is more than the single worst few samples.
bool PercentileSupported(std::uint64_t n, double q);

/// The highest of p50, p90, p99, p99.9, p99.99 that `n` samples support,
/// or 0 when not even the median is supported.
double HighestSupportedPercentile(std::uint64_t n);

/// Nearest-rank percentile of ascending `sorted` (must be non-empty).
double PercentileOfSorted(const std::vector<double>& sorted, double q);

/// Median plus the tail figures one timing series reports.
struct Summary {
  std::uint64_t count = 0;    // samples offered
  std::uint64_t kept = 0;     // samples the percentiles are taken over
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;           // 0 when p99 is not supported
  double tail_q = 0.0;        // HighestSupportedPercentile(kept)
  double tail = 0.0;          // value at tail_q
};

Summary Summarize(const SampleSet& samples);

/// Per-slice figures of a timing series, read in the host's fast
/// stretches. The series is cut into slices of `slice_samples` consecutive
/// samples; each slice gives its p50, its p99 (slice_samples/100 samples
/// lie beyond it) and its rate, the samples per second of the caller's
/// clock between the end of the previous slice and its own last sample.
/// The run reports each figure's value in its fastest decile of slices:
/// the 10th percentile of the slice p50s and p99s, the 90th of the rates.
/// Other tenants of a shared host slow it by up to ~1.5x for stretches of
/// tens of milliseconds to minutes, and they only ever add time. The
/// fastest decile therefore tracks what the program itself costs, which a
/// change to the program moves, while the share of a run the host spends
/// slowed, which moves a mean or a median of the slices, does not. A
/// trailing slice with fewer samples is dropped.
class SlicedPercentiles {
 public:
  static constexpr double kFastQuantile = 10.0;

  explicit SlicedPercentiles(std::size_t slice_samples);

  /// Where the caller's clock starts; the first slice's rate counts from
  /// here. Without it, from the first sample.
  void Start(std::int64_t now_ns);
  /// Adds a sample that ended at `now_ns` (non-decreasing across calls).
  void Add(std::int64_t now_ns, double value);
  /// Drops the unfinished trailing slice; call once after the last Add().
  void Finish();

  std::size_t slices() const { return p50s_.size(); }
  std::size_t slice_samples() const { return slice_samples_; }
  double p50() const;  // 10th percentile of the slice p50s
  double p99() const;  // 10th percentile of the slice p99s
  /// 90th percentile of the slice rates, per second; 0 without slices.
  double rate_per_s() const;

 private:
  std::size_t slice_samples_;
  std::int64_t slice_start_ns_ = -1;
  SampleSet current_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::vector<double> durations_ns_;
};

/// Median of a small vector (copied; must be non-empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
