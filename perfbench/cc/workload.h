// Shared pieces of the benchmark's workloads: run options, the result
// report, campaign shapes and seed derivation.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WALs and the Chrome trace.
  std::string out_dir;
  /// NowNs() after which a phase gives up and fails the run, so the
  /// process always ends within the benchmark's time limit.
  std::int64_t hard_deadline_ns = 0;
};

/// Collects the metrics and correctness checks of one run and prints the
/// final result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A correctness check failed; the run reports "correct": false.
  void Fail(const std::string& what);
  /// Counts `n` attempted operations of which `failed` failed.
  void Count(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return failures_.empty(); }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Detail-line renderings: whole-run percentiles with the highest one the
/// sample count supports, and the per-slice medians.
std::string Describe(const Summary& s);
std::string Describe(const SlicedPercentiles& s);
/// The p99 a metric reports; fails the run when too few samples support
/// it (for slices: when the smallest slice cannot).
double P99(const Summary& s, const std::string& what, Report* report);
double P99(const SlicedPercentiles& s, const std::string& what,
           Report* report);

/// A campaign workload: Table II economics at the given scale.
struct CampaignShape {
  int sellers = 300;            // M
  int selected = 10;            // K
  std::int64_t rounds = 100000; // N, one campaign
  bool invariants = true;       // the library default
  /// Fewest Create + round 1 set-ups an untraced run times (setup_s is
  /// their median): every campaign's own, topped up with set-up-only
  /// repetitions between campaigns.
  int setup_reps = 101;
};

/// Independent seed for item `index` of the run seeded `run_seed`.
std::uint64_t DeriveSeed(std::uint64_t run_seed, std::uint64_t index);

/// Table II defaults with the shape's scale, invariant setting and seed.
cdt::core::MechanismConfig CampaignConfig(const CampaignShape& shape,
                                          std::uint64_t seed);

/// Campaign phase. Untraced (`spans` null): end-to-end metrics of the
/// facade. Traced: per-layer metrics from the decorator wiring, plus
/// trace.overhead_ratio. Either way every round's canonical bytes are
/// CRC'd and the first campaign is replayed through the other wiring to
/// compare digests. `*reference_round_us` receives the untraced mean
/// round time of the first campaign (the runtime's dispatch baseline).
void RunCampaign(const CampaignShape& shape, const RunOptions& options,
                 double seconds, SpanRecorder* spans, Report* report,
                 double* reference_round_us);

/// The closed-loop service generator's shape.
struct ServiceShape {
  int shards = 2;
  int marketplaces = 8;
  /// Outstanding round ticks kept per shard.
  int window = 4;
  std::int64_t snapshot_every = 100000;
  /// Service set-ups timed per untraced run (setup_s is their median).
  int setup_reps = 21;
};

/// Service phase: `shape.marketplaces` marketplaces built from `config`
/// behind a MarketplaceService. Untraced: end-to-end metrics. Traced:
/// runtime.* and persist.* per-layer metrics; `reference_round_us` (the
/// same config's untraced campaign round mean) gives
/// runtime.dispatch_overhead_us.
void RunService(const cdt::core::MechanismConfig& config,
                const ServiceShape& shape, const RunOptions& options,
                double seconds, SpanRecorder* spans,
                double reference_round_us, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
