// Statistical validation of the synthetic trace generator using the
// chi-square / KS helpers: zone popularity must follow the configured Zipf
// law, timestamps must be uniform over the window, and the observation
// noise of the quality environment must match its truncated-Gaussian spec.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "bandit/environment.h"
#include "stats/distributions.h"
#include "support/stats_tests.h"
#include "trace/generator.h"

namespace cdt {
namespace trace {
namespace {

TEST(TraceStatisticsTest, PickupZonesFollowConfiguredZipf) {
  TraceConfig config;
  config.num_records = 40000;
  config.num_zones = 20;
  config.zone_zipf_exponent = 1.0;
  config.seed = 3;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());

  std::vector<std::uint64_t> counts(20, 0);
  for (const TripRecord& trip : trace.value().trips) {
    ++counts[static_cast<std::size_t>(trip.pickup_zone)];
  }
  std::vector<double> expected(20);
  for (int k = 0; k < 20; ++k) {
    expected[static_cast<std::size_t>(k)] = 1.0 / static_cast<double>(k + 1);
  }
  auto result = stats::ChiSquareGoodnessOfFit(counts, expected);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().p_value, 0.001)
      << "chi2=" << result.value().statistic;
}

TEST(TraceStatisticsTest, PickupZonesRejectWrongExponent) {
  TraceConfig config;
  config.num_records = 40000;
  config.num_zones = 20;
  config.zone_zipf_exponent = 1.0;
  config.seed = 3;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  std::vector<std::uint64_t> counts(20, 0);
  for (const TripRecord& trip : trace.value().trips) {
    ++counts[static_cast<std::size_t>(trip.pickup_zone)];
  }
  // Test the same counts against a much flatter law: must be rejected.
  std::vector<double> wrong(20);
  for (int k = 0; k < 20; ++k) {
    wrong[static_cast<std::size_t>(k)] =
        1.0 / std::sqrt(static_cast<double>(k + 1));
  }
  auto result = stats::ChiSquareGoodnessOfFit(counts, wrong);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 1e-6);
}

TEST(TraceStatisticsTest, TimestampsUniformOverWindow) {
  TraceConfig config;
  config.num_records = 20000;
  config.seed = 9;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  double window = static_cast<double>(config.duration_seconds);
  std::vector<double> samples;
  samples.reserve(trace.value().trips.size());
  for (const TripRecord& trip : trace.value().trips) {
    samples.push_back(static_cast<double>(trip.timestamp) / window);
  }
  auto d = stats::KolmogorovSmirnovStatistic(
      samples, [](double x) { return std::min(1.0, std::max(0.0, x)); });
  ASSERT_TRUE(d.ok());
  EXPECT_GT(stats::KolmogorovSmirnovPValue(d.value(), samples.size()),
            0.001);
}

TEST(TraceStatisticsTest, QualityObservationsMatchTruncatedGaussianCdf) {
  auto env =
      bandit::QualityEnvironment::CreateWithQualities({0.7}, 10, 0.15, 27);
  ASSERT_TRUE(env.ok());
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    for (double q : env.value().ObserveSeller(0)) samples.push_back(q);
  }
  // Truncated-Gaussian CDF on [0,1] centred at 0.7 with σ=0.15.
  double z0 = stats::NormalCdf((0.0 - 0.7) / 0.15);
  double z1 = stats::NormalCdf((1.0 - 0.7) / 0.15);
  auto cdf = [z0, z1](double x) {
    double zx = stats::NormalCdf((x - 0.7) / 0.15);
    return std::min(1.0, std::max(0.0, (zx - z0) / (z1 - z0)));
  };
  auto d = stats::KolmogorovSmirnovStatistic(samples, cdf);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(stats::KolmogorovSmirnovPValue(d.value(), samples.size()),
            0.001);
}

}  // namespace
}  // namespace trace
}  // namespace cdt
