#include "bandit/nonstationary_policies.h"

#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "bandit/cucb_policy.h"
#include "bandit/drift_environment.h"

namespace cdt {
namespace bandit {
namespace {

TEST(SlidingWindowCucbTest, Validation) {
  EXPECT_FALSE(SlidingWindowCucbPolicy::Create(0, 1, 10).ok());
  EXPECT_FALSE(SlidingWindowCucbPolicy::Create(5, 0, 10).ok());
  EXPECT_FALSE(SlidingWindowCucbPolicy::Create(5, 6, 10).ok());
  EXPECT_FALSE(SlidingWindowCucbPolicy::Create(5, 2, 0).ok());
  auto ok = SlidingWindowCucbPolicy::Create(5, 2, 10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().name(), "sw-cucb(10)");
}

TEST(SlidingWindowCucbTest, WindowEvictsOldSamples) {
  auto policy = SlidingWindowCucbPolicy::Create(2, 1, 4);
  ASSERT_TRUE(policy.ok());
  // Fill arm 0 with low values, then flood with high: the window forgets.
  ASSERT_TRUE(policy.value().Observe({0}, {{0.1, 0.1, 0.1, 0.1}}).ok());
  EXPECT_NEAR(policy.value().WindowedMean(0), 0.1, 1e-12);
  ASSERT_TRUE(policy.value().Observe({0}, {{0.9, 0.9, 0.9, 0.9}}).ok());
  EXPECT_NEAR(policy.value().WindowedMean(0), 0.9, 1e-12);
  EXPECT_EQ(policy.value().WindowedCount(0), 4u);
}

TEST(SlidingWindowCucbTest, FirstRoundSelectsAll) {
  auto policy = SlidingWindowCucbPolicy::Create(4, 2, 16);
  ASSERT_TRUE(policy.ok());
  auto selected = policy.value().SelectRound(1);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value().size(), 4u);
}

TEST(SlidingWindowCucbTest, RejectsBadObservations) {
  auto policy = SlidingWindowCucbPolicy::Create(2, 1, 4);
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE(policy.value().Observe({0}, {{1.5}}).ok());
  EXPECT_FALSE(policy.value().Observe({5}, {{0.5}}).ok());
  EXPECT_FALSE(policy.value().Observe({0, 1}, {{0.5}}).ok());
}

TEST(SlidingWindowCucbTest, RejectsNanQuality) {
  auto policy = SlidingWindowCucbPolicy::Create(2, 1, 4);
  ASSERT_TRUE(policy.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(policy.value().Observe({0, 1}, {{0.5}, {nan}}).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(policy.value().WindowedCount(1), 0u);
  EXPECT_FALSE(std::isnan(policy.value().WindowedMean(0)));
  EXPECT_FALSE(std::isnan(policy.value().WindowedMean(1)));
}

TEST(SlidingWindowCucbTest, RejectedRoundLeavesNoSample) {
  auto policy = SlidingWindowCucbPolicy::Create(2, 1, 4);
  ASSERT_TRUE(policy.ok());
  // The bad batch comes second: the first must not be half-applied.
  EXPECT_FALSE(policy.value().Observe({0, 1}, {{0.5}, {2.0}}).ok());
  EXPECT_EQ(policy.value().WindowedCount(0), 0u);
  EXPECT_EQ(policy.value().WindowedCount(1), 0u);
}

TEST(SlidingWindowCucbTest, RejectsNonFiniteExploration) {
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(SlidingWindowCucbPolicy::Create(5, 2, 10, c).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(DiscountedUcbTest, Validation) {
  EXPECT_FALSE(DiscountedUcbPolicy::Create(0, 1, 0.99).ok());
  EXPECT_FALSE(DiscountedUcbPolicy::Create(5, 6, 0.99).ok());
  EXPECT_FALSE(DiscountedUcbPolicy::Create(5, 1, 0.0).ok());
  EXPECT_FALSE(DiscountedUcbPolicy::Create(5, 1, 1.0001).ok());
  EXPECT_TRUE(DiscountedUcbPolicy::Create(5, 1, 1.0).ok());
}

TEST(DiscountedUcbTest, DecayFadesStaleEvidence) {
  auto policy = DiscountedUcbPolicy::Create(2, 1, 0.5);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value().Observe({0}, {{1.0, 1.0}}).ok());
  double n0 = policy.value().DiscountedCount(0);
  EXPECT_NEAR(n0, 2.0, 1e-12);
  // Observe only arm 1 for several rounds: arm 0's count halves each time.
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(policy.value().Observe({1}, {{0.5}}).ok());
  }
  EXPECT_NEAR(policy.value().DiscountedCount(0), 2.0 / 32.0, 1e-12);
  EXPECT_NEAR(policy.value().DiscountedMean(0), 1.0, 1e-9);
}

TEST(DiscountedUcbTest, GammaOneMatchesStationaryMean) {
  auto policy = DiscountedUcbPolicy::Create(2, 1, 1.0);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value().Observe({0}, {{0.2, 0.4, 0.6}}).ok());
  ASSERT_TRUE(policy.value().Observe({0}, {{0.8}}).ok());
  EXPECT_NEAR(policy.value().DiscountedMean(0), 0.5, 1e-12);
  EXPECT_NEAR(policy.value().DiscountedCount(0), 4.0, 1e-12);
}

TEST(DiscountedUcbTest, RejectedRoundDecaysNothing) {
  auto policy = DiscountedUcbPolicy::Create(2, 1, 0.9);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value().Observe({1}, {{1.0}}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(policy.value().Observe({0}, {{nan}}).ok());
  EXPECT_FALSE(policy.value().Observe({0, 1}, {{0.5}, {2.0}}).ok());
  // Neither rejected round decayed arm 1 or credited arm 0.
  EXPECT_EQ(policy.value().DiscountedCount(1), 1.0);
  EXPECT_EQ(policy.value().DiscountedCount(0), 0.0);
}

TEST(DiscountedUcbTest, RejectsNonFiniteExploration) {
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(DiscountedUcbPolicy::Create(5, 2, 0.9, c).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

// Runs a policy against a drifting environment and returns the dynamic
// regret (per-PoI units) plus optionally applies a scripted scenario.
double RunDynamicRegret(SelectionPolicy& policy, DriftingEnvironment& env,
                        int rounds,
                        const std::function<void(std::int64_t)>& script) {
  double achieved = 0.0, oracle = 0.0;
  for (int t = 1; t <= rounds; ++t) {
    if (script) script(t);
    auto selected = policy.SelectRound(t);
    EXPECT_TRUE(selected.ok());
    std::vector<std::vector<double>> obs;
    for (int i : selected.value()) {
      obs.push_back(env.ObserveSeller(i));
      achieved += env.effective_quality(i);
    }
    // Normalise rounds where the policy selects more than K (round 1).
    oracle += env.OracleTopK(static_cast<int>(selected.value().size()));
    EXPECT_TRUE(policy.Observe(selected.value(), obs).ok());
    env.AdvanceRound();
  }
  return oracle - achieved;
}

// Property: under random-walk drift the sliding-window policy tracks the
// moving optimum better than the stationary CUCB estimator.
TEST(NonstationaryTrackingTest, SlidingWindowBeatsStationaryUnderDrift) {
  const int kSellers = 10, kSelect = 2, kRounds = 3000;
  DriftConfig drift;
  drift.kind = DriftKind::kRandomWalk;
  drift.step_stddev = 0.02;  // fast drift

  std::vector<double> initial;
  stats::Xoshiro256 qrng(99);
  for (int i = 0; i < kSellers; ++i) {
    initial.push_back(qrng.NextDouble(0.05, 0.95));
  }

  CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelect;
  auto stationary = CucbPolicy::Create(options);
  ASSERT_TRUE(stationary.ok());
  auto window = SlidingWindowCucbPolicy::Create(kSellers, kSelect, 200);
  ASSERT_TRUE(window.ok());

  auto env_a = DriftingEnvironment::Create(initial, 5, 0.1, drift, 1234);
  auto env_b = DriftingEnvironment::Create(initial, 5, 0.1, drift, 1234);
  ASSERT_TRUE(env_a.ok());
  ASSERT_TRUE(env_b.ok());
  double regret_stationary =
      RunDynamicRegret(stationary.value(), env_a.value(), kRounds, nullptr);
  double regret_window =
      RunDynamicRegret(window.value(), env_b.value(), kRounds, nullptr);
  EXPECT_LT(regret_window, regret_stationary);
}

// Property: after an abrupt collapse of the best seller's quality, the
// discounted policy recovers (re-ranks) while the stationary estimator
// clings to its stale mean — its canonical failure mode.
TEST(NonstationaryTrackingTest, DiscountedRecoversFromAbruptCollapse) {
  const int kSellers = 5, kSelect = 1, kRounds = 4000;
  std::vector<double> initial{0.9, 0.6, 0.4, 0.3, 0.2};
  DriftConfig drift;
  drift.kind = DriftKind::kNone;

  auto make_script = [](DriftingEnvironment& env) {
    return [&env](std::int64_t t) {
      if (t == 1500) {
        // Seller 0's device breaks: quality collapses.
        EXPECT_TRUE(env.SetNominalQuality(0, 0.05).ok());
      }
    };
  };

  CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelect;
  auto stationary = CucbPolicy::Create(options);
  ASSERT_TRUE(stationary.ok());
  auto discounted = DiscountedUcbPolicy::Create(kSellers, kSelect, 0.998);
  ASSERT_TRUE(discounted.ok());

  auto env_a = DriftingEnvironment::Create(initial, 5, 0.1, drift, 77);
  auto env_b = DriftingEnvironment::Create(initial, 5, 0.1, drift, 77);
  ASSERT_TRUE(env_a.ok());
  ASSERT_TRUE(env_b.ok());
  double regret_stationary = RunDynamicRegret(
      stationary.value(), env_a.value(), kRounds, make_script(env_a.value()));
  double regret_discounted = RunDynamicRegret(
      discounted.value(), env_b.value(), kRounds, make_script(env_b.value()));
  EXPECT_LT(regret_discounted, regret_stationary);
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
