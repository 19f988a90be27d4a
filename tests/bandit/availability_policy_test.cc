#include "bandit/availability_policy.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "support/oracle.h"

namespace cdt {
namespace bandit {
namespace {

AvailabilityFn EvenRoundsOnly(int parity_seller) {
  // `parity_seller` is available on even rounds only; everyone else always.
  return [parity_seller](int seller, std::int64_t round) {
    if (seller != parity_seller) return true;
    return round % 2 == 0;
  };
}

TEST(AvailabilityPolicyTest, Validation) {
  auto always = [](int, std::int64_t) { return true; };
  EXPECT_FALSE(
      AvailabilityAwareCucbPolicy::Create(0, 1, always).ok());
  EXPECT_FALSE(
      AvailabilityAwareCucbPolicy::Create(5, 6, always).ok());
  EXPECT_FALSE(
      AvailabilityAwareCucbPolicy::Create(5, 2, nullptr).ok());
  EXPECT_TRUE(AvailabilityAwareCucbPolicy::Create(5, 2, always).ok());
}

TEST(AvailabilityPolicyTest, RejectsNonFiniteExploration) {
  auto always = [](int, std::int64_t) { return true; };
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(
        AvailabilityAwareCucbPolicy::Create(5, 2, always, c).status().code(),
        util::StatusCode::kInvalidArgument)
        << c;
  }
}

TEST(AvailabilityPolicyTest, FirstRoundSelectsAvailableOnly) {
  auto policy = AvailabilityAwareCucbPolicy::Create(4, 2,
                                                    EvenRoundsOnly(1));
  ASSERT_TRUE(policy.ok());
  auto selected = policy.value().SelectRound(1);  // odd: seller 1 off
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), (std::vector<int>{0, 2, 3}));
}

TEST(AvailabilityPolicyTest, NeverSelectsUnavailableSeller) {
  auto policy = AvailabilityAwareCucbPolicy::Create(4, 2,
                                                    EvenRoundsOnly(2));
  ASSERT_TRUE(policy.ok());
  for (std::int64_t t = 1; t <= 40; ++t) {
    auto selected = policy.value().SelectRound(t);
    ASSERT_TRUE(selected.ok());
    std::vector<std::vector<double>> obs(selected.value().size(),
                                         std::vector<double>{0.5});
    for (int i : selected.value()) {
      if (t % 2 == 1) {
        EXPECT_NE(i, 2) << "round " << t;
      }
    }
    ASSERT_TRUE(policy.value().Observe(selected.value(), obs).ok());
  }
}

TEST(AvailabilityPolicyTest, SelectsAllWhenFewerThanKAvailable) {
  auto only_seller0 = [](int seller, std::int64_t) { return seller == 0; };
  auto policy = AvailabilityAwareCucbPolicy::Create(5, 3, only_seller0);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value().Observe({0}, {{0.5}}).ok());
  auto selected = policy.value().SelectRound(2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), (std::vector<int>{0}));
}

TEST(AvailabilityPolicyTest, ErrorsWhenNobodyAvailable) {
  auto nobody = [](int, std::int64_t) { return false; };
  auto policy = AvailabilityAwareCucbPolicy::Create(3, 1, nobody);
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE(policy.value().SelectRound(1).ok());
}

TEST(AvailabilityPolicyTest, EmptyObservationBatchesAreSkipped) {
  auto always = [](int, std::int64_t) { return true; };
  auto policy = AvailabilityAwareCucbPolicy::Create(3, 1, always);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value().Observe({0, 1}, {{0.8}, {}}).ok());
  EXPECT_EQ(policy.value().estimator()->arm(0).observations, 1u);
  EXPECT_EQ(policy.value().estimator()->arm(1).observations, 0u);
}

// Differential: the masked bank scan plus shared top-K selects exactly what
// a per-arm UcbValue scan over the available sellers and a partial-sort
// top-K select, round after round, including rounds with fewer than K
// sellers on shift.
TEST(AvailabilityPolicyTest, MatchesPerArmUcbReference) {
  constexpr int kSellers = 40, kSelect = 6, kRounds = 300;
  // Deterministic pseudo-random shifts; some rounds leave < K available.
  auto availability = [](int seller, std::int64_t round) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(seller) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(round) * 0xC2B2AE3D27D4EB4FULL);
    const std::uint64_t mix = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ULL;
    const int keep = round % 17 == 0 ? 8 : 1;  // sparse rounds: 1 in 8
    return ((mix >> 32) % static_cast<std::uint64_t>(keep)) == 0 &&
           ((mix >> 40) % 4) != 0;
  };
  auto policy =
      AvailabilityAwareCucbPolicy::Create(kSellers, kSelect, availability);
  ASSERT_TRUE(policy.ok());
  auto env = QualityEnvironment::Create([] {
    EnvironmentConfig config;
    config.num_sellers = kSellers;
    config.num_pois = 3;
    config.seed = 17;
    return config;
  }());
  ASSERT_TRUE(env.ok());

  std::vector<double> masked;
  std::vector<int> expected, available;
  int sparse_rounds = 0;
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    const EstimatorBank& bank = *policy.value().estimator();
    masked.assign(kSellers, -std::numeric_limits<double>::infinity());
    available.clear();
    for (int i = 0; i < kSellers; ++i) {
      if (!availability(i, t)) continue;
      available.push_back(i);
      masked[static_cast<std::size_t>(i)] = bank.UcbValue(i);
    }
    if (available.empty()) {
      EXPECT_FALSE(policy.value().SelectRound(t).ok());
      continue;
    }
    if (static_cast<int>(available.size()) < kSelect) ++sparse_rounds;
    if (t == 1) {
      expected = available;
    } else {
      testsupport::TopKIndicesPartialSortInto(
          masked, std::min<int>(kSelect, static_cast<int>(available.size())),
          &expected);
    }
    auto selected = policy.value().SelectRound(t);
    ASSERT_TRUE(selected.ok());
    ASSERT_EQ(selected.value(), expected) << "round " << t;
    std::vector<std::vector<double>> obs;
    for (int i : selected.value()) {
      obs.push_back(env.value().ObserveSeller(i));
    }
    ASSERT_TRUE(policy.value().Observe(selected.value(), obs).ok());
  }
  EXPECT_GT(sparse_rounds, 0);
}

// Property: under shift-based availability, the aware policy collects more
// quality than a blind CUCB that wastes slots on off-shift sellers.
TEST(AvailabilityPolicyTest, AwareBeatsBlindUnderShifts) {
  const int kSellers = 12, kSelect = 3, kRounds = 800;
  auto env = QualityEnvironment::Create([] {
    EnvironmentConfig config;
    config.num_sellers = kSellers;
    config.num_pois = 5;
    config.seed = 33;
    return config;
  }());
  ASSERT_TRUE(env.ok());
  // Half the sellers work "odd shifts", half "even shifts".
  auto shift = [](int seller, std::int64_t round) {
    return (seller % 2) == (round % 2);
  };

  auto run = [&](SelectionPolicy& policy, bool blind) {
    auto environment = QualityEnvironment::Create([] {
      EnvironmentConfig config;
      config.num_sellers = kSellers;
      config.num_pois = 5;
      config.seed = 33;
      return config;
    }());
    EXPECT_TRUE(environment.ok());
    (void)blind;
    double collected = 0.0;
    for (std::int64_t t = 1; t <= kRounds; ++t) {
      auto selected = policy.SelectRound(t);
      EXPECT_TRUE(selected.ok());
      // Data flows only from on-shift sellers; off-shift picks waste the
      // slot. Feed back only the non-empty batches (pairs stay aligned).
      std::vector<int> producing;
      std::vector<std::vector<double>> obs;
      for (int i : selected.value()) {
        if (shift(i, t)) {
          producing.push_back(i);
          obs.push_back(environment.value().ObserveSeller(i));
          for (double q : obs.back()) collected += q;
        }
      }
      if (!producing.empty()) {
        EXPECT_TRUE(policy.Observe(producing, obs).ok());
      }
    }
    return collected;
  };

  auto aware =
      AvailabilityAwareCucbPolicy::Create(kSellers, kSelect, shift);
  ASSERT_TRUE(aware.ok());
  CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelect;
  auto blind = CucbPolicy::Create(options);
  ASSERT_TRUE(blind.ok());

  double aware_quality = run(aware.value(), false);
  double blind_quality = run(blind.value(), true);
  EXPECT_GT(aware_quality, blind_quality * 1.2);
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
