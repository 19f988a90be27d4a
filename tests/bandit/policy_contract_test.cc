// The SelectionPolicy contract, checked once for every policy in
// src/bandit/: SelectRound is the allocating form of SelectRoundInto,
// rounds are 1-based, Observe pairs one batch with each selected seller,
// and a rejected Observe leaves the policy exactly as it was.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bandit/availability_policy.h"
#include "bandit/baseline_policies.h"
#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "bandit/extension_policies.h"
#include "bandit/nonstationary_policies.h"
#include "bandit/policy.h"

namespace cdt {
namespace bandit {
namespace {

constexpr int kSellers = 12;
constexpr int kSelect = 3;
constexpr int kPois = 3;
constexpr std::int64_t kRounds = 200;

using PolicyPtr = std::unique_ptr<SelectionPolicy>;

template <typename Policy>
PolicyPtr Unwrap(util::Result<Policy> policy) {
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  if (!policy.ok()) return nullptr;
  return std::make_unique<Policy>(std::move(policy).value());
}

struct PolicyCase {
  std::string name;
  std::function<PolicyPtr()> make;  // same seed on every call: twins
};

// Names the case in test listings instead of a byte dump.
void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.name; }

std::vector<double> TrueQualities() {
  std::vector<double> q;
  for (int i = 0; i < kSellers; ++i) q.push_back(0.1 + 0.07 * i);
  return q;
}

std::vector<PolicyCase> AllPolicies() {
  return {
      {"Cucb",
       [] {
         CucbOptions options;
         options.num_sellers = kSellers;
         options.num_selected = kSelect;
         return Unwrap(CucbPolicy::Create(options));
       }},
      {"AvailabilityAware",
       [] {
         // Seller i sits out every (i + 2)-th round: never fewer than K on.
         auto shifts = [](int seller, std::int64_t round) {
           return round % (seller + 2) != 0;
         };
         return Unwrap(
             AvailabilityAwareCucbPolicy::Create(kSellers, kSelect, shifts));
       }},
      {"Oracle",
       [] { return Unwrap(OraclePolicy::Create(TrueQualities(), kSelect)); }},
      {"EpsilonFirst",
       [] {
         return Unwrap(EpsilonFirstPolicy::Create(kSellers, kSelect, kRounds,
                                                  0.2, 11));
       }},
      {"Random",
       [] { return Unwrap(RandomPolicy::Create(kSellers, kSelect, 12)); }},
      {"EpsilonGreedy",
       [] {
         return Unwrap(
             EpsilonGreedyPolicy::Create(kSellers, kSelect, 0.1, 13));
       }},
      {"Thompson",
       [] { return Unwrap(ThompsonPolicy::Create(kSellers, kSelect, 14)); }},
      {"SlidingWindow",
       [] {
         return Unwrap(
             SlidingWindowCucbPolicy::Create(kSellers, kSelect, 30));
       }},
      {"Discounted",
       [] {
         return Unwrap(DiscountedUcbPolicy::Create(kSellers, kSelect, 0.95));
       }},
  };
}

class PolicyContractTest : public ::testing::TestWithParam<PolicyCase> {
 protected:
  void SetUp() override {
    a_ = GetParam().make();
    b_ = GetParam().make();
    ASSERT_NE(a_, nullptr);
    ASSERT_NE(b_, nullptr);
    EnvironmentConfig config;
    config.num_sellers = kSellers;
    config.num_pois = kPois;
    config.seed = 5;
    auto env = QualityEnvironment::Create(config);
    ASSERT_TRUE(env.ok());
    env_ = std::make_unique<QualityEnvironment>(std::move(env).value());
  }

  std::vector<std::vector<double>> Feedback(const std::vector<int>& picks) {
    std::vector<std::vector<double>> batches;
    for (int i : picks) batches.push_back(env_->ObserveSeller(i));
    return batches;
  }

  PolicyPtr a_, b_;
  std::unique_ptr<QualityEnvironment> env_;
};

TEST_P(PolicyContractTest, SelectRoundEqualsSelectRoundInto) {
  std::vector<int> into;
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    auto allocated = a_->SelectRound(t);
    ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
    ASSERT_TRUE(b_->SelectRoundInto(t, &into).ok());
    ASSERT_EQ(allocated.value(), into) << "round " << t;
    std::vector<std::vector<double>> batches = Feedback(into);
    ASSERT_TRUE(a_->Observe(into, batches).ok());
    ASSERT_TRUE(b_->Observe(into, batches).ok());
  }
}

TEST_P(PolicyContractTest, RoundZeroIsRejected) {
  std::vector<int> out;
  EXPECT_EQ(a_->SelectRoundInto(0, &out).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(a_->SelectRound(0).ok());
  EXPECT_FALSE(a_->SelectRound(-3).ok());
}

TEST_P(PolicyContractTest, SizeMismatchedObserveIsRejected) {
  EXPECT_EQ(a_->Observe({0, 1}, {{0.5}}).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(a_->Observe({0}, {}).code(), util::StatusCode::kInvalidArgument);
}

TEST_P(PolicyContractTest, RejectedNanBatchLeavesNoTrace) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<int> pa, pb;
  for (std::int64_t t = 1; t <= kRounds; ++t) {
    ASSERT_TRUE(a_->SelectRoundInto(t, &pa).ok());
    ASSERT_TRUE(b_->SelectRoundInto(t, &pb).ok());
    ASSERT_EQ(pa, pb) << "round " << t;
    std::vector<std::vector<double>> batches = Feedback(pa);
    if (t % 25 == 0) {
      // Only the last batch is poisoned, so a policy that applied the
      // round batch by batch would already have learned from the others.
      std::vector<std::vector<double>> poisoned = batches;
      poisoned.back().back() = nan;
      EXPECT_EQ(a_->Observe(pa, poisoned).code(),
                util::StatusCode::kOutOfRange)
          << "round " << t;
    }
    ASSERT_TRUE(a_->Observe(pa, batches).ok());
    ASSERT_TRUE(b_->Observe(pb, batches).ok());
  }
  if (a_->estimator() != nullptr) {
    EXPECT_EQ(a_->estimator()->means(), b_->estimator()->means());
    EXPECT_EQ(a_->estimator()->observation_counts(),
              b_->estimator()->observation_counts());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyContractTest, ::testing::ValuesIn(AllPolicies()),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bandit
}  // namespace cdt
