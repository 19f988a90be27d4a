#include "bandit/cucb_policy.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "bandit/environment.h"

namespace cdt {
namespace bandit {
namespace {

CucbOptions Options(int m, int k) {
  CucbOptions options;
  options.num_sellers = m;
  options.num_selected = k;
  return options;
}

TEST(CucbPolicyTest, CreateValidatesArgs) {
  EXPECT_FALSE(CucbPolicy::Create(Options(0, 1)).ok());
  EXPECT_FALSE(CucbPolicy::Create(Options(5, 0)).ok());
  EXPECT_FALSE(CucbPolicy::Create(Options(5, 6)).ok());
  EXPECT_TRUE(CucbPolicy::Create(Options(5, 2)).ok());
}

TEST(CucbPolicyTest, RejectsNonFiniteExploration) {
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    CucbOptions options = Options(5, 2);
    options.exploration = c;
    EXPECT_EQ(CucbPolicy::Create(options).status().code(),
              util::StatusCode::kInvalidArgument)
        << c;
  }
  EXPECT_FALSE(
      EstimatorBank::Create(5, std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(
      EstimatorBank::Create(5, std::numeric_limits<double>::quiet_NaN()).ok());
}

TEST(CucbPolicyTest, DefaultExplorationIsKPlusOne) {
  auto policy = CucbPolicy::Create(Options(5, 3));
  ASSERT_TRUE(policy.ok());
  EXPECT_DOUBLE_EQ(policy.value().estimator()->exploration(), 4.0);
}

TEST(CucbPolicyTest, FirstRoundSelectsAllSellers) {
  auto policy = CucbPolicy::Create(Options(6, 2));
  ASSERT_TRUE(policy.ok());
  auto selected = policy.value().SelectRound(1);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CucbPolicyTest, ColdStartAblationSkipsSelectAll) {
  CucbOptions options = Options(6, 2);
  options.select_all_first_round = false;
  auto policy = CucbPolicy::Create(options);
  ASSERT_TRUE(policy.ok());
  auto selected = policy.value().SelectRound(1);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value().size(), 2u);
}

TEST(CucbPolicyTest, LaterRoundsSelectTopKByUcb) {
  auto policy = CucbPolicy::Create(Options(3, 1));
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy.value()
                  .Observe({0, 1, 2}, {{0.9, 0.9}, {0.5, 0.5}, {0.1, 0.1}})
                  .ok());
  auto selected = policy.value().SelectRound(2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value(), (std::vector<int>{0}));
}

TEST(CucbPolicyTest, RejectsInvalidRoundAndMismatchedObserve) {
  auto policy = CucbPolicy::Create(Options(3, 1));
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE(policy.value().SelectRound(0).ok());
  EXPECT_FALSE(policy.value().Observe({0, 1}, {{0.5}}).ok());
}

TEST(CucbPolicyTest, ConvergesToBestSellersOnEasyInstance) {
  // Well-separated qualities: after enough rounds the policy should almost
  // always pick the true top-2.
  auto env = QualityEnvironment::CreateWithQualities(
      {0.9, 0.8, 0.3, 0.2, 0.1}, 5, 0.05, 17);
  ASSERT_TRUE(env.ok());
  auto policy = CucbPolicy::Create(Options(5, 2));
  ASSERT_TRUE(policy.ok());

  int correct_in_tail = 0;
  const int kRounds = 600, kTail = 100;
  for (int t = 1; t <= kRounds; ++t) {
    auto selected = policy.value().SelectRound(t);
    ASSERT_TRUE(selected.ok());
    std::vector<std::vector<double>> obs;
    for (int i : selected.value()) {
      obs.push_back(env.value().ObserveSeller(i));
    }
    ASSERT_TRUE(policy.value().Observe(selected.value(), obs).ok());
    if (t > kRounds - kTail) {
      std::vector<int> s = selected.value();
      std::sort(s.begin(), s.end());
      if (s == std::vector<int>{0, 1}) ++correct_in_tail;
    }
  }
  EXPECT_GE(correct_in_tail, 80);  // >= 80% of the tail rounds
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
