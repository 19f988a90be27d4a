#include "bandit/arm.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cdt {
namespace bandit {
namespace {

TEST(TopKIndicesTest, OrdersByValueThenIndex) {
  std::vector<double> v{0.2, 0.9, 0.9, 0.1};
  std::vector<int> top;
  TopKIndicesInto(v, 2, &top);
  EXPECT_EQ(top, (std::vector<int>{1, 2}));
  TopKIndicesInto(v, 3, &top);
  EXPECT_EQ(top, (std::vector<int>{1, 2, 0}));
}

TEST(TopKIndicesTest, HandlesEdgeSizes) {
  std::vector<double> v{1.0, 2.0};
  std::vector<int> top{7};
  TopKIndicesInto(v, 0, &top);
  EXPECT_TRUE(top.empty());
  TopKIndicesInto(v, 5, &top);
  EXPECT_EQ(top, (std::vector<int>{1, 0}));  // capped at M
}

TEST(EstimatorBankTest, CreateValidatesArgs) {
  EXPECT_FALSE(EstimatorBank::Create(0, 1.0).ok());
  EXPECT_FALSE(EstimatorBank::Create(5, 0.0).ok());
  EXPECT_TRUE(EstimatorBank::Create(5, 2.0).ok());
}

TEST(EstimatorBankTest, UpdateImplementsEq17And18) {
  auto bank = EstimatorBank::Create(2, 2.0);
  ASSERT_TRUE(bank.ok());
  // First batch of L=4 observations for arm 0.
  ASSERT_TRUE(bank.value().Update(0, {0.8, 0.6, 0.7, 0.5}).ok());
  EXPECT_EQ(bank.value().arm(0).observations, 4u);        // Eq. (17): n += L
  EXPECT_NEAR(bank.value().arm(0).mean, 0.65, 1e-12);     // Eq. (18)
  // Second batch merges with the running mean.
  ASSERT_TRUE(bank.value().Update(0, {0.1, 0.1}).ok());
  EXPECT_EQ(bank.value().arm(0).observations, 6u);
  EXPECT_NEAR(bank.value().arm(0).mean, (0.65 * 4 + 0.2) / 6.0, 1e-12);
  // Untouched arm stays zero.
  EXPECT_EQ(bank.value().arm(1).observations, 0u);
  EXPECT_EQ(bank.value().total_observations(), 6u);
}

TEST(EstimatorBankTest, UpdateRejectsBadInput) {
  auto bank = EstimatorBank::Create(2, 2.0);
  ASSERT_TRUE(bank.ok());
  EXPECT_FALSE(bank.value().Update(-1, {0.5}).ok());
  EXPECT_FALSE(bank.value().Update(2, {0.5}).ok());
  EXPECT_FALSE(bank.value().Update(0, {}).ok());
  EXPECT_FALSE(bank.value().Update(0, {1.5}).ok());
  EXPECT_FALSE(bank.value().Update(0, {-0.1}).ok());
}

TEST(EstimatorBankTest, UcbMatchesEq19) {
  auto bank = EstimatorBank::Create(3, 11.0);  // K+1 = 11
  ASSERT_TRUE(bank.ok());
  ASSERT_TRUE(bank.value().Update(0, {0.5, 0.5}).ok());
  ASSERT_TRUE(bank.value().Update(1, {0.9}).ok());
  double total = 3.0;
  double expected0 = 0.5 + std::sqrt(11.0 * std::log(total) / 2.0);
  EXPECT_NEAR(bank.value().UcbValue(0), expected0, 1e-12);
  // Unexplored arm carries infinite bonus.
  EXPECT_TRUE(std::isinf(bank.value().UcbValue(2)));
}

TEST(EstimatorBankTest, UnexploredArmsWinTopK) {
  auto bank = EstimatorBank::Create(3, 2.0);
  ASSERT_TRUE(bank.ok());
  ASSERT_TRUE(bank.value().Update(0, {1.0, 1.0, 1.0}).ok());
  std::vector<double> ucb;
  std::vector<int> top;
  bank.value().TopKByUcbInto(2, &ucb, &top);
  // Arms 1 and 2 are unexplored (infinite UCB) and must come first.
  EXPECT_EQ(top, (std::vector<int>{1, 2}));
}

TEST(EstimatorBankTest, TopKByMeanIgnoresUncertainty) {
  auto bank = EstimatorBank::Create(3, 2.0);
  ASSERT_TRUE(bank.ok());
  ASSERT_TRUE(bank.value().Update(0, {0.9}).ok());
  ASSERT_TRUE(bank.value().Update(1, {0.5, 0.5, 0.5, 0.5}).ok());
  std::vector<int> top;
  TopKIndicesInto(bank.value().means(), 1, &top);
  EXPECT_EQ(top, (std::vector<int>{0}));
}

TEST(EstimatorBankTest, LessExploredArmHasWiderBonus) {
  auto bank = EstimatorBank::Create(2, 2.0);
  ASSERT_TRUE(bank.ok());
  ASSERT_TRUE(bank.value().Update(0, {0.5}).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bank.value().Update(1, {0.5}).ok());
  }
  double bonus0 = bank.value().UcbValue(0) - 0.5;
  double bonus1 = bank.value().UcbValue(1) - 0.5;
  EXPECT_GT(bonus0, bonus1);
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
