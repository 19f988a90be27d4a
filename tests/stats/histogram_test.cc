#include "support/histogram.h"

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace cdt {
namespace stats {
namespace {

TEST(HistogramTest, RejectsBadParameters) {
  EXPECT_FALSE(Histogram::Create(0.0, 1.0, 0).ok());
  EXPECT_FALSE(Histogram::Create(1.0, 0.0, 4).ok());
  EXPECT_FALSE(Histogram::Create(1.0, 1.0, 4).ok());
}

TEST(HistogramTest, BinsValuesCorrectly) {
  auto h = Histogram::Create(0.0, 1.0, 4);
  ASSERT_TRUE(h.ok());
  h.value().Add(0.1);   // bin 0
  h.value().Add(0.3);   // bin 1
  h.value().Add(0.6);   // bin 2
  h.value().Add(0.9);   // bin 3
  h.value().Add(1.0);   // inclusive upper edge -> last bin
  EXPECT_EQ(h.value().bin_count(0), 1u);
  EXPECT_EQ(h.value().bin_count(1), 1u);
  EXPECT_EQ(h.value().bin_count(2), 1u);
  EXPECT_EQ(h.value().bin_count(3), 2u);
  EXPECT_EQ(h.value().total(), 5u);
}

TEST(HistogramTest, TracksOutOfRangeSeparately) {
  auto h = Histogram::Create(0.0, 1.0, 2);
  ASSERT_TRUE(h.ok());
  h.value().Add(-0.5);
  h.value().Add(1.5);
  h.value().Add(0.5);
  EXPECT_EQ(h.value().underflow(), 1u);
  EXPECT_EQ(h.value().overflow(), 1u);
  EXPECT_EQ(h.value().total(), 1u);
}

TEST(HistogramTest, FractionAndMode) {
  auto h = Histogram::Create(0.0, 10.0, 10);
  ASSERT_TRUE(h.ok());
  for (int i = 0; i < 8; ++i) h.value().Add(4.5);
  for (int i = 0; i < 2; ++i) h.value().Add(8.5);
  EXPECT_DOUBLE_EQ(h.value().Fraction(4), 0.8);
  EXPECT_DOUBLE_EQ(h.value().ModeMidpoint(), 4.5);
}

TEST(HistogramTest, UniformDrawsFillBinsEvenly) {
  auto h = Histogram::Create(0.0, 1.0, 10);
  ASSERT_TRUE(h.ok());
  Xoshiro256 rng(77);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) h.value().Add(rng.NextDouble());
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(h.value().Fraction(b), 0.1, 0.01);
  }
}

TEST(HistogramTest, ToStringRendersBars) {
  auto h = Histogram::Create(0.0, 1.0, 2);
  ASSERT_TRUE(h.ok());
  h.value().Add(0.25);
  std::string s = h.value().ToString(10);
  EXPECT_NE(s.find('#'), std::string::npos);
}

}  // namespace
}  // namespace stats
}  // namespace cdt
