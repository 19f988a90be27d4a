#include "core/config.h"

#include <limits>

#include <gtest/gtest.h>

namespace cdt {
namespace core {
namespace {

TEST(MechanismConfigTest, TableIIDefaultsAreValid) {
  MechanismConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.num_sellers, 300);
  EXPECT_EQ(config.num_selected, 10);
  EXPECT_EQ(config.num_pois, 10);
  EXPECT_EQ(config.num_rounds, 100000);
  EXPECT_DOUBLE_EQ(config.theta, 0.1);
  EXPECT_DOUBLE_EQ(config.lambda, 1.0);
  EXPECT_DOUBLE_EQ(config.omega, 1000.0);
}

TEST(MechanismConfigTest, ValidationCatchesBadRanges) {
  MechanismConfig config;
  config.num_selected = 301;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.omega = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.seller_a_lo = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.quality_lo = 0.5;
  config.quality_hi = 0.4;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.collection_price_min = 2.0;
  config.collection_price_max = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.initial_tau = 2000.0;  // exceeds round duration
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MechanismConfigTest, RejectionsCarryDescriptiveMessages) {
  MechanismConfig config;
  config.num_selected = config.num_sellers + 1;  // K > M
  util::Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("K <= M"), std::string::npos)
      << status.ToString();

  config = {};
  config.quality_floor = 0.0;
  status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("quality_floor"), std::string::npos)
      << status.ToString();
  config.quality_floor = -0.5;
  EXPECT_FALSE(config.Validate().ok());

  config = {};
  config.consumer_price_min = 200.0;  // inverted interval
  status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("consumer price bounds"), std::string::npos)
      << status.ToString();

  config = {};
  config.collection_price_min = 50.0;  // inverted interval
  status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("collection price bounds"),
            std::string::npos)
      << status.ToString();
}

TEST(MechanismConfigTest, RejectsNonFiniteExploration) {
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    MechanismConfig config;
    config.exploration = c;
    util::Status status = config.Validate();
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << c;
    EXPECT_NE(status.message().find("exploration"), std::string::npos)
        << status.ToString();
  }
  MechanismConfig config;
  config.exploration = -1.0;  // <= 0 still means the paper's K+1
  EXPECT_TRUE(config.Validate().ok());
}

TEST(MechanismConfigTest, CheckInvariantsFlagFlowsToEngineConfig) {
  MechanismConfig config;
  EXPECT_TRUE(config.check_invariants);  // armed by default
  EXPECT_TRUE(config.MakeEngineConfig().check_invariants);
  config.check_invariants = false;
  EXPECT_FALSE(config.MakeEngineConfig().check_invariants);
}

TEST(MechanismConfigTest, SellerCostsWithinConfiguredRanges) {
  MechanismConfig config;
  auto costs = config.MakeSellerCosts();
  ASSERT_EQ(costs.size(), 300u);
  for (const auto& c : costs) {
    EXPECT_GE(c.a, 0.1);
    EXPECT_LE(c.a, 0.5);
    EXPECT_GE(c.b, 0.1);
    EXPECT_LE(c.b, 1.0);
  }
}

TEST(MechanismConfigTest, SellerCostsDeterministicInSeed) {
  MechanismConfig a, b;
  a.seed = b.seed = 77;
  auto ca = a.MakeSellerCosts();
  auto cb = b.MakeSellerCosts();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_DOUBLE_EQ(ca[i].a, cb[i].a);
    EXPECT_DOUBLE_EQ(ca[i].b, cb[i].b);
  }
  b.seed = 78;
  auto cc = b.MakeSellerCosts();
  EXPECT_NE(ca[0].a, cc[0].a);
}

TEST(MechanismConfigTest, DerivedConfigsAreConsistent) {
  MechanismConfig config;
  config.num_sellers = 50;
  config.num_pois = 7;
  auto env = config.MakeEnvironmentConfig();
  EXPECT_EQ(env.num_sellers, 50);
  EXPECT_EQ(env.num_pois, 7);
  auto engine = config.MakeEngineConfig();
  EXPECT_EQ(engine.job.num_pois, 7);
  EXPECT_EQ(engine.seller_costs.size(), 50u);
  EXPECT_TRUE(engine.Validate(50).ok());
}

}  // namespace
}  // namespace core
}  // namespace cdt
