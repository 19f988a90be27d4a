// Engine-level differential suite for CMAB-HS selection: one TradingEngine
// runs the production CucbPolicy (SoA bank + the two-regime top-K
// selector), a twin runs the test oracle (reference Eq. 19 scan +
// partial_sort, tests/support/oracle.h), and every round's canonical
// report bytes must match. Covers the fig07 and fig09 evaluation configs,
// a 1e4-arm synthetic campaign, both selector regimes, and both sides of
// the regime boundary at K = 10 (M = 148 direct, M = 149 lazy).

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "bandit/topk.h"
#include "core/config.h"
#include "market/trading_engine.h"
#include "persist/replay.h"
#include "support/oracle.h"

namespace cdt {
namespace core {
namespace {

/// One campaign: the environment the engine borrows, and the engine.
struct Campaign {
  std::unique_ptr<bandit::QualityEnvironment> environment;
  std::unique_ptr<market::TradingEngine> engine;
};

Campaign MakeCampaign(const MechanismConfig& config, bool oracle) {
  Campaign campaign;
  auto env =
      bandit::QualityEnvironment::Create(config.MakeEnvironmentConfig());
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  campaign.environment =
      std::make_unique<bandit::QualityEnvironment>(std::move(env).value());

  bandit::CucbOptions options;
  options.num_sellers = config.num_sellers;
  options.num_selected = config.num_selected;
  options.exploration = config.exploration;
  options.select_all_first_round = config.select_all_first_round;
  std::unique_ptr<bandit::SelectionPolicy> policy;
  if (oracle) {
    auto made = testsupport::OracleCucbPolicy::Create(options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    policy = std::make_unique<testsupport::OracleCucbPolicy>(
        std::move(made).value());
  } else {
    auto made = bandit::CucbPolicy::Create(options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    policy = std::make_unique<bandit::CucbPolicy>(std::move(made).value());
  }

  auto engine = market::TradingEngine::Create(config.MakeEngineConfig(),
                                              campaign.environment.get(),
                                              std::move(policy));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  campaign.engine = std::move(engine).value();
  return campaign;
}

void ExpectBitIdentical(const MechanismConfig& config) {
  ASSERT_TRUE(config.Validate().ok());
  Campaign optimized = MakeCampaign(config, /*oracle=*/false);
  Campaign oracle = MakeCampaign(config, /*oracle=*/true);
  ASSERT_NE(optimized.engine, nullptr);
  ASSERT_NE(oracle.engine, nullptr);
  for (std::int64_t round = 1; round <= config.num_rounds; ++round) {
    auto lhs = optimized.engine->RunRound();
    auto rhs = oracle.engine->RunRound();
    ASSERT_TRUE(lhs.ok()) << lhs.status().ToString();
    ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();
    const std::string a = persist::CanonicalRoundBytes(lhs.value());
    const std::string b = persist::CanonicalRoundBytes(rhs.value());
    if (a != b) {
      // Name the first divergent offset rather than dumping both reports.
      const auto at =
          std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first;
      FAIL() << "round " << round << ": canonical bytes differ at offset "
             << (at - a.begin()) << " (" << a.size() << " vs " << b.size()
             << " bytes)";
    }
  }
}

MechanismConfig Shape(int sellers, int selected, int rounds,
                      std::uint64_t seed) {
  MechanismConfig config;
  config.num_sellers = sellers;
  config.num_selected = selected;
  config.num_pois = 10;
  config.num_rounds = rounds;
  config.seed = seed;
  return config;
}

TEST(SelectionDeterminismTest, Fig07ConfigBothPathsBitIdentical) {
  // Fig. 7 shape: Table-II economics at reduced horizon (lazy regime).
  ASSERT_FALSE(bandit::LazyTopKSelector::DirectRegime(300, 10));
  ExpectBitIdentical(Shape(300, 10, 400, 7));
}

TEST(SelectionDeterminismTest, Fig09ConfigBothPathsBitIdentical) {
  // Fig. 9 shape: larger pool, same K, different seed/horizon.
  ASSERT_FALSE(bandit::LazyTopKSelector::DirectRegime(500, 10));
  ExpectBitIdentical(Shape(500, 10, 300, 9));
}

TEST(SelectionDeterminismTest, TenThousandArmSyntheticBitIdentical) {
  // Large-M synthetic: K ~ sqrt(M). Round 1 observes all 10^4 arms, so the
  // lazy selector starts from a full rebuild; the remaining rounds
  // exercise the steady-state incremental path.
  MechanismConfig config = Shape(10000, 100, 25, 10007);
  config.num_pois = 4;
  config.check_invariants = false;
  ASSERT_FALSE(bandit::LazyTopKSelector::DirectRegime(10000, 100));
  ExpectBitIdentical(config);
}

TEST(SelectionDeterminismTest, DirectRegimeSmallMarketBitIdentical) {
  ASSERT_TRUE(bandit::LazyTopKSelector::DirectRegime(100, 10));
  ExpectBitIdentical(Shape(100, 10, 400, 11));
}

TEST(SelectionDeterminismTest, DirectRegimeWideCoalitionBitIdentical) {
  ASSERT_TRUE(bandit::LazyTopKSelector::DirectRegime(300, 60));
  ExpectBitIdentical(Shape(300, 60, 150, 60));
}

TEST(SelectionDeterminismTest, RegimeBoundaryBothSidesBitIdentical) {
  // At K = 10 the pool target is 74: M = 148 has 2P = M (direct), M = 149
  // is the smallest lazy market.
  ASSERT_TRUE(bandit::LazyTopKSelector::DirectRegime(148, 10));
  ASSERT_FALSE(bandit::LazyTopKSelector::DirectRegime(149, 10));
  ExpectBitIdentical(Shape(148, 10, 400, 148));
  ExpectBitIdentical(Shape(149, 10, 400, 149));
}

}  // namespace
}  // namespace core
}  // namespace cdt
