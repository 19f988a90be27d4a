// Integration tests for the extension features working *together*:
// budgeted campaigns streamed to run logs and analysed offline, and the
// marketplace under shared learning.

#include <filesystem>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/run_analysis.h"
#include "core/cmab_hs.h"
#include "market/marketplace.h"
#include "market/run_log.h"
#include "market/trading_engine.h"
#include "stats/rng.h"

namespace cdt {
namespace {

TEST(ExtensionsIntegrationTest, BudgetedCampaignRoundTripsThroughRunLog) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cdt_ext_" + std::to_string(::getpid()) + ".csv");

  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 3;
  config.num_rounds = 300;
  config.consumer_budget = 20000.0;
  config.seed = 25;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  auto writer = market::RunLogWriter::Open(path.string());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(run.value()
                  ->RunAll([&](const market::RoundReport& report) {
                    ASSERT_TRUE(writer.value().Append(report).ok());
                  })
                  .ok());
  ASSERT_TRUE(writer.value().Close().ok());

  // The campaign stopped early on budget; the log must agree exactly with
  // the engine on executed rounds and spend.
  ASSERT_TRUE(run.value()->engine().budget_exhausted());
  auto rows = market::LoadRunLog(path.string());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(static_cast<std::int64_t>(rows.value().size()),
            run.value()->engine().current_round());
  double spend = 0.0;
  for (const market::RunLogRow& row : rows.value()) {
    spend += row.consumer_price * row.total_time;
  }
  EXPECT_NEAR(spend, run.value()->engine().consumer_spend(), 1e-6);
  EXPECT_LE(spend, config.consumer_budget + 1e-6);

  auto stats = analysis::Summarize(rows.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rounds,
            run.value()->engine().current_round());
  std::filesystem::remove(path);
}

TEST(ExtensionsIntegrationTest, MarketplaceLearningMatchesSoloQuality) {
  // After shared learning, the marketplace's estimate of each seller's
  // quality converges to the environment's effective quality.
  bandit::EnvironmentConfig env_config;
  env_config.num_sellers = 9;
  env_config.num_pois = 4;
  env_config.seed = 14;
  auto env = bandit::QualityEnvironment::Create(env_config);
  ASSERT_TRUE(env.ok());

  market::MarketplaceConfig config;
  config.base_job.num_pois = 4;
  config.base_job.num_rounds = 400;
  config.base_job.round_duration = 1000.0;
  market::MarketplaceJob a;
  a.name = "job-a";
  a.num_selected = 4;
  a.valuation = {900.0};
  a.consumer_price_bounds = {0.01, 100.0};
  a.collection_price_bounds = {0.01, 5.0};
  market::MarketplaceJob b = a;
  b.name = "job-b";
  b.num_selected = 5;
  b.valuation = {1100.0};
  config.jobs = {a, b};
  stats::Xoshiro256 rng(2);
  for (int i = 0; i < 9; ++i) {
    config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  config.platform_cost = {0.1, 1.0};

  auto marketplace = market::Marketplace::Create(config, &env.value());
  ASSERT_TRUE(marketplace.ok());
  ASSERT_TRUE(marketplace.value()->RunAll().ok());

  // With ΣK_j = M, every seller is selected every round: all estimates
  // converge tightly.
  for (int i = 0; i < 9; ++i) {
    const bandit::ArmState& arm =
        marketplace.value()->shared_estimates().arm(i);
    EXPECT_EQ(arm.observations, 400u * 4u);
    EXPECT_NEAR(arm.mean, env.value().effective_quality(i), 0.02)
        << "seller " << i;
  }
}

}  // namespace
}  // namespace cdt
