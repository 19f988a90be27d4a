#include "market/marketplace.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace cdt {
namespace market {
namespace {

constexpr int kSellers = 20;
constexpr int kPois = 4;

MarketplaceConfig MakeConfig(std::int64_t rounds = 30) {
  MarketplaceConfig config;
  config.base_job.num_pois = kPois;
  config.base_job.num_rounds = rounds;
  config.base_job.round_duration = 1000.0;
  config.base_job.description = "shared";

  MarketplaceJob a;
  a.name = "ml-training";
  a.num_selected = 4;
  a.valuation = {1000.0};
  a.consumer_price_bounds = {0.01, 100.0};
  a.collection_price_bounds = {0.01, 5.0};
  MarketplaceJob b;
  b.name = "env-monitoring";
  b.num_selected = 3;
  b.valuation = {600.0};
  b.consumer_price_bounds = {0.01, 100.0};
  b.collection_price_bounds = {0.01, 5.0};
  config.jobs = {a, b};

  stats::Xoshiro256 rng(8);
  for (int i = 0; i < kSellers; ++i) {
    config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  config.platform_cost = {0.1, 1.0};
  return config;
}

bandit::QualityEnvironment MakeEnv() {
  bandit::EnvironmentConfig env_config;
  env_config.num_sellers = kSellers;
  env_config.num_pois = kPois;
  env_config.seed = 21;
  auto env = bandit::QualityEnvironment::Create(env_config);
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

TEST(MarketplaceTest, CreateValidation) {
  auto env = MakeEnv();
  EXPECT_FALSE(Marketplace::Create(MakeConfig(), nullptr).ok());

  MarketplaceConfig bad = MakeConfig();
  bad.jobs.clear();
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.jobs[0].num_selected = 18;  // 18 + 3 > 20 sellers
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.jobs[1].name = "";
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.jobs[0].valuation.omega = 0.5;
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.base_job.num_pois = kPois + 1;
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  // Parity with EngineConfig::Validate through the shared helpers: the
  // marketplace must reject bad quality floors and price intervals (NaN
  // included) rather than admit a job its engine would refuse.
  bad = MakeConfig();
  bad.quality_floor = 0.0;
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.quality_floor = std::nan("");
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.jobs[0].consumer_price_bounds = {10.0, 1.0};  // inverted
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());

  bad = MakeConfig();
  bad.jobs[1].collection_price_bounds = {std::nan(""), 5.0};
  EXPECT_FALSE(Marketplace::Create(bad, &env).ok());
}

TEST(MarketplaceTest, RejectsNonFiniteExploration) {
  auto env = MakeEnv();
  for (double c : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    MarketplaceConfig config = MakeConfig();
    config.exploration = c;
    EXPECT_EQ(Marketplace::Create(config, &env).status().code(),
              util::StatusCode::kInvalidArgument)
        << c;
  }
}

TEST(MarketplaceTest, JobsGetDisjointSellersEveryRound) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(), &env);
  ASSERT_TRUE(marketplace.ok());
  for (int t = 0; t < 30; ++t) {
    auto report = marketplace.value()->RunRound();
    ASSERT_TRUE(report.ok());
    std::set<int> all;
    std::size_t total = 0;
    for (const JobRoundReport& job : report.value().jobs) {
      all.insert(job.report.selected.begin(), job.report.selected.end());
      total += job.report.selected.size();
    }
    EXPECT_EQ(all.size(), total);  // no seller serves two jobs
    EXPECT_EQ(total, 7u);          // 4 + 3
  }
}

TEST(MarketplaceTest, PriorityRotatesAcrossRounds) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(), &env);
  ASSERT_TRUE(marketplace.ok());
  auto r1 = marketplace.value()->RunRound();
  auto r2 = marketplace.value()->RunRound();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().jobs[0].job_name, "ml-training");
  EXPECT_EQ(r2.value().jobs[0].job_name, "env-monitoring");
}

TEST(MarketplaceTest, FirstPickerGetsTheBestUcb) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(), &env);
  ASSERT_TRUE(marketplace.ok());
  // Warm up the shared estimates.
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(marketplace.value()->RunRound().ok());
  }
  // On round 11 (odd), ml-training picks first; its first seller must have
  // the globally maximal UCB at the time of selection.
  std::vector<double> ucb;
  marketplace.value()->shared_estimates().UcbValuesInto(&ucb);
  int argmax = 0;
  for (int i = 1; i < kSellers; ++i) {
    if (ucb[static_cast<std::size_t>(i)] >
        ucb[static_cast<std::size_t>(argmax)]) {
      argmax = i;
    }
  }
  auto report = marketplace.value()->RunRound();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().jobs[0].report.selected.front(), argmax);
}

// Differential: with three jobs contending, each job's pick equals repeated
// argmax (first index on ties) over the UCB values snapshotted before the
// round, skipping sellers taken by jobs that picked earlier in the round's
// rotation.
TEST(MarketplaceTest, SelectionMatchesRepeatedArgmax) {
  auto env = MakeEnv();
  MarketplaceConfig config = MakeConfig(240);
  MarketplaceJob c = config.jobs[1];
  c.name = "traffic";
  c.num_selected = 5;
  config.jobs.push_back(c);
  auto marketplace = Marketplace::Create(config, &env);
  ASSERT_TRUE(marketplace.ok());

  const std::size_t num_jobs = config.jobs.size();
  std::vector<double> ucb(kSellers);
  for (std::int64_t t = 1; t <= 240; ++t) {
    const bandit::EstimatorBank& bank =
        marketplace.value()->shared_estimates();
    for (int i = 0; i < kSellers; ++i) {
      ucb[static_cast<std::size_t>(i)] = bank.UcbValue(i);
    }
    auto report = marketplace.value()->RunRound();
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().jobs.size(), num_jobs);

    std::vector<bool> taken(kSellers, false);
    const std::size_t start = static_cast<std::size_t>(t - 1) % num_jobs;
    for (std::size_t step = 0; step < num_jobs; ++step) {
      const MarketplaceJob& job = config.jobs[(start + step) % num_jobs];
      std::vector<int> expected;
      for (int pick = 0; pick < job.num_selected; ++pick) {
        int best = -1;
        for (int i = 0; i < kSellers; ++i) {
          if (taken[static_cast<std::size_t>(i)]) continue;
          if (best < 0 || ucb[static_cast<std::size_t>(i)] >
                              ucb[static_cast<std::size_t>(best)]) {
            best = i;
          }
        }
        taken[static_cast<std::size_t>(best)] = true;
        expected.push_back(best);
      }
      const JobRoundReport& got = report.value().jobs[step];
      ASSERT_EQ(got.job_name, job.name) << "round " << t;
      ASSERT_EQ(got.report.selected, expected)
          << "round " << t << " job " << job.name;
    }
  }
}

TEST(MarketplaceTest, SummariesAccumulate) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(20), &env);
  ASSERT_TRUE(marketplace.ok());
  ASSERT_TRUE(marketplace.value()->RunAll().ok());
  ASSERT_EQ(marketplace.value()->summaries().size(), 2u);
  for (const JobSummary& summary : marketplace.value()->summaries()) {
    EXPECT_EQ(summary.rounds, 20);
    EXPECT_GT(summary.consumer_profit_total, 0.0);
    EXPECT_GT(summary.expected_quality_revenue, 0.0);
  }
  EXPECT_EQ(marketplace.value()->current_round(), 20);
  EXPECT_FALSE(marketplace.value()->RunRound().ok());
}

TEST(MarketplaceTest, SharedLearningCoversBothJobsSelections) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(15), &env);
  ASSERT_TRUE(marketplace.ok());
  ASSERT_TRUE(marketplace.value()->RunAll().ok());
  // Total observations = rounds * (K_a + K_b) * L.
  EXPECT_EQ(marketplace.value()->shared_estimates().total_observations(),
            15u * 7u * static_cast<std::size_t>(kPois));
}

TEST(MarketplaceTest, HigherOmegaJobPaysMore) {
  auto env = MakeEnv();
  auto marketplace = Marketplace::Create(MakeConfig(40), &env);
  ASSERT_TRUE(marketplace.ok());
  double price_a = 0.0, price_b = 0.0;
  int n = 0;
  for (int t = 0; t < 40; ++t) {
    auto report = marketplace.value()->RunRound();
    ASSERT_TRUE(report.ok());
    for (const JobRoundReport& job : report.value().jobs) {
      if (job.job_name == "ml-training") price_a += job.report.consumer_price;
      if (job.job_name == "env-monitoring") {
        price_b += job.report.consumer_price;
      }
    }
    ++n;
  }
  // ω=1000 consumer values data more and pays a higher unit price than the
  // ω=600 consumer on average.
  EXPECT_GT(price_a / n, price_b / n);
}

}  // namespace
}  // namespace market
}  // namespace cdt
