#include "market/marketplace.h"

#include <algorithm>
#include <limits>

#include "game/profit.h"

namespace cdt {
namespace market {

using util::Result;
using util::Status;

Status MarketplaceConfig::Validate(int num_sellers) const {
  CDT_RETURN_NOT_OK(base_job.Validate());
  if (jobs.empty()) {
    return Status::InvalidArgument("marketplace needs >= 1 job");
  }
  int total_k = 0;
  for (const MarketplaceJob& job : jobs) {
    if (job.name.empty()) {
      return Status::InvalidArgument("jobs need non-empty names");
    }
    if (job.num_selected <= 0) {
      return Status::InvalidArgument("job '" + job.name + "': K must be > 0");
    }
    CDT_RETURN_NOT_OK(job.valuation.Validate());
    // Same interval checks as EngineConfig::Validate, via the shared
    // helper, so the marketplace cannot admit a job its engine rejects.
    CDT_RETURN_NOT_OK(ValidatePriceBounds(
        job.consumer_price_bounds,
        "job '" + job.name + "' consumer price bounds"));
    CDT_RETURN_NOT_OK(ValidatePriceBounds(
        job.collection_price_bounds,
        "job '" + job.name + "' collection price bounds"));
    total_k += job.num_selected;
  }
  if (total_k > num_sellers) {
    return Status::FailedPrecondition(
        "jobs demand " + std::to_string(total_k) + " sellers per round but "
        "the pool has only " + std::to_string(num_sellers));
  }
  if (static_cast<int>(seller_costs.size()) != num_sellers) {
    return Status::InvalidArgument("need one cost parameter set per seller");
  }
  for (const game::SellerCostParams& s : seller_costs) {
    CDT_RETURN_NOT_OK(s.Validate());
  }
  CDT_RETURN_NOT_OK(platform_cost.Validate());
  CDT_RETURN_NOT_OK(ValidateQualityFloor(quality_floor));
  return Status::OK();
}

Marketplace::Marketplace(MarketplaceConfig config,
                         bandit::QualityEnvironment* environment,
                         bandit::EstimatorBank bank)
    : config_(std::move(config)),
      environment_(environment),
      bank_(std::move(bank)) {
  summaries_.reserve(config_.jobs.size());
  for (const MarketplaceJob& job : config_.jobs) {
    JobSummary summary;
    summary.job_name = job.name;
    summaries_.push_back(std::move(summary));
  }
}

Result<std::unique_ptr<Marketplace>> Marketplace::Create(
    MarketplaceConfig config, bandit::QualityEnvironment* environment) {
  if (environment == nullptr) {
    return Status::InvalidArgument("environment must not be null");
  }
  CDT_RETURN_NOT_OK(config.Validate(environment->num_sellers()));
  if (config.base_job.num_pois != environment->num_pois()) {
    return Status::InvalidArgument(
        "job and environment disagree on the PoI count");
  }
  int max_k = 0;
  for (const MarketplaceJob& job : config.jobs) {
    max_k = std::max(max_k, job.num_selected);
  }
  Result<double> exploration =
      bandit::ResolveExploration(config.exploration, max_k);
  if (!exploration.ok()) return exploration.status();
  Result<bandit::EstimatorBank> bank = bandit::EstimatorBank::Create(
      environment->num_sellers(), exploration.value());
  if (!bank.ok()) return bank.status();
  return std::unique_ptr<Marketplace>(new Marketplace(
      std::move(config), environment, std::move(bank).value()));
}

double Marketplace::GameQuality(int seller) const {
  const bandit::ArmState& arm = bank_.arm(seller);
  double q = arm.observations > 0 ? arm.mean : config_.quality_floor;
  return std::min(1.0, std::max(config_.quality_floor, q));
}

Result<MarketplaceRoundReport> Marketplace::RunRound() {
  if (next_round_ > config_.base_job.num_rounds) {
    return Status::FailedPrecondition("all rounds already executed");
  }
  std::int64_t t = next_round_;
  MarketplaceRoundReport round_report;
  round_report.round = t;

  // Rotating priority: the job that picks first advances each round so no
  // consumer is permanently disadvantaged in seller contention.
  std::size_t num_jobs = config_.jobs.size();
  std::size_t start = static_cast<std::size_t>((t - 1) %
                                               static_cast<std::int64_t>(
                                                   num_jobs));

  // UCB values are snapshotted once per round; sellers taken by an
  // earlier job are masked to -inf, so each job's pick is the shared
  // top-K over the sellers still free (Validate caps Σ K_j <= M).
  bank_.UcbValuesInto(&ucb_scratch_);

  for (std::size_t step = 0; step < num_jobs; ++step) {
    std::size_t j = (start + step) % num_jobs;
    const MarketplaceJob& job = config_.jobs[j];

    std::vector<int> selected;
    bandit::TopKIndicesInto(ucb_scratch_, job.num_selected, &selected);
    for (int i : selected) {
      ucb_scratch_[static_cast<std::size_t>(i)] =
          -std::numeric_limits<double>::infinity();
    }

    // The job's own HS game.
    game::GameConfig game_config;
    for (int i : selected) {
      game_config.sellers.push_back(
          config_.seller_costs[static_cast<std::size_t>(i)]);
      game_config.qualities.push_back(GameQuality(i));
    }
    game_config.platform = config_.platform_cost;
    game_config.valuation = job.valuation;
    game_config.consumer_price_bounds = job.consumer_price_bounds;
    game_config.collection_price_bounds = job.collection_price_bounds;
    game_config.max_sensing_time = config_.base_job.round_duration;
    Result<game::StackelbergSolver> solver =
        game::StackelbergSolver::Create(game_config);
    if (!solver.ok()) return solver.status();
    game::StrategyProfile profile = solver.value().Solve();

    JobRoundReport job_report;
    job_report.job_name = job.name;
    RoundReport& report = job_report.report;
    report.round = t;
    report.selected = selected;
    report.game_qualities = std::move(game_config.qualities);
    report.consumer_price = profile.consumer_price;
    report.collection_price = profile.collection_price;
    report.tau = std::move(profile.tau);
    report.total_time = profile.total_time;
    report.consumer_profit = profile.consumer_profit;
    report.platform_profit = profile.platform_profit;
    report.seller_profits = std::move(profile.seller_profits);
    for (double psi : report.seller_profits) {
      report.seller_profit_total += psi;
    }

    // Data collection + shared learning.
    for (std::size_t s = 0; s < selected.size(); ++s) {
      std::vector<double> obs = environment_->ObserveSeller(selected[s]);
      double sum = 0.0;
      for (double q : obs) sum += q;
      report.observed_quality_revenue += sum;
      report.expected_quality_revenue +=
          static_cast<double>(config_.base_job.num_pois) *
          environment_->effective_quality(selected[s]);
      CDT_RETURN_NOT_OK(bank_.Update(selected[s], obs));
    }

    JobSummary& summary = summaries_[j];
    ++summary.rounds;
    summary.consumer_profit_total += report.consumer_profit;
    summary.platform_profit_total += report.platform_profit;
    summary.seller_profit_total += report.seller_profit_total;
    summary.expected_quality_revenue += report.expected_quality_revenue;

    round_report.jobs.push_back(std::move(job_report));
  }
  ++next_round_;
  return round_report;
}

Status Marketplace::RunAll() {
  while (next_round_ <= config_.base_job.num_rounds) {
    Result<MarketplaceRoundReport> report = RunRound();
    if (!report.ok()) return report.status();
  }
  return Status::OK();
}

}  // namespace market
}  // namespace cdt
