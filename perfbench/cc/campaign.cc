// Campaign workloads: one CMAB-HS campaign after another, each driven
// round by round through the library's public entry points.
//
// Untraced runs use the facade (core::CmabHs), exactly as a user would.
// Traced runs assemble the same campaign by hand from the public pieces
// CmabHs::Create wires together, with TimedPolicy around the CUCB policy
// and TimedObserver around the invariant checker, so the bandit and the
// checker can be timed from outside. Both wirings must produce the same
// rounds; every run also runs its first campaign through the other
// wiring and compares the CRC of every round's canonical bytes.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>

#include "bandit/cucb_policy.h"
#include "core/cmab_hs.h"
#include "core/metrics.h"
#include "decorators.h"
#include "game/stackelberg.h"
#include "host.h"
#include "market/invariants.h"
#include "market/trading_engine.h"
#include "persist/codec.h"
#include "persist/replay.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using cdt::util::Result;
using cdt::util::Status;

// The facade's CMAB-HS campaign assembled from its public parts, with the
// policy and the invariant checker behind timing decorators.
struct DecoratedRun {
  std::unique_ptr<cdt::bandit::QualityEnvironment> environment;
  std::unique_ptr<cdt::market::TradingEngine> engine;
  std::unique_ptr<cdt::core::MetricsCollector> metrics;
};

Result<DecoratedRun> BuildDecorated(const cdt::core::MechanismConfig& config,
                                    SpanRecorder* spans) {
  CDT_RETURN_NOT_OK(config.Validate());
  auto environment =
      cdt::bandit::QualityEnvironment::Create(config.MakeEnvironmentConfig());
  if (!environment.ok()) return environment.status();
  DecoratedRun run;
  run.environment = std::make_unique<cdt::bandit::QualityEnvironment>(
      std::move(environment).value());

  cdt::bandit::CucbOptions options;
  options.num_sellers = config.num_sellers;
  options.num_selected = config.num_selected;
  options.exploration = config.exploration;
  options.select_all_first_round = config.select_all_first_round;
  auto policy = cdt::bandit::CucbPolicy::Create(options);
  if (!policy.ok()) return policy.status();
  auto timed = std::make_unique<TimedPolicy>(
      std::make_unique<cdt::bandit::CucbPolicy>(std::move(policy).value()),
      spans);

  // The checker is attached by hand (below) instead of by the engine, so
  // it can sit behind a timing decorator. It then runs after the engine's
  // dormant telemetry observer instead of before it; that observer only
  // reads engine state, so the rounds are the same.
  cdt::market::EngineConfig engine_config = config.MakeEngineConfig();
  engine_config.check_invariants = false;
  auto engine = cdt::market::TradingEngine::Create(
      std::move(engine_config), run.environment.get(), std::move(timed));
  if (!engine.ok()) return engine.status();
  run.engine = std::move(engine).value();
  if (config.check_invariants) {
    run.engine->AddObserver(std::make_unique<TimedObserver>(
        std::make_unique<cdt::market::InvariantChecker>(),
        "market.invariants", spans));
  }

  auto metrics = cdt::core::MetricsCollector::Create(
      run.environment->effective_qualities(), config.num_selected,
      config.num_pois);
  if (!metrics.ok()) return metrics.status();
  run.metrics =
      std::make_unique<cdt::core::MetricsCollector>(std::move(metrics).value());
  return run;
}

// Re-solves a settled round's Stackelberg game from the coalition and
// learned qualities the report carries, the way the engine's solve
// workspace does, outside the round.
class ShadowSolver {
 public:
  explicit ShadowSolver(const cdt::market::EngineConfig& config)
      : config_(config) {}

  Status Solve(const cdt::market::RoundReport& report,
               cdt::game::StrategyProfile* profile) {
    sellers_.clear();
    for (int i : report.selected) {
      sellers_.push_back(config_.seller_costs[static_cast<std::size_t>(i)]);
    }
    qualities_ = report.game_qualities;
    if (solver_.has_value()) {
      CDT_RETURN_NOT_OK(solver_->ResetCoalition(&sellers_, &qualities_));
    } else {
      cdt::game::GameConfig game;
      game.sellers = sellers_;
      game.qualities = qualities_;
      game.platform = config_.platform_cost;
      game.valuation = config_.valuation;
      game.consumer_price_bounds = config_.consumer_price_bounds;
      game.collection_price_bounds = config_.collection_price_bounds;
      game.max_sensing_time = config_.job.round_duration;
      auto solver = cdt::game::StackelbergSolver::Create(std::move(game));
      if (!solver.ok()) return solver.status();
      solver_.emplace(std::move(solver).value());
    }
    *profile = solver_->Solve();
    return Status::OK();
  }

  // A round is non-interior when a sensing time sits at 0 or T, or a
  // price sits on its bound.
  bool NonInterior(const cdt::market::RoundReport& report) const {
    const double t_max = config_.job.round_duration;
    for (double tau : report.tau) {
      if (tau <= 0.0 || tau >= t_max) return true;
    }
    const auto& pj = config_.consumer_price_bounds;
    const auto& p = config_.collection_price_bounds;
    return report.consumer_price == pj.lo || report.consumer_price == pj.hi ||
           report.collection_price == p.lo || report.collection_price == p.hi;
  }

 private:
  const cdt::market::EngineConfig& config_;
  std::vector<cdt::game::SellerCostParams> sellers_;
  std::vector<double> qualities_;
  std::optional<cdt::game::StackelbergSolver> solver_;
};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::uint32_t ExtendDigest(std::uint32_t crc,
                           const cdt::market::RoundReport& report) {
  return cdt::persist::Crc32(cdt::persist::CanonicalRoundBytes(report), crc);
}

// Timings are summarised per slice of this many rounds. The untraced run
// moves to the next CPU (CpuRotation) after every few slices, on a slice
// boundary.
constexpr std::size_t kSliceRounds = 2000;
constexpr std::uint64_t kRotateRounds = 4 * kSliceRounds;

// A workload without the checker armed still reports what the checker
// costs: a shadow checker checks every this-many-th round after it has
// run, re-baselined on the engine's state before that round. Sampling
// keeps its cache footprint (O(M) at large M) off all but a few rounds.
constexpr std::int64_t kShadowCheckEvery = 512;

// Timings of the untraced facade. The slice clock is the summed round
// time, so the benchmark's own work between rounds is not in it.
struct FacadeTimings {
  std::vector<double> setup_s;  // Create + round 1, per campaign
  SampleSet round_us;
  SlicedPercentiles slices{kSliceRounds};
  double round_ns_total = 0.0;
  std::uint64_t rounds = 0;
};

// One campaign through the facade, round by round.
class FacadeCampaign {
 public:
  Status Start(const cdt::core::MechanismConfig& config) {
    setup_start_ns_ = NowNs();
    auto run = cdt::core::CmabHs::Create(config);
    if (!run.ok()) return run.status();
    run_ = std::move(run).value();
    return Status::OK();
  }

  // Runs round `t`. With `timings`, Create + round 1 is one set-up and
  // every later RunRound() call is timed.
  Status Round(std::int64_t t, FacadeTimings* timings) {
    const std::int64_t start = NowNs();
    auto report = run_->RunRound();
    const std::int64_t end = NowNs();
    if (!report.ok()) return report.status();
    if (timings != nullptr && t == 1) {
      timings->setup_s.push_back(static_cast<double>(end - setup_start_ns_) *
                                 1e-9);
    } else if (timings != nullptr) {
      const double ns = static_cast<double>(end - start);
      timings->round_us.Add(ns * 1e-3);
      timings->round_ns_total += ns;
      timings->slices.Add(static_cast<std::int64_t>(timings->round_ns_total),
                          ns * 1e-3);
      ++timings->rounds;
    }
    crc_ = ExtendDigest(crc_, report.value());
    return Status::OK();
  }

  std::uint32_t digest() const { return crc_; }

 private:
  std::unique_ptr<cdt::core::CmabHs> run_;
  std::int64_t setup_start_ns_ = 0;
  std::uint32_t crc_ = 0;
};

// Per-layer samples of the traced campaigns, in microseconds.
struct LayerTimings {
  SampleSet round{SampleSet::kDefaultCapacity, 11};
  SampleSet select{SampleSet::kDefaultCapacity, 13};
  SampleSet learn{SampleSet::kDefaultCapacity, 14};
  SampleSet invariants{SampleSet::kDefaultCapacity, 15};
  SampleSet metrics{SampleSet::kDefaultCapacity, 16};
  SampleSet engine_self{SampleSet::kDefaultCapacity, 17};
  SampleSet solve{SampleSet::kDefaultCapacity, 18};
  SampleSet collect_settle{SampleSet::kDefaultCapacity, 19};
  std::uint64_t solves = 0;
  std::uint64_t noninterior = 0;
  std::uint64_t mismatches = 0;
};

// One campaign through the decorator wiring. Without a recorder the
// decorators only forward (the untraced run's cross-check). With one,
// each round is a span unit: "round" (RunRound + the facade's metrics
// record) with its children, then, outside the round, the shadow
// "game.solve" and, when the workload runs without the checker, the
// sampled shadow "market.invariants".
class DecoratedCampaign {
 public:
  Status Start(const cdt::core::MechanismConfig& config, SpanRecorder* spans) {
    auto built = BuildDecorated(config, spans);
    if (!built.ok()) return built.status();
    run_ = std::move(built).value();
    spans_ = spans;
    shadow_.emplace(run_.engine->config());
    if (spans != nullptr && !config.check_invariants) {
      shadow_checker_ = std::make_unique<cdt::market::InvariantChecker>();
    }
    return Status::OK();
  }

  Status Round(std::int64_t t, LayerTimings* layers) {
    if (spans_ == nullptr) {
      auto report = run_.engine->RunRound();
      if (!report.ok()) return report.status();
      CDT_RETURN_NOT_OK(run_.metrics->Record(report.value()));
      crc_ = ExtendDigest(crc_, report.value());
      return Status::OK();
    }
    const bool shadow_check =
        shadow_checker_ != nullptr && t % kShadowCheckEvery == 0;
    if (shadow_check) {
      CDT_RETURN_NOT_OK(shadow_checker_->ResetBaseline(
          run_.engine->ledger(), &run_.engine->pricing_estimates(), t - 1));
    }

    spans_->BeginUnit(t);
    const int root = spans_->Begin("round");
    auto report = run_.engine->RunRound();
    Status recorded = Status::OK();
    if (report.ok()) {
      ScopedSpan span(spans_, "core.metrics");
      recorded = run_.metrics->Record(report.value());
    }
    spans_->End(root);
    if (!report.ok()) return report.status();
    CDT_RETURN_NOT_OK(recorded);
    const cdt::market::RoundReport& r = report.value();

    bool solved = false;
    if (!r.initial_exploration) {
      cdt::game::StrategyProfile profile;
      {
        ScopedSpan span(spans_, "game.solve");
        CDT_RETURN_NOT_OK(shadow_->Solve(r, &profile));
      }
      solved = true;
      ++layers->solves;
      if (!SameBits(profile.consumer_price, r.consumer_price) ||
          !SameBits(profile.collection_price, r.collection_price)) {
        ++layers->mismatches;
      }
      if (shadow_->NonInterior(r)) ++layers->noninterior;
    }
    if (shadow_check) {
      ScopedSpan span(spans_, "market.invariants");
      CDT_RETURN_NOT_OK(shadow_checker_->OnRound(*run_.engine, r));
    }
    const std::vector<Span>& unit = spans_->EndUnit();
    crc_ = ExtendDigest(crc_, r);
    if (t == 1) return Status::OK();  // set-up, as in the untraced run

    double round_us = 0, self_us = 0, select_us = 0, learn_us = 0;
    double invariants_us = -1, metrics_us = 0, solve_us = 0;
    for (const Span& span : unit) {
      const std::string_view name = span.name;
      const double us = static_cast<double>(span.duration_ns()) * 1e-3;
      if (name == "round") {
        round_us = us;
        self_us = static_cast<double>(span.self_ns) * 1e-3;
      } else if (name == "bandit.select") {
        select_us += us;
      } else if (name == "bandit.learn") {
        learn_us += us;
      } else if (name == "market.invariants") {
        invariants_us = us;
      } else if (name == "core.metrics") {
        metrics_us += us;
      } else if (name == "game.solve") {
        solve_us += us;
      }
    }
    layers->round.Add(round_us);
    layers->select.Add(select_us);
    layers->learn.Add(learn_us);
    if (invariants_us >= 0) layers->invariants.Add(invariants_us);
    layers->metrics.Add(metrics_us);
    layers->engine_self.Add(self_us);
    if (solved) {
      layers->solve.Add(solve_us);
      layers->collect_settle.Add(self_us - solve_us);
    }
    return Status::OK();
  }

  std::uint32_t digest() const { return crc_; }

 private:
  DecoratedRun run_;
  SpanRecorder* spans_ = nullptr;
  std::optional<ShadowSolver> shadow_;
  std::unique_ptr<cdt::market::InvariantChecker> shadow_checker_;
  std::uint32_t crc_ = 0;
};

// Rounds 1..N of a campaign; gives up past the run's hard deadline.
template <typename StepFn>
Status RunRounds(std::int64_t rounds, std::int64_t deadline_ns,
                 std::uint64_t* attempted, StepFn&& step) {
  for (std::int64_t t = 1; t <= rounds; ++t) {
    if ((t & 1023) == 0 && NowNs() > deadline_ns) {
      return Status::Internal(
          "campaign did not finish within the run's time cap");
    }
    ++*attempted;
    CDT_RETURN_NOT_OK(step(t));
  }
  return Status::OK();
}

double Share(const SampleSet& part, const SampleSet& whole) {
  return whole.sum() > 0.0 ? part.sum() / whole.sum() : 0.0;
}

void CheckDigests(std::uint32_t facade, std::uint32_t decorated,
                  Report* report) {
  std::printf("digest: first campaign crc32=%08x (facade) vs %08x "
              "(decorators)\n",
              facade, decorated);
  if (facade != decorated) {
    report->Fail("first campaign's round digest differs between the facade "
                 "and the decorator wiring");
  }
}

}  // namespace

void RunCampaign(const CampaignShape& shape, const RunOptions& options,
                 double seconds, SpanRecorder* spans, Report* report,
                 double* reference_round_us) {
  const std::int64_t deadline = options.hard_deadline_ns;
  const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  const auto config_of = [&](std::uint64_t index) {
    return CampaignConfig(shape, DeriveSeed(options.seed, index));
  };
  std::uint64_t attempted = 0;
  auto fail = [&](const Status& status) {
    report->Count(attempted, 1);
    report->Fail(status.ToString());
  };

  if (spans == nullptr) {
    // Whole campaigns until the summed round time reaches the budget.
    FacadeTimings timings;
    timings.slices.Start(0);
    CpuRotation rotation;
    rotation.Next();
    // Set-up-only repetitions (Create + Algorithm 1's select-all round 1)
    // top up the campaigns' own set-ups in the gaps between campaigns, in
    // step with the run's progress. They spread over the run and its CPUs,
    // and none is alive beside a running campaign to add to peak_rss_mb.
    int extra_setups = 0;
    auto top_up_setups = [&](double progress) {
      const int due = static_cast<int>(
          std::ceil(shape.setup_reps * std::min(progress, 1.0)));
      while (static_cast<int>(timings.setup_s.size()) < due) {
        FacadeCampaign campaign;
        ++attempted;
        CDT_RETURN_NOT_OK(campaign.Start(config_of(1000000 + extra_setups++)));
        CDT_RETURN_NOT_OK(campaign.Round(1, &timings));
      }
      return Status::OK();
    };
    std::uint32_t first_digest = 0;
    std::uint32_t run_digest = 0;
    int campaigns = 0;
    while (campaigns == 0 ||
           timings.round_ns_total < static_cast<double>(budget_ns)) {
      {
        FacadeCampaign campaign;
        Status status = campaign.Start(config_of(campaigns));
        if (status.ok()) {
          status = RunRounds(shape.rounds, deadline, &attempted,
                             [&](std::int64_t t) {
                               CDT_RETURN_NOT_OK(campaign.Round(t, &timings));
                               if (t > 1 &&
                                   timings.rounds % kRotateRounds == 0) {
                                 rotation.Next();
                               }
                               return Status::OK();
                             });
        }
        if (!status.ok()) return fail(status);
        if (campaigns == 0) first_digest = campaign.digest();
        const std::uint32_t digest = campaign.digest();
        run_digest = cdt::persist::Crc32(
            std::string_view(reinterpret_cast<const char*>(&digest),
                             sizeof(digest)),
            run_digest);
      }
      ++campaigns;
      Status status = top_up_setups(timings.round_ns_total /
                                    static_cast<double>(budget_ns));
      if (!status.ok()) return fail(status);
    }
    timings.slices.Finish();
    if (Status status = top_up_setups(1.0); !status.ok()) return fail(status);
    const double peak_rss = PeakRssMb();

    // Output check: the decorator wiring replays the first campaign.
    DecoratedCampaign replay;
    Status status = replay.Start(config_of(0), nullptr);
    if (status.ok()) {
      status = RunRounds(shape.rounds, deadline, &attempted,
                         [&](std::int64_t t) {
                           return replay.Round(t, nullptr);
                         });
    }
    if (!status.ok()) return fail(status);
    report->Count(attempted, 0);
    CheckDigests(first_digest, replay.digest(), report);

    const Summary round = Summarize(timings.round_us);
    std::printf("campaigns=%d rounds_timed=%llu setups=%zu run_digest=%08x "
                "whole-run rate=%.1f rounds/s\n",
                campaigns, static_cast<unsigned long long>(timings.rounds),
                timings.setup_s.size(), run_digest,
                static_cast<double>(timings.rounds) /
                    (timings.round_ns_total * 1e-9));
    std::printf("round_us %s; %s\n", Describe(round).c_str(),
                Describe(timings.slices).c_str());
    std::vector<double> setups = timings.setup_s;
    std::sort(setups.begin(), setups.end());
    std::printf("setup_s quartiles %.6f %.6f %.6f over %zu set-ups\n",
                PercentileOfSorted(setups, 25.0),
                PercentileOfSorted(setups, 50.0),
                PercentileOfSorted(setups, 75.0), setups.size());
    const double round_p50 = timings.slices.p50();
    const double round_p99 = P99(timings.slices, "round_us", report);
    report->Metric("rounds_per_s", timings.slices.rate_per_s(), "rounds/s");
    report->Metric("round_us_p50", round_p50, "us");
    report->Metric("round_us_p99", round_p99, "us");
    // A campaign caller drives rounds synchronously: a round has settled
    // when its RunRound() returns.
    report->Metric("settle_us_p50", round_p50, "us");
    report->Metric("settle_us_p99", round_p99, "us");
    report->Metric("setup_s", Median(timings.setup_s), "s");
    report->Metric("peak_rss_mb", peak_rss, "MiB");
    *reference_round_us = timings.round_us.mean();
    return;
  }

  // Traced. The first campaign runs in lockstep with an untraced facade
  // twin, round for round: the digest check, and the same host for
  // trace.overhead_ratio and the runtime's dispatch baseline. The twins
  // do identical work, and whichever runs second finds branch predictors
  // and caches trained by the first, so they take turns going first.
  // Per-layer figures come from the later campaigns, traced alone until
  // the phase's wall time reaches the budget.
  const std::int64_t phase_start = NowNs();
  LayerTimings lockstep;
  FacadeTimings untraced;
  {
    DecoratedCampaign traced;
    FacadeCampaign twin;
    Status status = traced.Start(config_of(0), spans);
    if (status.ok()) status = twin.Start(config_of(0));
    if (status.ok()) {
      status = RunRounds(shape.rounds, deadline, &attempted,
                         [&](std::int64_t t) {
                           if (t % 2 == 0) {
                             CDT_RETURN_NOT_OK(twin.Round(t, &untraced));
                           }
                           CDT_RETURN_NOT_OK(traced.Round(t, &lockstep));
                           if (t % 2 == 0) return Status::OK();
                           return twin.Round(t, &untraced);
                         });
    }
    if (!status.ok()) return fail(status);
    CheckDigests(twin.digest(), traced.digest(), report);
  }
  LayerTimings layers;
  int campaigns = 1;
  while (campaigns == 1 || NowNs() - phase_start < budget_ns) {
    DecoratedCampaign traced;
    Status status = traced.Start(config_of(campaigns), spans);
    if (status.ok()) {
      status = RunRounds(shape.rounds, deadline, &attempted,
                         [&](std::int64_t t) {
                           return traced.Round(t, &layers);
                         });
    }
    if (!status.ok()) return fail(status);
    ++campaigns;
  }
  layers.mismatches += lockstep.mismatches;
  report->Count(attempted, 0);
  if (layers.mismatches != 0) {
    report->Fail(std::to_string(layers.mismatches) +
                 " shadow solves differ from the engine's prices");
  }

  const Summary round = Summarize(layers.round);
  const Summary select = Summarize(layers.select);
  const Summary learn = Summarize(layers.learn);
  const Summary invariants = Summarize(layers.invariants);
  const Summary metrics = Summarize(layers.metrics);
  const Summary engine_self = Summarize(layers.engine_self);
  const Summary solve = Summarize(layers.solve);
  const Summary collect_settle = Summarize(layers.collect_settle);
  const double untraced_p50 = Summarize(untraced.round_us).p50;
  const double traced_p50 = Summarize(lockstep.round).p50;
  std::printf("campaigns=%d traced round_us %s\n", campaigns,
              Describe(round).c_str());
  std::printf("bandit.select_us %s\n", Describe(select).c_str());
  std::printf("game.solve_us %s\n", Describe(solve).c_str());
  std::printf("market.invariants_us %s%s\n", Describe(invariants).c_str(),
              shape.invariants ? "" : " (sampled shadow checker)");
  // Self times of the round's span tree; they sum to the round time.
  const double shares[] = {
      Share(layers.select, layers.round), Share(layers.learn, layers.round),
      shape.invariants ? Share(layers.invariants, layers.round) : 0.0,
      Share(layers.metrics, layers.round),
      Share(layers.engine_self, layers.round)};
  std::printf("self-time shares of round: select=%.4f learn=%.4f "
              "invariants=%.4f core.metrics=%.4f engine_self=%.4f "
              "(sum=%.6f)\n",
              shares[0], shares[1], shares[2], shares[3], shares[4],
              shares[0] + shares[1] + shares[2] + shares[3] + shares[4]);

  report->Metric("bandit.select_us_p50", select.p50, "us");
  report->Metric("bandit.select_us_p99", P99(select, "select", report), "us");
  report->Metric("bandit.select_share", shares[0], "share");
  report->Metric("bandit.learn_us_p50", learn.p50, "us");
  report->Metric("bandit.learn_share", shares[1], "share");
  report->Metric("game.solve_us_p50", solve.p50, "us");
  report->Metric("game.solve_us_p99", P99(solve, "solve", report), "us");
  // The shadow solve runs outside the round; its share is of round time.
  report->Metric("game.solve_share", Share(layers.solve, layers.round),
                 "share");
  report->Metric("game.noninterior_ratio",
                 layers.solves == 0 ? 0.0
                                    : static_cast<double>(layers.noninterior) /
                                          static_cast<double>(layers.solves),
                 "ratio");
  report->Metric("game.shadow_mismatches",
                 static_cast<double>(layers.mismatches), "count");
  // Mean check time over mean round time: the checker's share of the
  // round when armed, and what arming it would add when shadowed.
  report->Metric("market.invariants_us_p50", invariants.p50, "us");
  report->Metric("market.invariants_share",
                 invariants.mean / round.mean, "share");
  report->Metric("market.engine_self_us_p50", engine_self.p50, "us");
  report->Metric("market.collect_settle_us_p50", collect_settle.p50, "us");
  report->Metric("core.metrics_us_p50", metrics.p50, "us");
  report->Metric("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
  *reference_round_us = untraced.round_us.mean();
}

std::uint64_t DeriveSeed(std::uint64_t run_seed, std::uint64_t index) {
  std::uint64_t z = run_seed * 0x100000001B3ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

cdt::core::MechanismConfig CampaignConfig(const CampaignShape& shape,
                                          std::uint64_t seed) {
  cdt::core::MechanismConfig config;
  config.num_sellers = shape.sellers;
  config.num_selected = shape.selected;
  config.num_rounds = shape.rounds;
  config.check_invariants = shape.invariants;
  config.seed = seed;
  return config;
}

}  // namespace perfbench
