// The CMAB-HS mechanism facade — the library's primary public entry point.
//
// Wires together the quality environment, a seller-selection policy and the
// trading engine from one MechanismConfig, and exposes the round loop of
// Algorithm 1 plus streaming metrics.
//
//   core::MechanismConfig config;            // Table II defaults
//   auto run = core::CmabHs::Create(config); // policy = CMAB-HS (CUCB)
//   run.value()->RunAll();
//   std::cout << run.value()->metrics().regret();

#ifndef CDT_CORE_CMAB_HS_H_
#define CDT_CORE_CMAB_HS_H_

#include <functional>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/metrics.h"
#include "market/trading_engine.h"

namespace cdt {
namespace core {

/// Which seller-selection algorithm drives the run.
enum class PolicyKind {
  kCmabHs,         // the paper's extended-UCB policy (Algorithm 1)
  kOptimal,        // oracle: true top-K every round
  kEpsilonFirst,   // explore εN rounds, then exploit
  kRandom,         // uniform K sellers each round
  kEpsilonGreedy,  // extension: per-round ε exploration
  kThompson,       // extension: Gaussian Thompson sampling
};

/// Policy selection plus its parameter (ε where applicable).
struct PolicySpec {
  PolicyKind kind = PolicyKind::kCmabHs;
  double epsilon = 0.1;

  std::string Name() const;
};

/// One end-to-end CDT simulation run.
class CmabHs {
 public:
  /// Builds the environment, policy, engine and metrics for `config`.
  /// `checkpoints` (ascending round numbers) trigger metric snapshots.
  static util::Result<std::unique_ptr<CmabHs>> Create(
      const MechanismConfig& config, const PolicySpec& policy = {},
      std::vector<std::int64_t> checkpoints = {});

  /// Runs one round and feeds the metrics collector.
  util::Result<market::RoundReport> RunRound();

  /// Runs all remaining rounds; `callback` (may be null) sees every report.
  util::Status RunAll(
      const std::function<void(const market::RoundReport&)>& callback =
          nullptr);

  const MechanismConfig& config() const { return config_; }
  const PolicySpec& policy_spec() const { return policy_spec_; }
  const bandit::QualityEnvironment& environment() const {
    return *environment_;
  }
  const market::TradingEngine& engine() const { return *engine_; }
  /// Mutable engine access for the persistence layer (attaching a
  /// RunRecorder, directly or behind a runtime::DurabilityGuard; restoring
  /// a snapshot before the first round; re-applying seller flips during
  /// recovery).
  market::TradingEngine& mutable_engine() { return *engine_; }
  MetricsCollector& metrics() { return *metrics_; }
  const MetricsCollector& metrics() const { return *metrics_; }

 private:
  CmabHs(MechanismConfig config, PolicySpec spec,
         std::unique_ptr<bandit::QualityEnvironment> environment,
         std::unique_ptr<market::TradingEngine> engine,
         std::unique_ptr<MetricsCollector> metrics)
      : config_(std::move(config)),
        policy_spec_(spec),
        environment_(std::move(environment)),
        engine_(std::move(engine)),
        metrics_(std::move(metrics)) {}

  MechanismConfig config_;
  PolicySpec policy_spec_;
  std::unique_ptr<bandit::QualityEnvironment> environment_;
  std::unique_ptr<market::TradingEngine> engine_;
  std::unique_ptr<MetricsCollector> metrics_;
};

}  // namespace core
}  // namespace cdt

#endif  // CDT_CORE_CMAB_HS_H_
