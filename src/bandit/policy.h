// The bandit-policy interface (Def. 7): a policy emits one arm-pulling
// decision per round and consumes the resulting quality observations.

#ifndef CDT_BANDIT_POLICY_H_
#define CDT_BANDIT_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/arm.h"
#include "util/status.h"

namespace cdt {
namespace bandit {

/// Abstract seller-selection policy.
///
/// Protocol per round t (1-based): call SelectRoundInto(t) (or the
/// allocating SelectRound(t)) to obtain the chosen seller indices, collect
/// observations, then call Observe() with exactly the selected set and one
/// observation batch per selected seller. A rejected Observe() leaves the
/// policy's state untouched.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Human-readable policy name ("cmab-hs", "0.1-first", ...).
  virtual std::string name() const = 0;

  /// Number of sellers this policy draws from.
  virtual int num_sellers() const = 0;

  /// Fills `out` with the sellers selected in round `round`: the one
  /// selection method every policy implements, and the engine's per-round
  /// hot path (reusing `out` spares the UCB policies any allocation).
  /// Policies may select more than K in designated exploration rounds
  /// (Algorithm 1 selects all M in round 1).
  virtual util::Status SelectRoundInto(std::int64_t round,
                                       std::vector<int>* out) = 0;

  /// Allocating convenience over SelectRoundInto. Virtual only so that
  /// forwarding decorators can time it; policies do not override it.
  virtual util::Result<std::vector<int>> SelectRound(std::int64_t round) {
    std::vector<int> selected;
    CDT_RETURN_NOT_OK(SelectRoundInto(round, &selected));
    return selected;
  }

  /// Feedback for the round: `observations[j]` are the per-PoI quality
  /// samples of `selected[j]`.
  virtual util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) = 0;

  /// The learning state, when the policy maintains one (else nullptr).
  virtual const EstimatorBank* estimator() const { return nullptr; }

  /// Snapshot support: true when the policy's entire mutable state is the
  /// (optional) estimator bank, so a persisted engine snapshot can restore
  /// it exactly. Policies with private RNG streams (random, ε-greedy,
  /// Thompson) keep the default false and snapshot restore fails closed.
  virtual bool snapshot_safe() const { return false; }

  /// Mutable estimator for snapshot restore; nullptr when the policy keeps
  /// no learning state (or does not support restore).
  virtual EstimatorBank* mutable_estimator() { return nullptr; }
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_POLICY_H_
