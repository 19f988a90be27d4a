// Trivially-correct Eq. (19) selection oracle for differential tests and
// benchmark baselines: the pre-SoA per-arm UCB scan and an iota +
// partial_sort top-K, kept verbatim so every optimized selection in src/
// can be checked against them byte for byte.

#ifndef CDT_TESTS_SUPPORT_ORACLE_H_
#define CDT_TESTS_SUPPORT_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
#include "bandit/policy.h"

namespace cdt {
namespace testsupport {

/// The pre-SoA UCB scan over the bank's public columns, loop shape
/// preserved: a per-arm branch on the raw observation counter plus a
/// uint64→double conversion inside the loop. Values are identical to
/// EstimatorBank::UcbValuesInto (counts() mirrors observation_counts()
/// exactly).
void UcbValuesReferenceInto(const bandit::EstimatorBank& bank,
                            std::vector<double>* out);

/// Indices of the k largest `values` by iota + partial_sort (descending
/// value, ascending index on ties). `out` is used as the full candidate
/// ordering internally, so its capacity settles at values.size().
void TopKIndicesPartialSortInto(const std::vector<double>& values, int k,
                                std::vector<int>* out);

/// CMAB-HS selection (Algorithm 1) through the reference scan and
/// partial-sort top-K every round: the oracle CucbPolicy must match.
class OracleCucbPolicy : public bandit::SelectionPolicy {
 public:
  static util::Result<OracleCucbPolicy> Create(
      const bandit::CucbOptions& options);

  std::string name() const override { return "cmab-hs"; }
  int num_sellers() const override { return options_.num_sellers; }

  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const bandit::EstimatorBank* estimator() const override { return &bank_; }
  bool snapshot_safe() const override { return true; }
  bandit::EstimatorBank* mutable_estimator() override { return &bank_; }

 private:
  OracleCucbPolicy(const bandit::CucbOptions& options,
                   bandit::EstimatorBank bank)
      : options_(options), bank_(std::move(bank)) {}

  bandit::CucbOptions options_;
  bandit::EstimatorBank bank_;
  std::vector<double> ucb_scratch_;
};

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_ORACLE_H_
