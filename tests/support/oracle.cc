#include "support/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace cdt {
namespace testsupport {

using util::Result;
using util::Status;

void UcbValuesReferenceInto(const bandit::EstimatorBank& bank,
                            std::vector<double>* out) {
  const std::vector<double>& means = bank.means();
  const std::vector<std::uint64_t>& observations = bank.observation_counts();
  const std::size_t m = means.size();
  out->resize(m);
  const double sl = bank.scaled_log();
  for (std::size_t i = 0; i < m; ++i) {
    (*out)[i] =
        observations[i] == 0
            ? std::numeric_limits<double>::infinity()
            : means[i] + std::sqrt(sl /
                                   static_cast<double>(observations[i]));
  }
}

void TopKIndicesPartialSortInto(const std::vector<double>& values, int k,
                                std::vector<int>* out) {
  std::vector<int>& order = *out;
  order.resize(values.size());
  std::iota(order.begin(), order.end(), 0);
  int take = std::min<int>(k, static_cast<int>(order.size()));
  if (take <= 0) {
    order.clear();
    return;
  }
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&values](int a, int b) {
                      double va = values[static_cast<std::size_t>(a)];
                      double vb = values[static_cast<std::size_t>(b)];
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(static_cast<std::size_t>(take));
}

Result<OracleCucbPolicy> OracleCucbPolicy::Create(
    const bandit::CucbOptions& options) {
  // Same validation and exploration default as CucbPolicy::Create.
  CDT_RETURN_NOT_OK(bandit::CheckSelectionSize(options.num_sellers,
                                               options.num_selected));
  bandit::CucbOptions resolved = options;
  Result<double> exploration =
      bandit::ResolveExploration(options.exploration, options.num_selected);
  if (!exploration.ok()) return exploration.status();
  resolved.exploration = exploration.value();
  Result<bandit::EstimatorBank> bank = bandit::EstimatorBank::Create(
      resolved.num_sellers, resolved.exploration);
  if (!bank.ok()) return bank.status();
  return OracleCucbPolicy(resolved, std::move(bank).value());
}

Status OracleCucbPolicy::SelectRoundInto(std::int64_t round,
                                         std::vector<int>* out) {
  CDT_RETURN_NOT_OK(bandit::CheckRound(round));
  if (round == 1 && options_.select_all_first_round) {
    out->resize(static_cast<std::size_t>(options_.num_sellers));
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  UcbValuesReferenceInto(bank_, &ucb_scratch_);
  TopKIndicesPartialSortInto(ucb_scratch_, options_.num_selected, out);
  return Status::OK();
}

Status OracleCucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  return bank_.UpdateRound(selected, observations);
}

}  // namespace testsupport
}  // namespace cdt
