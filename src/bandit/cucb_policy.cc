#include "bandit/cucb_policy.h"

#include <numeric>

#include "obs/tracer.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

Result<CucbPolicy> CucbPolicy::Create(const CucbOptions& options) {
  CDT_RETURN_NOT_OK(
      CheckSelectionSize(options.num_sellers, options.num_selected));
  CucbOptions resolved = options;
  Result<double> exploration =
      ResolveExploration(options.exploration, options.num_selected);
  if (!exploration.ok()) return exploration.status();
  resolved.exploration = exploration.value();
  Result<EstimatorBank> bank =
      EstimatorBank::Create(resolved.num_sellers, resolved.exploration);
  if (!bank.ok()) return bank.status();
  return CucbPolicy(resolved, std::move(bank).value());
}

Status CucbPolicy::SelectRoundInto(std::int64_t round,
                                   std::vector<int>* out) {
  CDT_RETURN_NOT_OK(CheckRound(round));
  if (round == 1 && options_.select_all_first_round) {
    // Initial exploration: select every seller (Algorithm 1, steps 2-4).
    out->resize(static_cast<std::size_t>(options_.num_sellers));
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  CDT_SPAN("bandit.topk");
  selector_.SelectInto(bank_, options_.num_selected, out);
  return Status::OK();
}

Status CucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  CDT_RETURN_NOT_OK(bank_.UpdateRound(selected, observations));
  for (int arm : selected) selector_.Invalidate(bank_, arm);
  return Status::OK();
}

}  // namespace bandit
}  // namespace cdt
