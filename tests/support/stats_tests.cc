#include "support/stats_tests.h"

#include <algorithm>
#include <cmath>

namespace cdt {
namespace stats {

using util::Result;
using util::Status;

namespace {

// Lower incomplete gamma via its power series; converges fast for x < a+1.
double GammaPSeries(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 1; n < 500; ++n) {
    term *= x / (a + static_cast<double>(n));
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper incomplete gamma via Lentz's continued fraction; for x >= a+1.
double GammaQContinuedFraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double ChiSquareSurvival(double x, int k) {
  if (x <= 0.0) return 1.0;
  if (k <= 0) return 1.0;
  return 1.0 - RegularizedGammaP(0.5 * static_cast<double>(k), 0.5 * x);
}

Result<ChiSquareResult> ChiSquareGoodnessOfFit(
    const std::vector<std::uint64_t>& observed,
    const std::vector<double>& expected_probs) {
  if (observed.size() != expected_probs.size()) {
    return Status::InvalidArgument("observed/expected size mismatch");
  }
  if (observed.size() < 2) {
    return Status::InvalidArgument("need >= 2 bins");
  }
  double prob_total = 0.0;
  for (double p : expected_probs) {
    if (p <= 0.0) {
      return Status::InvalidArgument("expected probabilities must be > 0");
    }
    prob_total += p;
  }
  std::uint64_t count_total = 0;
  for (std::uint64_t c : observed) count_total += c;
  if (count_total == 0) {
    return Status::InvalidArgument("no observations");
  }

  ChiSquareResult result;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    double expected = static_cast<double>(count_total) *
                      (expected_probs[i] / prob_total);
    double diff = static_cast<double>(observed[i]) - expected;
    result.statistic += diff * diff / expected;
  }
  result.degrees_of_freedom = static_cast<int>(observed.size()) - 1;
  result.p_value =
      ChiSquareSurvival(result.statistic, result.degrees_of_freedom);
  return result;
}

Result<double> KolmogorovSmirnovStatistic(
    std::vector<double> samples, const std::function<double(double)>& cdf) {
  if (samples.empty()) {
    return Status::InvalidArgument("KS needs >= 1 sample");
  }
  std::sort(samples.begin(), samples.end());
  double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double f = cdf(samples[i]);
    double lo = static_cast<double>(i) / n;
    double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::fabs(f - lo), std::fabs(hi - f)});
  }
  return d;
}

double KolmogorovSmirnovPValue(double d, std::size_t n) {
  if (d <= 0.0) return 1.0;
  double nd2 = static_cast<double>(n) * d * d;
  double sum = 0.0;
  for (int j = 1; j <= 100; ++j) {
    double term = std::exp(-2.0 * static_cast<double>(j) *
                           static_cast<double>(j) * nd2);
    sum += (j % 2 == 1 ? term : -term);
    if (term < 1e-12) break;
  }
  return std::min(1.0, std::max(0.0, 2.0 * sum));
}

}  // namespace stats
}  // namespace cdt
