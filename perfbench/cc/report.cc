#include <cmath>
#include <cstdio>

#include "workload.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::Count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

std::string Describe(const Summary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%.3f p99=%.3f p%g=%.3f (n=%llu)",
                s.p50, s.p99, s.tail_q, s.tail,
                static_cast<unsigned long long>(s.count));
  std::string out = buf;
  if (s.kept != s.count) {
    out += " percentiles over " + std::to_string(s.kept) + " kept";
  }
  return out;
}

std::string Describe(const SlicedPercentiles& s) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "fastest decile of %zu slices of %zu: p50=%.3f p99=%.3f "
                "rate=%.1f/s",
                s.slices(), s.slice_samples(), s.p50(), s.p99(),
                s.rate_per_s());
  return buf;
}

double P99(const Summary& s, const std::string& what, Report* report) {
  if (!PercentileSupported(s.kept, 99.0)) {
    report->Fail(what + ": " + std::to_string(s.kept) +
                 " samples cannot support a p99");
  }
  return s.p99;
}

double P99(const SlicedPercentiles& s, const std::string& what,
           Report* report) {
  if (s.slices() == 0 || !PercentileSupported(s.slice_samples(), 99.0)) {
    report->Fail(what + ": no slice, or slices too small to support a p99");
  }
  return s.p99();
}

}  // namespace perfbench
