// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Prints a host-context line, detail lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
// Exits 1 when an output check failed and 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "host.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

// Table II economics; N is one campaign. Traced runs spend this share of
// the run on the campaign phase and the rest on a service phase over the
// same config, so every traced run reports every layer.
constexpr double kTracedCampaignShare = 0.7;

struct Workload {
  const char* name;
  CampaignShape campaign;
  ServiceShape service;
  bool service_workload;
};

const Workload kWorkloads[] = {
    // The paper's operating point: M=300, K=10, invariants armed.
    {"paper_campaign", {300, 10, 100000, true, 301}, {}, false},
    // Figs. 11/12's K=60: the non-interior Stage-1 sweep dominates.
    {"wide_coalition", {300, 60, 500, false, 101}, {}, false},
    // Large M: the SoA scan and incremental top-K dominate, and set-up
    // (environment build + select-all round 1) is large. Its service
    // phase hosts fewer, rarely-snapshotted marketplaces to bound memory
    // and snapshot bytes.
    {"large_market",
     {200000, 10, 20000, false, 9},
     {2, 2, 4, 100000000, 1},
     false},
    // MarketplaceService on paper_campaign's config, closed loop.
    {"service_closed_loop", {300, 10, 100000, true, 101}, {}, true},
};

bool ParseFlag(int argc, char** argv, const char* flag, std::string* out) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      *out = argv[i + 1];
      return true;
    }
  }
  return false;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions options;
  std::string seed, seconds, trace;
  if (!ParseFlag(argc, argv, "--workload", &options.workload) ||
      !ParseFlag(argc, argv, "--seed", &seed) ||
      !ParseFlag(argc, argv, "--seconds", &seconds) ||
      !ParseFlag(argc, argv, "--trace", &trace) ||
      !ParseFlag(argc, argv, "--out-dir", &options.out_dir)) {
    return Usage("missing flag");
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return Usage("bad --seed");
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 60.0) {
    return Usage("--seconds must be in (0, 60]");
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return Usage("cannot create --out-dir");
  // Every phase gives up here, well inside the 180 s a run may take.
  options.hard_deadline_ns = NowNs() + 150'000'000'000LL;

  std::printf("host: %s\n", HostContextJson(options.out_dir).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  // The service's marketplaces take the workload's config; each gets its
  // own seed.
  const cdt::core::MechanismConfig service_config =
      CampaignConfig(workload->campaign, options.seed);
  double reference_round_us = 0.0;
  if (!options.trace) {
    if (workload->service_workload) {
      RunService(service_config, workload->service, options, options.seconds,
                 nullptr, 0.0, &report);
    } else {
      RunCampaign(workload->campaign, options, options.seconds, nullptr,
                  &report, &reference_round_us);
    }
  } else {
    SpanRecorder campaign_spans(20000);
    SpanRecorder service_spans(20000);
    const double campaign_share = workload->service_workload
                                      ? 1.0 - kTracedCampaignShare
                                      : kTracedCampaignShare;
    RunCampaign(workload->campaign, options, options.seconds * campaign_share,
                &campaign_spans, &report, &reference_round_us);
    RunService(service_config, workload->service, options,
               options.seconds * (1.0 - campaign_share), &service_spans,
               reference_round_us, &report);
    const std::string path = options.out_dir + "/trace-" + workload->name +
                             "-" + seed + ".json";
    cdt::util::Status written =
        WriteChromeTrace(path, {&campaign_spans, &service_spans});
    if (!written.ok()) report.Fail(written.ToString());
    std::printf("chrome trace: %s (%zu + %zu spans kept of %llu + %llu "
                "units)\n",
                path.c_str(), campaign_spans.retained().size(),
                service_spans.retained().size(),
                static_cast<unsigned long long>(campaign_spans.units()),
                static_cast<unsigned long long>(service_spans.units()));
  }
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
