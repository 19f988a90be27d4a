// Service workload: a MarketplaceService driven in a closed loop.
//
// One generator thread (the caller's) keeps `window` round ticks
// outstanding per shard, round-robin over that shard's marketplaces, and
// submits the next tick only when one settles — a platform clock that
// ticks again once the last round has been paid. Settlement is observed
// from outside by FIFO sequence numbers against the shard's
// events_processed counter (closed_loop.h).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "closed_loop.h"
#include "host.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "persist/event_log.h"
#include "persist/replay.h"
#include "runtime/durability.h"
#include "runtime/marketplace.h"
#include "runtime/service.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using cdt::runtime::Event;
using cdt::runtime::EventType;
using cdt::runtime::MarketplaceService;
using cdt::util::Status;

// Timings are summarised per slice of this many samples.
constexpr std::size_t kSliceSamples = 2000;

// Marketplaces never run out of rounds during a run.
constexpr std::int64_t kServiceRounds = 1000000000;

struct Hosted {
  std::string id;
  int shard = 0;
  std::uint64_t settled = 0;  // ticks settled
};

// Marketplace ids spread evenly over the shards: candidate ids are taken
// in order while their shard still has room.
std::vector<Hosted> PickMarketplaces(const MarketplaceService& service,
                                     int count, int shards) {
  std::vector<Hosted> hosted;
  std::vector<int> per_shard(static_cast<std::size_t>(shards), 0);
  const int cap = (count + shards - 1) / shards;
  for (int n = 0; static_cast<int>(hosted.size()) < count; ++n) {
    Hosted h;
    h.id = "mkt-" + std::to_string(n);
    h.shard = service.ShardFor(h.id);
    if (per_shard[static_cast<std::size_t>(h.shard)] < cap) {
      ++per_shard[static_cast<std::size_t>(h.shard)];
      hosted.push_back(h);
    }
  }
  return hosted;
}

// The shard workers' existing dispatch histogram, summed over shards.
struct DispatchTotals {
  std::uint64_t count = 0;
  double sum_s = 0.0;
};

DispatchTotals ReadDispatch(int shards) {
  DispatchTotals totals;
  for (int s = 0; s < shards; ++s) {
    cdt::obs::Histogram* h = cdt::obs::registry().GetHistogram(
        "cdt_runtime_event_dispatch_seconds",
        "Wall time spent applying one event",
        cdt::obs::DefaultLatencyBuckets(), {{"shard", std::to_string(s)}});
    totals.count += h->count();
    totals.sum_s += h->sum();
  }
  return totals;
}

void PauseNs(std::int64_t ns) {
  const std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

// The generator's state for one service instance.
class Generator {
 public:
  Generator(MarketplaceService* service, std::vector<Hosted> hosted, int window,
         SpanRecorder* spans)
      : service_(service),
        hosted_(std::move(hosted)),
        fifo_(static_cast<std::size_t>(service->num_shards())),
        by_shard_(static_cast<std::size_t>(service->num_shards())),
        cursor_(static_cast<std::size_t>(service->num_shards()), 0),
        last_done_ns_(static_cast<std::size_t>(service->num_shards()), 0),
        spans_(spans),
        window_(window) {
    for (std::size_t m = 0; m < hosted_.size(); ++m) {
      by_shard_[static_cast<std::size_t>(hosted_[m].shard)].push_back(
          static_cast<int>(m));
    }
  }

  // Submits every create and waits until all have been applied.
  Status CreateAll(const cdt::core::MechanismConfig& base,
                   std::uint64_t seed, std::int64_t deadline_ns) {
    for (std::size_t m = 0; m < hosted_.size(); ++m) {
      auto spec = std::make_shared<cdt::runtime::MarketplaceSpec>();
      spec->config = base;
      spec->config.num_rounds = kServiceRounds;
      spec->config.seed = DeriveSeed(seed, 2000 + m);
      Event create;
      create.type = EventType::kCreateMarketplace;
      create.marketplace = hosted_[m].id;
      create.spec = std::move(spec);
      Pending pending;
      pending.id = -1;
      pending.marketplace = static_cast<int>(m);
      if (service_->Submit(std::move(create)) !=
          MarketplaceService::Admission::kAccepted) {
        return Status::Internal("create of " + hosted_[m].id + " was shed");
      }
      fifo_[static_cast<std::size_t>(hosted_[m].shard)].Accept(pending);
    }
    return WaitOutstanding(deadline_ns);
  }

  // The closed loop, measured for `seconds`.
  Status Run(double seconds, std::int64_t deadline_ns) {
    recording_ = true;
    window_start_ns_ = NowNs();
    settle_slices_.Start(window_start_ns_);
    const std::int64_t end =
        window_start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
      for (int s = 0; s < service_->num_shards(); ++s) {
        while (fifo_[static_cast<std::size_t>(s)].outstanding() <
               static_cast<std::uint64_t>(window_)) {
          CDT_RETURN_NOT_OK(SubmitTick(s));
        }
      }
      CDT_RETURN_NOT_OK(Poll());
      if (last_poll_ns_ >= end) break;
      if (last_poll_ns_ > deadline_ns) {
        return Status::Internal("service window overran the time cap");
      }
      PauseNs(500);
    }
    window_end_ns_ = last_poll_ns_;
    recording_ = false;
    settle_slices_.Finish();
    gap_slices_.Finish();
    return WaitOutstanding(deadline_ns);
  }

  // Polls until every accepted event has been applied.
  Status WaitOutstanding(std::int64_t deadline_ns) {
    for (;;) {
      CDT_RETURN_NOT_OK(Poll());
      bool idle = true;
      for (const FifoCompletion& f : fifo_) idle = idle && f.outstanding() == 0;
      if (idle) return Status::OK();
      if (last_poll_ns_ > deadline_ns) {
        return Status::Internal("service did not settle within the time cap");
      }
      PauseNs(2000);
    }
  }

  const std::vector<Hosted>& hosted() const { return hosted_; }
  const std::vector<FifoCompletion>& fifo() const { return fifo_; }
  std::uint64_t ticks_accepted() const { return ticks_accepted_; }
  std::uint64_t ticks_shed() const { return ticks_shed_; }
  std::uint64_t window_settled() const { return window_settled_; }
  double window_seconds() const {
    return static_cast<double>(window_end_ns_ - window_start_ns_) * 1e-9;
  }
  std::int64_t window_start_ns() const { return window_start_ns_; }
  const SampleSet& settle_us() const { return settle_us_; }
  const SampleSet& gap_us() const { return gap_us_; }
  const SlicedPercentiles& settle_slices() const { return settle_slices_; }
  const SlicedPercentiles& gap_slices() const { return gap_slices_; }
  const SampleSet& submit_us() const { return submit_us_; }

 private:
  Status SubmitTick(int shard) {
    std::vector<int>& members = by_shard_[static_cast<std::size_t>(shard)];
    std::size_t& cursor = cursor_[static_cast<std::size_t>(shard)];
    const int m = members[cursor];
    cursor = (cursor + 1) % members.size();
    Event tick;
    tick.type = EventType::kRoundTick;
    tick.marketplace = hosted_[static_cast<std::size_t>(m)].id;
    Pending pending;
    pending.id = next_tick_++;
    pending.marketplace = m;
    pending.submit_start_ns = NowNs();
    const auto admission = service_->Submit(std::move(tick));
    pending.submit_end_ns = NowNs();
    submit_us_.Add(
        static_cast<double>(pending.submit_end_ns - pending.submit_start_ns) *
        1e-3);
    if (admission != MarketplaceService::Admission::kAccepted) {
      ++ticks_shed_;
      return Status::Internal("a round tick was not accepted");
    }
    ++ticks_accepted_;
    fifo_[static_cast<std::size_t>(shard)].Accept(pending);
    return Status::OK();
  }

  Status Poll() {
    for (int s = 0; s < service_->num_shards(); ++s) {
      const std::uint64_t processed =
          service_->shard(s).Stats().events_processed;
      const std::int64_t now = NowNs();
      last_poll_ns_ = now;
      FifoCompletion& fifo = fifo_[static_cast<std::size_t>(s)];
      if (!fifo.Consistent(processed)) {
        return Status::Internal("shard processed events it was never sent");
      }
      const std::uint64_t done =
          fifo.Complete(processed, [&](const Pending& p) {
            if (p.id < 0) return;  // a create
            ++hosted_[static_cast<std::size_t>(p.marketplace)].settled;
            if (!recording_) return;
            ++window_settled_;
            const double settle =
                static_cast<double>(now - p.submit_start_ns) * 1e-3;
            settle_us_.Add(settle);
            settle_slices_.Add(now, settle);
            if (spans_ != nullptr) {
              spans_->BeginUnit(p.id);
              const int root =
                  spans_->Add("service.tick", -1, p.submit_start_ns, now);
              spans_->Add("runtime.submit", root, p.submit_start_ns,
                          p.submit_end_ns);
              spans_->EndUnit();
            }
          });
      if (done == 0 || !recording_) continue;
      // The shard is never idle inside the window (its queue holds the
      // window's ticks), so the time between completions is its time per
      // round.
      std::int64_t& last = last_done_ns_[static_cast<std::size_t>(s)];
      if (last != 0) {
        const double gap = static_cast<double>(now - last) * 1e-3 /
                           static_cast<double>(done);
        for (std::uint64_t i = 0; i < done; ++i) {
          gap_us_.Add(gap);
          gap_slices_.Add(now, gap);
        }
      }
      last = now;
    }
    return Status::OK();
  }

  MarketplaceService* service_;
  std::vector<Hosted> hosted_;
  std::vector<FifoCompletion> fifo_;
  std::vector<std::vector<int>> by_shard_;
  std::vector<std::size_t> cursor_;
  std::vector<std::int64_t> last_done_ns_;
  SpanRecorder* spans_;
  int window_;
  bool recording_ = false;
  std::int64_t next_tick_ = 0;
  std::int64_t last_poll_ns_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::int64_t window_end_ns_ = 0;
  std::uint64_t ticks_accepted_ = 0;
  std::uint64_t ticks_shed_ = 0;
  std::uint64_t window_settled_ = 0;
  SampleSet settle_us_{SampleSet::kDefaultCapacity, 21};
  SampleSet gap_us_{SampleSet::kDefaultCapacity, 22};
  SlicedPercentiles settle_slices_{kSliceSamples};
  SlicedPercentiles gap_slices_{kSliceSamples};
  SampleSet submit_us_{SampleSet::kDefaultCapacity, 23};
};

Status ResetDirectory(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) return Status::IoError("cannot clear " + dir + ": " + ec.message());
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

// Reads a whole WAL: counts its round records and whether it ends sealed.
Status ScanLog(const std::string& path, std::uint64_t* rounds, bool* sealed) {
  auto reader = cdt::persist::EventLogReader::Open(path);
  if (!reader.ok()) return reader.status();
  *rounds = 0;
  *sealed = false;
  cdt::persist::LogRecord record;
  for (;;) {
    Status status = reader.value()->Next(&record);
    if (status.code() == cdt::util::StatusCode::kNotFound) return Status::OK();
    if (!status.ok()) return status;
    if (record.type == cdt::persist::RecordType::kRound) ++*rounds;
    *sealed = record.type == cdt::persist::RecordType::kFooter;
  }
}

}  // namespace

void RunService(const cdt::core::MechanismConfig& config,
                const ServiceShape& shape, const RunOptions& options,
                double seconds, SpanRecorder* spans,
                double reference_round_us, Report* report) {
  const std::string wal_dir = options.out_dir + "/wal";
  const std::int64_t deadline = options.hard_deadline_ns;
  const bool traced = spans != nullptr;
  const int reps = traced ? 1 : shape.setup_reps;

  MarketplaceService::Options service_options;
  service_options.num_shards = shape.shards;
  service_options.wal_dir = wal_dir;
  service_options.snapshot_every = shape.snapshot_every;
  service_options.shed_policy = MarketplaceService::ShedPolicy::kRejectNewest;

  std::unique_ptr<MarketplaceService> service;
  std::unique_ptr<Generator> generator;
  std::vector<double> setup_s;
  std::uint64_t creates = 0;
  auto fail = [&](const Status& status) {
    report->Count(creates + 1, 1);
    report->Fail(status.ToString());
  };
  for (int r = 0; r < reps; ++r) {
    if (generator != nullptr) {
      service->Drain();
      generator.reset();
      service.reset();
    }
    Status status = ResetDirectory(wal_dir);
    if (!status.ok()) return fail(status);
    // Set-up: service start (WAL scrub, workers) until every marketplace's
    // create has been applied.
    const std::int64_t start = NowNs();
    auto created = MarketplaceService::Create(service_options);
    if (!created.ok()) return fail(created.status());
    service = std::move(created).value();
    generator = std::make_unique<Generator>(
        service.get(),
        PickMarketplaces(*service, shape.marketplaces, shape.shards),
        shape.window, spans);
    status = generator->CreateAll(config, options.seed, deadline);
    const std::int64_t end = NowNs();
    if (!status.ok()) return fail(status);
    creates += static_cast<std::uint64_t>(shape.marketplaces);
    setup_s.push_back(static_cast<double>(end - start) * 1e-9);
  }
  std::printf("wal_host: %s\n", HostContextJson(wal_dir).c_str());

  const DispatchTotals before = ReadDispatch(shape.shards);
  Status status = generator->Run(seconds, deadline);
  const std::int64_t settled_ns = NowNs();
  const DispatchTotals after = ReadDispatch(shape.shards);
  const double peak_rss = PeakRssMb();
  const MarketplaceService::Stats stats = service->GetStats();
  const std::int64_t drain_start = NowNs();
  service->Drain();
  const double drain_ms = static_cast<double>(NowNs() - drain_start) * 1e-6;
  const std::uint64_t submitted = generator->ticks_accepted() + generator->ticks_shed();

  std::uint64_t event_errors = 0;
  std::size_t high_water = 0;
  for (const cdt::runtime::ShardStats& shard : stats.shards) {
    event_errors += shard.event_errors;
    high_water = std::max(high_water, shard.queue_high_water);
  }
  report->Count(submitted + creates, generator->ticks_shed() + event_errors);
  if (!status.ok()) report->Fail(status.ToString());

  // Output checks: every accepted tick settled, nothing shed or failed,
  // every WAL sealed, and one WAL replays byte for byte.
  if (stats.total_shed != 0 || generator->ticks_shed() != 0) {
    report->Fail(std::to_string(stats.total_shed) + " events shed");
  }
  if (stats.rounds_settled != generator->ticks_accepted() ||
      stats.accepted != generator->ticks_accepted() +
                            static_cast<std::uint64_t>(shape.marketplaces)) {
    report->Fail("settled rounds " + std::to_string(stats.rounds_settled) +
                 " != accepted ticks " +
                 std::to_string(generator->ticks_accepted()));
  }
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    if (stats.shards[s].events_processed != generator->fifo()[s].accepted()) {
      report->Fail("shard " + std::to_string(s) +
                   " processed a different number of events than it was "
                   "sent");
    }
  }
  if (event_errors != 0 || stats.restarts != 0) {
    report->Fail(std::to_string(event_errors) + " event errors, " +
                 std::to_string(stats.restarts) + " worker restarts");
  }
  const cdt::runtime::DurabilityTotals durability =
      cdt::runtime::GlobalDurabilityTotals();
  if (durability.wal_failures != 0 || durability.quarantines != 0 ||
      durability.failures != 0) {
    report->Fail("WAL failures or quarantines during the run");
  }
  const std::vector<Hosted> hosted = generator->hosted();
  const std::int64_t window_start_ns = generator->window_start_ns();
  const Summary settle = Summarize(generator->settle_us());
  const Summary gap = Summarize(generator->gap_us());
  const Summary submit = Summarize(generator->submit_us());
  const SlicedPercentiles settle_slices = generator->settle_slices();
  const SlicedPercentiles gap_slices = generator->gap_slices();
  const double window_s = generator->window_seconds();
  const std::uint64_t window_settled = generator->window_settled();
  generator.reset();
  service.reset();

  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_rounds = 0;
  std::uint64_t snapshot_bytes = 0;
  int snapshots = 0;
  for (const Hosted& h : hosted) {
    const std::string log = cdt::runtime::MarketplaceLogPath(wal_dir, h.id);
    std::uint64_t rounds = 0;
    bool sealed = false;
    Status scanned = ScanLog(log, &rounds, &sealed);
    if (!scanned.ok()) {
      report->Fail(h.id + " WAL: " + scanned.ToString());
      continue;
    }
    if (!sealed) report->Fail(h.id + " WAL is not sealed after Drain()");
    if (rounds != h.settled) {
      report->Fail(h.id + " WAL holds " + std::to_string(rounds) +
                   " rounds, " + std::to_string(h.settled) + " settled");
    }
    std::error_code ec;
    wal_bytes += fs::file_size(log, ec);
    wal_rounds += rounds;
    const std::string snap =
        cdt::runtime::MarketplaceSnapshotPath(wal_dir, h.id);
    if (fs::exists(snap, ec)) {
      snapshot_bytes += fs::file_size(snap, ec);
      ++snapshots;
    }
  }
  {
    const std::string log =
        cdt::runtime::MarketplaceLogPath(wal_dir, hosted.front().id);
    auto recorded = cdt::persist::LoadRecordedRun(log);
    if (!recorded.ok()) {
      report->Fail("replay load: " + recorded.status().ToString());
    } else {
      auto replayed = cdt::persist::VerifyReplay(recorded.value());
      if (!replayed.ok()) {
        report->Fail("replay: " + replayed.status().ToString());
      } else if (static_cast<std::uint64_t>(
                     replayed.value().rounds_verified) !=
                 hosted.front().settled) {
        report->Fail("replay verified a different number of rounds");
      } else {
        std::printf("replay: %s verified %lld rounds byte for byte\n",
                    hosted.front().id.c_str(),
                    static_cast<long long>(replayed.value().rounds_verified));
      }
    }
  }
  std::error_code ec;
  fs::remove_all(wal_dir, ec);

  // Dispatch histogram deltas cover the window plus the settling of its
  // last ticks.
  const double dispatch_count =
      static_cast<double>(after.count - before.count);
  const double dispatch_s = after.sum_s - before.sum_s;
  const double dispatch_mean_us =
      dispatch_count > 0 ? dispatch_s / dispatch_count * 1e6 : 0.0;
  const double busy_share =
      dispatch_s / (static_cast<double>(settled_ns - window_start_ns) * 1e-9 *
                    shape.shards);
  const double wal_bytes_per_round =
      wal_rounds == 0 ? 0.0
                      : static_cast<double>(wal_bytes) /
                            static_cast<double>(wal_rounds);
  const double mean_snapshot_bytes =
      snapshots == 0 ? 0.0
                     : static_cast<double>(snapshot_bytes) / snapshots;
  std::printf("service: %d marketplaces on %d shards, window %d/shard, "
              "%llu ticks settled in %.3f s\n",
              shape.marketplaces, shape.shards, shape.window,
              static_cast<unsigned long long>(window_settled), window_s);
  std::printf("settle_us %s; %s\n", Describe(settle).c_str(),
              Describe(settle_slices).c_str());
  std::printf("shard round_us %s; %s\n", Describe(gap).c_str(),
              Describe(gap_slices).c_str());
  std::printf("runtime.submit_us %s\n", Describe(submit).c_str());
  std::printf("dispatch mean %.3f us, busy share %.4f, queue high water %zu, "
              "drain %.3f ms, wal %.3f bytes/round, snapshot %.1f bytes\n",
              dispatch_mean_us, busy_share, high_water, drain_ms,
              wal_bytes_per_round, mean_snapshot_bytes);

  if (!traced) {
    report->Metric("rounds_per_s", settle_slices.rate_per_s(), "rounds/s");
    report->Metric("round_us_p50", gap_slices.p50(), "us");
    report->Metric("round_us_p99", P99(gap_slices, "shard round_us", report),
                   "us");
    report->Metric("settle_us_p50", settle_slices.p50(), "us");
    report->Metric("settle_us_p99", P99(settle_slices, "settle_us", report),
                   "us");
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", peak_rss, "MiB");
    return;
  }
  report->Metric("runtime.submit_us_p50", submit.p50, "us");
  report->Metric("runtime.submit_us_p99", P99(submit, "submit_us", report),
                 "us");
  report->Metric("runtime.dispatch_us_mean", dispatch_mean_us, "us");
  report->Metric("runtime.shard_busy_share", busy_share, "share");
  report->Metric("runtime.queue_wait_us_p50", settle.p50 - dispatch_mean_us,
                 "us");
  report->Metric("runtime.queue_high_water", static_cast<double>(high_water),
                 "count");
  report->Metric("runtime.dispatch_overhead_us",
                 dispatch_mean_us - reference_round_us, "us");
  report->Metric("persist.wal_bytes_per_round", wal_bytes_per_round, "bytes");
  report->Metric("persist.snapshot_bytes", mean_snapshot_bytes, "bytes");
  report->Metric("persist.drain_ms", drain_ms, "ms");
}

}  // namespace perfbench
