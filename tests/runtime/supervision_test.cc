// Supervision + crash recovery, end to end: a sharded service processes a
// deterministic event script (creates, demand, seller leave/return,
// closes); a chaos-injected crash kills one shard mid-traffic, the
// supervisor restarts it, and the killed marketplaces rebuild lazily from
// their WALs (snapshot restore + byte-verified tail replay + journal
// re-application). The proof obligation: every marketplace's sealed event
// log is BYTE-IDENTICAL to the one an uninterrupted reference run of the
// same script produces.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "persist/atomic_io.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "runtime/marketplace.h"
#include "runtime/service.h"

namespace cdt {
namespace runtime {
namespace {

std::shared_ptr<const MarketplaceSpec> SmallSpec(std::uint64_t seed) {
  auto spec = std::make_shared<MarketplaceSpec>();
  spec->config.num_sellers = 8;
  spec->config.num_selected = 2;
  spec->config.num_pois = 3;
  spec->config.num_rounds = 200;
  spec->config.seed = seed;
  return spec;
}

Event Create(const std::string& id, std::uint64_t seed) {
  Event event;
  event.type = EventType::kCreateMarketplace;
  event.marketplace = id;
  event.spec = SmallSpec(seed);
  return event;
}

Event Demand(const std::string& id, std::int64_t rounds) {
  Event event;
  event.type = EventType::kConsumerDemand;
  event.marketplace = id;
  event.rounds = rounds;
  return event;
}

Event Flip(const std::string& id, EventType type, int seller) {
  Event event;
  event.type = type;
  event.marketplace = id;
  event.seller = seller;
  return event;
}

Event Close(const std::string& id) {
  Event event;
  event.type = EventType::kCloseMarketplace;
  event.marketplace = id;
  return event;
}

/// The shared traffic script: two marketplaces, interleaved demand,
/// seller churn on alpha, clean closes at the end.
std::vector<Event> TrafficScript() {
  std::vector<Event> script;
  script.push_back(Create("alpha", 11));
  script.push_back(Create("beta", 22));
  script.push_back(Demand("alpha", 25));
  script.push_back(Demand("beta", 15));
  script.push_back(Flip("alpha", EventType::kSellerLeave, 3));
  script.push_back(Demand("alpha", 20));
  script.push_back(Demand("beta", 20));
  script.push_back(Flip("alpha", EventType::kSellerReturn, 3));
  script.push_back(Flip("alpha", EventType::kSellerLeave, 5));
  script.push_back(Demand("alpha", 15));
  script.push_back(Demand("beta", 10));
  script.push_back(Close("alpha"));
  script.push_back(Close("beta"));
  return script;
}

MarketplaceService::Options ServiceOptions(const std::string& wal_dir) {
  MarketplaceService::Options options;
  options.num_shards = 2;
  options.queue_capacity = 64;  // the whole script fits: nothing sheds
  options.wal_dir = wal_dir;
  options.snapshot_every = 10;
  options.max_rounds_per_dispatch = 8;
  options.autostart = false;
  options.watchdog_period = std::chrono::milliseconds(0);
  return options;
}

class SupervisionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = (std::filesystem::temp_directory_path() /
             ("cdt_supervision_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override {
    std::filesystem::remove_all(stem_ + "_ref");
    std::filesystem::remove_all(stem_ + "_chaos");
  }

  /// Runs the script to completion, polling the supervisor so injected
  /// crashes get restarted, then drains.
  void RunScript(MarketplaceService* service,
                 const std::vector<Event>& script) {
    std::uint64_t accepted = 0;
    for (const Event& event : script) {
      ASSERT_EQ(service->Submit(event),
                MarketplaceService::Admission::kAccepted);
      ++accepted;
    }
    service->Start();
    for (int i = 0; i < 20000; ++i) {
      service->supervisor().PollOnce();
      if (service->GetStats().events_processed >= accepted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(service->GetStats().events_processed, accepted);
    service->Drain();
  }

  std::string ExpectSealedLogBytes(const std::string& wal_dir,
                                   const std::string& id) {
    auto run = persist::LoadRecordedRun(MarketplaceLogPath(wal_dir, id));
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    auto bytes = persist::ReadFileBytes(MarketplaceLogPath(wal_dir, id));
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }

  std::string stem_;
};

TEST_F(SupervisionTest, CrashRecoveryIsByteIdentical) {
  const std::string ref_dir = stem_ + "_ref";
  const std::string chaos_dir = stem_ + "_chaos";
  const std::vector<Event> script = TrafficScript();

  // Reference: uninterrupted run.
  {
    auto service = MarketplaceService::Create(ServiceOptions(ref_dir));
    ASSERT_TRUE(service.ok());
    RunScript(service.value().get(), script);
    const auto stats = service.value()->GetStats();
    EXPECT_EQ(stats.restarts, 0u);
    EXPECT_EQ(stats.total_shed, 0u);
  }

  // Chaos: kill the shard owning "alpha" after it processed 2 events —
  // mid-campaign, past the first snapshot, before the seller churn.
  {
    auto service = MarketplaceService::Create(ServiceOptions(chaos_dir));
    ASSERT_TRUE(service.ok());
    const int victim = service.value()->ShardFor("alpha");
    service.value()->shard(victim).ArmKillAfter(2);
    RunScript(service.value().get(), script);
    const auto stats = service.value()->GetStats();
    EXPECT_GE(stats.restarts, 1u);
    std::uint64_t recoveries = 0;
    for (const auto& shard : stats.shards) recoveries += shard.recoveries;
    EXPECT_GE(recoveries, 1u);
  }

  // Every marketplace's sealed WAL must match the reference run exactly,
  // byte for byte — crash, restart and recovery left no trace.
  for (const std::string id : {"alpha", "beta"}) {
    const std::string reference = ExpectSealedLogBytes(ref_dir, id);
    const std::string recovered = ExpectSealedLogBytes(chaos_dir, id);
    EXPECT_EQ(reference, recovered) << "marketplace " << id;
  }
}

TEST_F(SupervisionTest, SellerChurnSurvivesRecoveryThroughJournal) {
  const std::string ref_dir = stem_ + "_ref";
  const std::string chaos_dir = stem_ + "_chaos";
  const std::vector<Event> script = TrafficScript();

  {
    auto service = MarketplaceService::Create(ServiceOptions(ref_dir));
    ASSERT_TRUE(service.ok());
    RunScript(service.value().get(), script);
  }
  // Kill after the leave/return churn so recovery must re-apply
  // journaled flips at their exact effect rounds during tail replay.
  {
    auto service = MarketplaceService::Create(ServiceOptions(chaos_dir));
    ASSERT_TRUE(service.ok());
    const int victim = service.value()->ShardFor("alpha");
    // Events on alpha's shard: create + demand(25) + leave + demand(20)
    // + return + leave(5) + demand(15) + close (plus beta's when it
    // shares the shard). Kill after 6 processed events.
    service.value()->shard(victim).ArmKillAfter(6);
    RunScript(service.value().get(), script);
    EXPECT_GE(service.value()->GetStats().restarts, 1u);
  }
  for (const std::string id : {"alpha", "beta"}) {
    EXPECT_EQ(ExpectSealedLogBytes(ref_dir, id),
              ExpectSealedLogBytes(chaos_dir, id))
        << "marketplace " << id;
  }
}

TEST_F(SupervisionTest, WatchdogDetectsStallWithoutRestarting) {
  const std::string dir = stem_ + "_chaos";
  auto options = ServiceOptions(dir);
  options.stall_threshold = std::chrono::milliseconds(20);
  auto service = MarketplaceService::Create(options);
  ASSERT_TRUE(service.ok());

  service.value()->shard(0).ArmStallAfter(
      1, std::chrono::milliseconds(120));
  std::vector<Event> script;
  script.push_back(Create("alpha", 11));
  script.push_back(Demand("alpha", 5));
  script.push_back(Close("alpha"));
  // Make sure "alpha" lands on shard 0 for this test; if it does not,
  // stall the shard it actually lands on.
  const int owner = service.value()->ShardFor("alpha");
  if (owner != 0) {
    service.value()->shard(0).ArmStallAfter(0, std::chrono::milliseconds(0));
    service.value()->shard(owner).ArmStallAfter(
        1, std::chrono::milliseconds(120));
  }

  for (const Event& event : script) {
    ASSERT_EQ(service.value()->Submit(event),
              MarketplaceService::Admission::kAccepted);
  }
  service.value()->Start();
  bool saw_stall = false;
  for (int i = 0; i < 1000; ++i) {
    const auto report = service.value()->supervisor().PollOnce();
    if (report.stalled > 0 || report.currently_stalled > 0) {
      saw_stall = true;
    }
    if (service.value()->GetStats().events_processed >= 3 && saw_stall) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_GE(service.value()->supervisor().total_stalls(), 1u);
  // A stall is not a crash: no restart happened, and the work finished.
  EXPECT_EQ(service.value()->GetStats().restarts, 0u);
  service.value()->Drain();
  auto run =
      persist::LoadRecordedRun(MarketplaceLogPath(dir, "alpha"));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().rounds.size(), 5u);
}

TEST_F(SupervisionTest, RecoverRebuildsQuiescentMarketplaceFromWal) {
  // Crash with NO further traffic for the marketplace, then recover it
  // directly: snapshot + tail replay must land on the exact cursor.
  const std::string dir = stem_ + "_chaos";
  HostedMarketplace::Options options;
  options.wal_dir = dir;
  options.snapshot_every = 7;
  std::filesystem::create_directories(dir);

  MarketplaceSpec spec = *SmallSpec(33);
  {
    auto marketplace = HostedMarketplace::Create("gamma", spec, options);
    ASSERT_TRUE(marketplace.ok());
    Event demand = Demand("gamma", 23);
    std::int64_t remaining = 0;
    ASSERT_TRUE(
        marketplace.value()->ApplyEvent(demand, 0, &remaining).ok());
    Event leave = Flip("gamma", EventType::kSellerLeave, 1);
    ASSERT_TRUE(
        marketplace.value()->ApplyEvent(leave, 0, &remaining).ok());
    // Crash: drop the object without FinishWal — torn log on disk.
  }
  auto recovered = HostedMarketplace::Recover("gamma", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_settled(), 23);
  EXPECT_EQ(recovered.value()->state(), HostedMarketplace::State::kActive);
  // The journaled departure survived the crash.
  EXPECT_FALSE(recovered.value()->run().engine().seller_active(1));
  ASSERT_TRUE(recovered.value()->FinishWal().ok());
}

/// Drives marketplace "delta" (snapshots every 10 rounds) through
/// `rounds_before_flip` rounds, a seller leave (effect_round
/// rounds_before_flip + 1), and on to `rounds_before_crash` rounds, then
/// crashes and recovers it and finishes at round 30. Its WAL files and
/// final engine bytes must equal those of an uninterrupted twin.
class FlipBoundaryRecoveryTest : public SupervisionTest {
 protected:
  void ExpectRecoveryMatchesTwin(std::int64_t rounds_before_flip,
                                 std::int64_t rounds_before_crash);
};

void FlipBoundaryRecoveryTest::ExpectRecoveryMatchesTwin(
    std::int64_t rounds_before_flip, std::int64_t rounds_before_crash) {
  constexpr std::int64_t kTotalRounds = 30;
  const MarketplaceSpec spec = *SmallSpec(44);
  auto settle = [](HostedMarketplace* marketplace, std::int64_t rounds) {
    std::int64_t remaining = 0;
    ASSERT_TRUE(marketplace
                    ->ApplyEvent(Demand("delta", rounds), 0, &remaining)
                    .ok());
    ASSERT_EQ(remaining, 0);
  };
  // The same event sequence, with or without a crash after
  // rounds_before_crash rounds; returns the final engine bytes.
  auto drive = [&](const std::string& dir, bool crash) {
    std::filesystem::create_directories(dir);
    HostedMarketplace::Options options;
    options.wal_dir = dir;
    options.snapshot_every = 10;
    auto created = HostedMarketplace::Create("delta", spec, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<HostedMarketplace> marketplace =
        std::move(created).value();
    settle(marketplace.get(), rounds_before_flip);
    std::int64_t remaining = 0;
    EXPECT_TRUE(marketplace
                    ->ApplyEvent(Flip("delta", EventType::kSellerLeave, 3),
                                 0, &remaining)
                    .ok());
    settle(marketplace.get(), rounds_before_crash - rounds_before_flip);
    if (crash) {
      marketplace.reset();  // no FinishWal: torn log + journal on disk
      auto recovered = HostedMarketplace::Recover("delta", options);
      EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
      marketplace = std::move(recovered).value();
      EXPECT_EQ(marketplace->rounds_settled(), rounds_before_crash);
    }
    settle(marketplace.get(), kTotalRounds - rounds_before_crash);
    EXPECT_FALSE(marketplace->run().engine().seller_active(3));
    EXPECT_TRUE(marketplace->FinishWal().ok());
    std::string engine_bytes;
    persist::EncodeEngineSnapshot(
        marketplace->run().engine().CaptureSnapshot(), &engine_bytes);
    return engine_bytes;
  };

  const std::string ref_dir = stem_ + "_ref";
  const std::string chaos_dir = stem_ + "_chaos";
  const std::string twin_engine = drive(ref_dir, /*crash=*/false);
  EXPECT_EQ(drive(chaos_dir, /*crash=*/true), twin_engine);
  for (auto path_of : {MarketplaceLogPath, MarketplaceSnapshotPath,
                       MarketplaceJournalPath}) {
    auto twin = persist::ReadFileBytes(path_of(ref_dir, "delta"));
    auto recovered = persist::ReadFileBytes(path_of(chaos_dir, "delta"));
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value(), twin.value()) << path_of(ref_dir, "delta");
  }
}

TEST_F(FlipBoundaryRecoveryTest, FlipAtSnapshotRound) {
  // effect_round 10: inside the round-10 snapshot's activity bitmap.
  ExpectRecoveryMatchesTwin(9, 14);
}

TEST_F(FlipBoundaryRecoveryTest, FlipAfterSnapshotRound) {
  // effect_round 11: re-applied before replaying round 11.
  ExpectRecoveryMatchesTwin(10, 14);
}

TEST_F(FlipBoundaryRecoveryTest, FlipPastLastSettledRound) {
  // effect_round 15, journaled after round 14 settled, just before the
  // crash: re-applied once the replay is done.
  ExpectRecoveryMatchesTwin(14, 14);
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
