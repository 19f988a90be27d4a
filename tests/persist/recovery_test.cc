// Crash-recovery suite: kill a recorded campaign mid-run at randomized
// round boundaries (no Finish — the log is torn, the snapshot covers an
// earlier checkpoint), restore via snapshot + tail-replay, finish the
// campaign live, and bit-compare the spliced run-log CSV against an
// uninterrupted run of the same config. Faults and invariant checks stay
// armed throughout, so recovery is proven over the degraded path too.
// Also covers RunRecorder::Attach continuing a torn log, and that every
// replay entry point names the round and field of a divergence.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "market/run_log.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/recorder.h"
#include "persist/replay.h"
#include "runtime/marketplace.h"
#include "stats/rng.h"

namespace cdt {
namespace persist {
namespace {

constexpr std::int64_t kRounds = 60;
constexpr std::int64_t kSnapshotEvery = 10;

core::MechanismConfig CampaignConfig() {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = kRounds;
  config.seed = 0x5EED5;
  // Faults armed: recovery must reproduce degraded rounds bit-for-bit.
  config.faults.default_rate = 0.08;
  config.faults.partial_rate = 0.05;
  config.faults.settlement_failure_rate = 0.05;
  return config;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("cdt_recovery_" + std::to_string(::getpid())))
            .string();
    log_path_ = stem + ".cdtlog";
    snapshot_path_ = stem + ".cdtsnap";
    baseline_csv_ = stem + "_baseline.csv";
    recovered_csv_ = stem + "_recovered.csv";
    wal_dir_ = stem + "_wal";
  }

  void TearDown() override {
    for (const std::string& path :
         {log_path_, snapshot_path_, baseline_csv_, recovered_csv_}) {
      std::filesystem::remove(path);
    }
    std::filesystem::remove_all(wal_dir_);
  }

  RunRecorder::Options RecorderOptions(const std::string& log_path,
                                       const std::string& snapshot_path) {
    RunRecorder::Options options;
    options.log_path = log_path;
    options.snapshot_path = snapshot_path;
    options.snapshot_every = kSnapshotEvery;
    return options;
  }

  /// Runs the campaign uninterrupted, writing every round to `csv_path`.
  void RunUninterrupted(const std::string& csv_path) {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto writer = market::RunLogWriter::Open(csv_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    util::Status status =
        run.value()->RunAll([&](const market::RoundReport& report) {
          ASSERT_TRUE(writer.value().Append(report).ok());
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(writer.value().Close().ok());
  }

  /// Records the campaign but "crashes" after `crash_round` rounds: the
  /// run object is destroyed without RunRecorder::Finish, leaving an
  /// unsealed log and whatever snapshot last checkpointed.
  void RunAndCrash(std::int64_t crash_round) {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto recorder = RunRecorder::Create(
        RecorderOptions(log_path_, snapshot_path_), CampaignConfig(), {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    for (std::int64_t round = 0; round < crash_round; ++round) {
      auto report = run.value()->RunRound();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    // Scope exit destroys the run (and the recorder observer it owns)
    // without sealing the log — the crash.
  }

  /// Recovers from the torn log + snapshot, finishes the campaign live,
  /// and writes the spliced CSV (recorded rounds, then live rounds).
  void RecoverAndFinish(std::int64_t crash_round) {
    auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    EXPECT_FALSE(recorded.value().sealed);
    ASSERT_EQ(recorded.value().rounds.size(),
              static_cast<std::size_t>(crash_round));
    ASSERT_FALSE(recorded.value().snapshot_rounds.empty());
    EXPECT_EQ(recorded.value().snapshot_rounds.back(),
              (crash_round / kSnapshotEvery) * kSnapshotEvery);

    auto snapshot = ReadSnapshotFile(snapshot_path_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    auto resumed = ResumeFromSnapshot(recorded.value(), snapshot.value());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().snapshot_round,
              recorded.value().snapshot_rounds.back());
    EXPECT_EQ(resumed.value().resumed_round, crash_round);

    auto writer = market::RunLogWriter::Open(recovered_csv_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const market::RoundReport& report : recorded.value().rounds) {
      ASSERT_TRUE(writer.value().Append(report).ok());
    }
    util::Status status = resumed.value().run->RunAll(
        [&](const market::RoundReport& report) {
          ASSERT_TRUE(writer.value().Append(report).ok());
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(writer.value().Close().ok());
  }

  void ExpectCsvIdentical() {
    auto baseline = ReadFileBytes(baseline_csv_);
    auto recovered = ReadFileBytes(recovered_csv_);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // Byte-identical CSVs: recovery reproduced every round exactly,
    // including fault metadata and formatting.
    EXPECT_EQ(recovered.value(), baseline.value());
  }

  std::string wal_dir_;
  std::string log_path_;
  std::string snapshot_path_;
  std::string baseline_csv_;
  std::string recovered_csv_;
};

TEST_F(RecoveryTest, RandomizedCrashRoundsRecoverBitIdentically) {
  RunUninterrupted(baseline_csv_);
  // Crash at randomized boundaries; every recovery must splice to a CSV
  // byte-identical with the uninterrupted run.
  stats::Xoshiro256 rng(0xC4A5F);
  std::vector<std::int64_t> crash_rounds;
  for (int i = 0; i < 4; ++i) {
    crash_rounds.push_back(static_cast<std::int64_t>(
        rng.NextInt(kSnapshotEvery, kRounds - 1)));
  }
  // Always include a checkpoint-aligned crash (empty tail-replay).
  crash_rounds.push_back(3 * kSnapshotEvery);
  for (std::int64_t crash_round : crash_rounds) {
    SCOPED_TRACE("crash after round " + std::to_string(crash_round));
    RunAndCrash(crash_round);
    RecoverAndFinish(crash_round);
    ExpectCsvIdentical();
    std::filesystem::remove(log_path_);
    std::filesystem::remove(snapshot_path_);
    std::filesystem::remove(recovered_csv_);
  }
}

TEST_F(RecoveryTest, CrashBeforeFirstSnapshotReplaysFromRoundOne) {
  // A crash before the first checkpoint leaves no snapshot; the whole
  // prefix replays from round 1 via VerifyReplay semantics and the run
  // still finishes to a byte-identical CSV.
  const std::int64_t crash_round = kSnapshotEvery - 3;
  RunUninterrupted(baseline_csv_);
  RunAndCrash(crash_round);
  EXPECT_FALSE(std::filesystem::exists(snapshot_path_));

  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_EQ(recorded.value().rounds.size(),
            static_cast<std::size_t>(crash_round));

  // Rebuild from scratch and replay the recorded prefix by re-running it.
  auto run = core::CmabHs::Create(recorded.value().config,
                                  recorded.value().policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto writer = market::RunLogWriter::Open(recovered_csv_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (std::int64_t round = 0; round < crash_round; ++round) {
    auto report = run.value()->RunRound();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // The re-executed prefix must match the recording bit-for-bit.
    ASSERT_EQ(CanonicalRoundBytes(report.value()),
              recorded.value().round_payloads[static_cast<std::size_t>(
                  round)]);
    ASSERT_TRUE(writer.value().Append(report.value()).ok());
  }
  util::Status status =
      run.value()->RunAll([&](const market::RoundReport& report) {
        ASSERT_TRUE(writer.value().Append(report).ok());
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(writer.value().Close().ok());
  ExpectCsvIdentical();
}

TEST_F(RecoveryTest, VerifyReplayPassesOnTornPrefix) {
  // The upgrade gate's core check also holds for crashed recordings: the
  // surviving prefix must re-execute bit-for-bit.
  RunAndCrash(37);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto verified = VerifyReplay(recorded.value());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().rounds_verified, 37);
}

TEST_F(RecoveryTest, MismatchedSnapshotConfigIsRejected) {
  // A snapshot from a different campaign (different config CRC) must be
  // refused at resume time, not silently produce a diverged run.
  RunAndCrash(25);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  SnapshotFile tampered = snapshot.value();
  tampered.config_crc ^= 0x1;
  auto resumed = ResumeFromSnapshot(recorded.value(), tampered);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, SealedLogLoadsStrictAndResumes) {
  // A cleanly finished recording also resumes (restore-from-archive, not
  // just crash recovery): strict load, then snapshot + tail-replay to the
  // end of the campaign.
  {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto recorder = RunRecorder::Create(
        RecorderOptions(log_path_, snapshot_path_), CampaignConfig(), {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    RunRecorder* rec = recorder.value().get();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    ASSERT_TRUE(run.value()->RunAll().ok());
    ASSERT_TRUE(rec->Finish().ok());
  }
  auto recorded = LoadRecordedRun(log_path_);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_TRUE(recorded.value().sealed);
  EXPECT_EQ(recorded.value().rounds.size(),
            static_cast<std::size_t>(kRounds));
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto resumed = ResumeFromSnapshot(recorded.value(), snapshot.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed_round, kRounds);
}

TEST_F(RecoveryTest, AttachContinuesTornLogByteIdentically) {
  // Reference: one uninterrupted, sealed recording.
  const std::string ref_log = log_path_ + ".ref";
  const std::string ref_snapshot = snapshot_path_ + ".ref";
  {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto recorder = RunRecorder::Create(
        RecorderOptions(ref_log, ref_snapshot), CampaignConfig(), {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    RunRecorder* rec = recorder.value().get();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    ASSERT_TRUE(run.value()->RunAll().ok());
    ASSERT_TRUE(rec->Finish().ok());
  }

  // Crash after round 37, then tear its record: the surviving prefix
  // ends at round 36, past the round-30 snapshot.
  RunAndCrash(37);
  std::filesystem::resize_file(log_path_,
                               std::filesystem::file_size(log_path_) - 3);
  {
    auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    EXPECT_TRUE(recorded.value().torn_tail);
    ASSERT_EQ(recorded.value().rounds.size(), 36u);
    auto snapshot = ReadSnapshotFile(snapshot_path_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto resumed = ResumeFromSnapshot(recorded.value(), snapshot.value());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

    auto recorder =
        RunRecorder::Attach(RecorderOptions(log_path_, snapshot_path_));
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    EXPECT_EQ(recorder.value()->rounds_recorded(), 36);
    EXPECT_EQ(recorder.value()->config_crc(), recorded.value().config_crc);
    RunRecorder* rec = recorder.value().get();
    resumed.value().run->mutable_engine().AddObserver(
        std::move(recorder).value());
    ASSERT_TRUE(resumed.value().run->RunAll().ok());
    ASSERT_TRUE(rec->Finish().ok());
  }

  auto recorded = LoadRecordedRun(log_path_);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_TRUE(recorded.value().sealed);
  auto verified = VerifyReplay(recorded.value());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().rounds_verified, kRounds);
  EXPECT_EQ(ReadFileBytes(log_path_).value(), ReadFileBytes(ref_log).value());
  EXPECT_EQ(ReadFileBytes(snapshot_path_).value(),
            ReadFileBytes(ref_snapshot).value());
  std::filesystem::remove(ref_log);
  std::filesystem::remove(ref_snapshot);
}

TEST_F(RecoveryTest, DivergenceNamesRoundAndFieldAtEveryReplayEntryPoint) {
  // A CRC-valid log whose round-23 report carries a consumer price one
  // ulp off what the build computes, plus a sound round-10 snapshot. Full
  // replay, snapshot resume and hosted-marketplace recovery all re-run
  // round 23 through the same loop and must name it and the field.
  constexpr std::int64_t kNudged = 23;
  const std::string id = "diverged";
  std::filesystem::create_directories(wal_dir_);
  const std::string log_path = runtime::MarketplaceLogPath(wal_dir_, id);
  {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    auto log = EventLogWriter::Open(log_path, CampaignConfig(), {});
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (std::int64_t round = 1; round <= kRounds; ++round) {
      auto report = run.value()->RunRound();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      market::RoundReport recorded = report.value();
      if (round == kNudged) {
        recorded.consumer_price =
            std::nextafter(recorded.consumer_price,
                           std::numeric_limits<double>::infinity());
      }
      ASSERT_TRUE(log.value()->AppendRound(recorded).ok());
      if (round == kSnapshotEvery) {
        ASSERT_TRUE(WriteSnapshotFile(
                        runtime::MarketplaceSnapshotPath(wal_dir_, id),
                        log.value()->config_crc(),
                        run.value()->engine().CaptureSnapshot())
                        .ok());
      }
    }
    ASSERT_TRUE(log.value()->Finish().ok());
  }

  const auto expect_divergence = [&](const util::Status& status,
                                     const char* entry_point) {
    EXPECT_EQ(status.code(), util::StatusCode::kInternal)
        << entry_point << ": " << status.ToString();
    EXPECT_NE(status.message().find("round " + std::to_string(kNudged) +
                                    " ("),
              std::string::npos)
        << entry_point << ": " << status.ToString();
    EXPECT_NE(status.message().find("consumer_price"), std::string::npos)
        << entry_point << ": " << status.ToString();
  };

  auto recorded = LoadRecordedRun(log_path);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  expect_divergence(VerifyReplay(recorded.value()).status(), "VerifyReplay");

  auto snapshot =
      ReadSnapshotFile(runtime::MarketplaceSnapshotPath(wal_dir_, id));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  expect_divergence(
      ResumeFromSnapshot(recorded.value(), snapshot.value()).status(),
      "ResumeFromSnapshot");

  runtime::HostedMarketplace::Options options;
  options.wal_dir = wal_dir_;
  options.snapshot_every = kSnapshotEvery;
  expect_divergence(runtime::HostedMarketplace::Recover(id, options).status(),
                    "HostedMarketplace::Recover");
}

}  // namespace
}  // namespace persist
}  // namespace cdt
