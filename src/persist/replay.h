// Replay side of record/replay: load a recorded event log, rebuild the
// run from its embedded config (every stream in the simulator derives
// from seeds, so the rebuild is exact), and byte-compare each re-executed
// round's canonical RoundReport encoding against the recorded payload.
// Any divergence — an economics change, a reordered draw, a numeric
// drift — fails loudly with the first divergent round. This is the
// replay-verified upgrade gate: tests/data/ carries a golden recorded
// trace that every build must replay bit-for-bit.
//
// Also hosts snapshot resume: restore an engine from a snapshot file and
// tail-replay the recorded rounds past it, verifying each, leaving a live
// run positioned exactly where the recording stopped.
// Full replay, resume and marketplace recovery all re-run rounds through
// the one byte-verified loop in ReplayTail.

#ifndef CDT_PERSIST_REPLAY_H_
#define CDT_PERSIST_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cmab_hs.h"
#include "persist/event_log.h"
#include "util/status.h"

namespace cdt {
namespace persist {

/// A fully parsed event log.
struct RecordedRun {
  core::MechanismConfig config;
  core::PolicySpec policy;
  /// CRC-32 of the config payload; pairs the log with snapshot files.
  std::uint32_t config_crc = 0;
  /// Rounds [1, base_round] were compacted away (they live only in the
  /// paired snapshot); the first record in `rounds` is round
  /// base_round + 1. Zero for ordinary (non-rebased) logs.
  std::int64_t base_round = 0;
  /// Decoded round reports, in order (round base_round + i at index i-1).
  std::vector<market::RoundReport> rounds;
  /// The raw canonical payload bytes of each round (replay compares
  /// against these, not the re-encoded decode — no codec round trip in
  /// the trust chain).
  std::vector<std::string> round_payloads;
  /// Rounds after which a snapshot was durably written, in order.
  std::vector<std::int64_t> snapshot_rounds;
  /// True when the log ended with a verified footer (clean finish).
  bool sealed = false;
  /// True when a truncated final record was absorbed (crash case).
  bool torn_tail = false;
};

/// Loads and fully validates a recorded log. With `allow_torn_tail` the
/// crash case (truncated final record, missing footer) loads what is
/// complete; without it any truncation or missing footer is an error.
/// CRC mismatches and version skew always fail either way.
util::Result<RecordedRun> LoadRecordedRun(const std::string& path,
                                          bool allow_torn_tail = false);

/// The canonical byte encoding replay compares — exposed so recorder,
/// replayer and tests share one definition.
std::string CanonicalRoundBytes(const market::RoundReport& report);

/// Re-executes recorded rounds (run's current round, through_round] on
/// `run`, byte-comparing each with `recorded.round_payloads`. The first
/// divergence is Internal, naming the round and differing fields; a range
/// outside the log is OutOfRange. Callers may mutate `run` between calls
/// (recovery re-applies seller flips this way).
util::Status ReplayTail(const RecordedRun& recorded, core::CmabHs* run,
                        std::int64_t through_round);

/// Outcome of a successful verification.
struct ReplayResult {
  std::int64_t rounds_verified = 0;
};

/// Rebuilds the run from `recorded.config`/`policy`, re-executes every
/// recorded round and byte-compares. Returns the first divergence (round
/// number and differing field context in the message) as an Internal
/// error; OK means the build reproduces the recording bit-for-bit.
/// Rebased logs (base_round > 0) cannot be replayed from round 1 —
/// resume from their snapshot instead (FailedPrecondition).
util::Result<ReplayResult> VerifyReplay(const RecordedRun& recorded);

/// A run resumed from snapshot + tail-replay: `run` is live and
/// positioned after round `resumed_round` (== recorded.rounds.size()),
/// ready for RunRound to continue the campaign. Note the run's
/// MetricsCollector only covers post-snapshot rounds; campaign-level CSV
/// output should splice recorded rounds with live ones (see
/// tools/cdt_replay and the recovery test).
struct ResumedRun {
  std::unique_ptr<core::CmabHs> run;
  /// The round the snapshot covered through.
  std::int64_t snapshot_round = 0;
  /// Rounds consumed after tail-replay (snapshot + verified tail).
  std::int64_t resumed_round = 0;
};

/// Rebuilds the run and restores `snapshot` into it. FailedPrecondition
/// when the config CRCs differ or the snapshot's round is outside
/// [base_round, last recorded round].
util::Result<std::unique_ptr<core::CmabHs>> RestoreFromSnapshot(
    const RecordedRun& recorded, const SnapshotFile& snapshot);

/// RestoreFromSnapshot, then ReplayTail through the last recorded round.
util::Result<ResumedRun> ResumeFromSnapshot(const RecordedRun& recorded,
                                            const SnapshotFile& snapshot);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_REPLAY_H_
