#include "runtime/durability.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "market/trading_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "persist/io_hooks.h"

namespace cdt {
namespace runtime {

using util::Result;
using util::Status;
using util::StatusCode;

namespace {

std::atomic<std::uint64_t> g_wal_failures{0};
std::atomic<std::uint64_t> g_degrades{0};
std::atomic<std::uint64_t> g_rearms{0};
std::atomic<std::uint64_t> g_failures{0};
std::atomic<std::uint64_t> g_compactions{0};
std::atomic<std::uint64_t> g_quarantines{0};

void Count(const char* name, const char* help,
           std::atomic<std::uint64_t>* total) {
  total->fetch_add(1, std::memory_order_relaxed);
  obs::registry().GetCounter(name, help, {})->Increment();
}

/// Storage failures feed the breaker; anything else (a round-numbering
/// bug, an already-finished writer) is a programming error that must
/// propagate loudly.
bool IsStorageFailure(const Status& status) {
  return status.code() == StatusCode::kIoError;
}

}  // namespace

DurabilityTotals GlobalDurabilityTotals() {
  DurabilityTotals totals;
  totals.wal_failures = g_wal_failures.load(std::memory_order_relaxed);
  totals.degrades = g_degrades.load(std::memory_order_relaxed);
  totals.rearms = g_rearms.load(std::memory_order_relaxed);
  totals.failures = g_failures.load(std::memory_order_relaxed);
  totals.compactions = g_compactions.load(std::memory_order_relaxed);
  totals.quarantines = g_quarantines.load(std::memory_order_relaxed);
  return totals;
}

void CountDurabilityQuarantine() {
  Count("cdt_runtime_durability_quarantined_total",
        "Marketplaces quarantined after their durability breaker failed",
        &g_quarantines);
}

const char* DurabilityGuard::HealthName(Health health) {
  switch (health) {
    case Health::kDurable:
      return "durable";
    case Health::kDegraded:
      return "degraded";
    case Health::kFailed:
      return "failed";
  }
  return "unknown";
}

/// The recorder checks its own options (log/snapshot paths, cadence)
/// when it opens; the guard checks only what is its own.
static Status ValidateOptions(const DurabilityGuard::Options& options) {
  if (options.journal_path.empty()) {
    return Status::InvalidArgument("DurabilityGuard needs a journal_path");
  }
  if (options.tuning.degrade_after_failures < 1) {
    return Status::InvalidArgument("degrade_after_failures must be >= 1");
  }
  if (options.tuning.rearm_initial_rounds < 1 ||
      options.tuning.rearm_max_rounds < options.tuning.rearm_initial_rounds) {
    return Status::InvalidArgument("re-arm backoff must satisfy 1 <= initial "
                                   "<= max");
  }
  if (options.tuning.compact_after_rounds < 0) {
    return Status::InvalidArgument("compact_after_rounds must be >= 0");
  }
  if (options.tuning.compact_after_rounds > 0 &&
      options.recorder.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "compaction needs a snapshot_path (the rebased log resumes from "
        "the snapshot)");
  }
  return Status::OK();
}

Result<std::unique_ptr<DurabilityGuard>> DurabilityGuard::Create(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto recorder = persist::RunRecorder::Create(options.recorder, config,
                                               policy);
  CDT_RETURN_NOT_OK(recorder.status());
  auto journal = JournalWriter::Open(options.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  std::unique_ptr<DurabilityGuard> guard(
      new DurabilityGuard(std::move(options), config, policy));
  guard->recorder_ = std::move(recorder).value();
  guard->journal_ = std::move(journal).value();
  return guard;
}

Result<std::unique_ptr<DurabilityGuard>> DurabilityGuard::Attach(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto recorder = persist::RunRecorder::Attach(options.recorder);
  CDT_RETURN_NOT_OK(recorder.status());
  auto journal = JournalWriter::Open(options.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  std::unique_ptr<DurabilityGuard> guard(
      new DurabilityGuard(std::move(options), config, policy));
  guard->last_rebase_round_ =
      recorder.value()->rounds_recorded();  // conservative: never compacted
  guard->recorder_ = std::move(recorder).value();
  guard->journal_ = std::move(journal).value();
  return guard;
}

Status DurabilityGuard::OnRound(const market::TradingEngine& engine,
                                const market::RoundReport& report) {
  switch (health_) {
    case Health::kFailed:
      return Status::OK();  // the host quarantines; nothing to write
    case Health::kDegraded:
      if (report.round >= next_rearm_round_) TryRearm(engine, report.round);
      return Status::OK();
    case Health::kDurable:
      break;
  }
  Status status = recorder_->OnRound(engine, report);
  if (!status.ok()) {
    if (!IsStorageFailure(status)) return status;
    RecordWalFailure(status, report.round);
    return Status::OK();
  }
  consecutive_failures_ = 0;
  if (tuning().compact_after_rounds > 0 &&
      report.round - last_rebase_round_ >= tuning().compact_after_rounds) {
    Status compacted = Compact(engine, report.round);
    if (!compacted.ok()) {
      if (!IsStorageFailure(compacted)) return compacted;
      // Compact dismantles the writers before it can fail — the outgoing
      // segment is sealed (retention) or already dropped by Rebase — so
      // there is nothing left to append to in place. Open the breaker
      // now instead of merely counting toward the threshold: a guard
      // left kDurable here would touch dead writers next round.
      RecordWalFailure(compacted, report.round);
      Degrade(report.round);
    }
  }
  return Status::OK();
}

void DurabilityGuard::Journal(const JournalEntry& entry) {
  if (journal_ == nullptr) return;  // degraded: rides in the next snapshot
  Status status = journal_->Append(entry);
  if (status.ok()) return;
  CountWalFailure(status);
  // The flip is applied but not journaled: the current log can no longer
  // reproduce the engine, so continuing to append rounds would poison
  // recovery silently. Degrade now; the re-arm snapshot's activity
  // bitmap carries the flip instead.
  Degrade(entry.effect_round - 1);
}

Status DurabilityGuard::CheckpointNow(const market::TradingEngine& engine) {
  if (health_ != Health::kDurable) return Status::OK();
  Status status = recorder_->CheckpointNow(engine);
  if (!status.ok() && IsStorageFailure(status)) {
    RecordWalFailure(status, engine.current_round());
    return Status::OK();
  }
  return status;
}

Status DurabilityGuard::Rebase(const market::TradingEngine& engine,
                               std::int64_t round) {
  recorder_.reset();
  journal_.reset();
  auto recorder = persist::RunRecorder::Rebase(options_.recorder, config_,
                                               policy_, engine, round);
  CDT_RETURN_NOT_OK(recorder.status());
  // Journaled flips all have effect_round <= round, so they are inside
  // the snapshot's activity bitmap — the journal restarts empty.
  std::remove(options_.journal_path.c_str());
  auto journal = JournalWriter::Open(options_.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  recorder_ = std::move(recorder).value();
  journal_ = std::move(journal).value();
  last_rebase_round_ = round;
  return Status::OK();
}

Status DurabilityGuard::Compact(const market::TradingEngine& engine,
                                std::int64_t round) {
  if (tuning().retain_compacted) {
    // Seal the outgoing segment so the retained artifact is a valid,
    // footer-complete log in its own right.
    CDT_RETURN_NOT_OK(recorder_->Finish());
    // Past this point the writer is sealed and can never accept another
    // append: any failure below must surface as a storage failure so
    // OnRound degrades (dropping the dead writer) rather than retrying.
    const std::string& log_path = options_.recorder.log_path;
    const std::string retained = log_path + ".old";
    std::remove(retained.c_str());
    const persist::IoDecision rename_fault =
        persist::IoHooks::Instance().Check(persist::IoOp::kRename);
    if (rename_fault.error != 0) {
      errno = rename_fault.error;
      return Status::IoError("cannot retain compacted segment as '" +
                             retained + "': injected rename fault");
    }
    if (std::rename(log_path.c_str(), retained.c_str()) != 0) {
      return Status::IoError("cannot retain compacted segment as '" +
                             retained + "'");
    }
  }
  CDT_RETURN_NOT_OK(Rebase(engine, round));
  ++compactions_;
  Count("cdt_runtime_durability_compactions_total",
        "Snapshot-compactions (log rebased onto its snapshot)",
        &g_compactions);
  return Status::OK();
}

void DurabilityGuard::TryRearm(const market::TradingEngine& engine,
                               std::int64_t round) {
  if (tuning().max_rearm_attempts > 0 &&
      rearm_attempts_ >= tuning().max_rearm_attempts) {
    MarkFailed();
    return;
  }
  ++rearm_attempts_;
  Status status = Rebase(engine, round);
  if (status.ok()) {
    MarkRearmed();
    return;
  }
  CountWalFailure(status);
  if (tuning().max_rearm_attempts > 0 &&
      rearm_attempts_ >= tuning().max_rearm_attempts) {
    MarkFailed();
    return;
  }
  rearm_backoff_ = std::min(rearm_backoff_ * 2, tuning().rearm_max_rounds);
  next_rearm_round_ = round + rearm_backoff_;
}

void DurabilityGuard::CountWalFailure(const Status& status) {
  last_error_ = status;
  ++wal_failures_;
  Count("cdt_runtime_durability_wal_failures_total",
        "WAL write failures absorbed by durability guards",
        &g_wal_failures);
}

void DurabilityGuard::MarkRearmed() {
  health_ = Health::kDurable;
  consecutive_failures_ = 0;
  ++rearms_;
  Count("cdt_runtime_durability_rearms_total",
        "Degraded marketplaces restored to full durability", &g_rearms);
}

void DurabilityGuard::RecordWalFailure(const Status& status,
                                       std::int64_t round) {
  CountWalFailure(status);
  // Failed atomic writes may strand our own temp file (ENOSPC mid-write,
  // simulated crash): clear this marketplace's stem immediately. The
  // directory-wide sweep runs at service startup, where no writer races.
  if (!options_.recorder.snapshot_path.empty()) {
    std::remove((options_.recorder.snapshot_path + ".tmp").c_str());
  }
  std::remove((options_.recorder.log_path + ".tmp").c_str());
  if (++consecutive_failures_ >= tuning().degrade_after_failures) {
    Degrade(round);
  }
}

void DurabilityGuard::Degrade(std::int64_t round) {
  if (health_ != Health::kDurable) return;
  health_ = Health::kDegraded;
  ++degrades_;
  Count("cdt_runtime_durability_degraded_total",
        "Durability breakers opened (marketplace trading without a WAL)",
        &g_degrades);
  // Drop the poisoned writers: sticky errors make in-place retries
  // futile, and re-arm opens fresh files anyway.
  recorder_.reset();
  journal_.reset();
  rearm_attempts_ = 0;
  rearm_backoff_ = tuning().rearm_initial_rounds;
  next_rearm_round_ = round + rearm_backoff_;
}

void DurabilityGuard::MarkFailed() {
  if (health_ == Health::kFailed) return;
  health_ = Health::kFailed;
  Count("cdt_runtime_durability_failed_total",
        "Durability breakers that exhausted their re-arm budget",
        &g_failures);
}

Status DurabilityGuard::Finish(const market::TradingEngine& engine) {
  switch (health_) {
    case Health::kDurable: {
      Status status = CheckpointNow(engine);
      if (health_ != Health::kDurable) {
        // The final checkpoint itself tripped the breaker.
        return last_error_;
      }
      Status finish = recorder_->Finish();
      if (status.ok()) status = finish;
      Status closed = journal_->Close();
      if (status.ok()) status = closed;
      return status;
    }
    case Health::kDegraded: {
      // One last probe outside the backoff schedule: if the fault has
      // cleared, the drain still ends in a sealed, recoverable WAL.
      Status status = Rebase(engine, engine.current_round());
      if (!status.ok()) {
        last_error_ = status;
        return status;
      }
      MarkRearmed();
      Status finish = recorder_->Finish();
      Status closed = journal_->Close();
      return !finish.ok() ? finish : closed;
    }
    case Health::kFailed:
      return last_error_.ok()
                 ? Status::FailedPrecondition("durability breaker failed")
                 : last_error_;
  }
  return Status::Internal("unreachable durability health state");
}

DurabilityGuard::Stats DurabilityGuard::stats() const {
  Stats stats;
  stats.health = health_;
  stats.wal_failures = wal_failures_;
  stats.degrades = degrades_;
  stats.rearms = rearms_;
  stats.compactions = compactions_;
  stats.last_error = last_error_;
  return stats;
}

}  // namespace runtime
}  // namespace cdt
