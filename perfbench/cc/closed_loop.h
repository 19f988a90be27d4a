// Completion accounting for the closed-loop service generator. A shard
// worker applies the events of its queue strictly in FIFO order and bumps
// ShardStats::events_processed after each one, so the n-th event accepted
// into a shard's queue has been applied (settled, WAL-logged) exactly when
// that counter reaches n. No hook inside the runtime is needed.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <deque>

namespace perfbench {

/// One event the generator submitted and the admission path accepted.
struct Pending {
  std::int64_t id = 0;           // tick id (or -1 for a create)
  int marketplace = 0;           // generator-side marketplace index
  std::int64_t submit_start_ns = 0;
  std::int64_t submit_end_ns = 0;
};

/// Per-shard FIFO sequence numbers.
class FifoCompletion {
 public:
  /// Records an accepted event; returns its 1-based sequence number.
  std::uint64_t Accept(const Pending& pending) {
    queue_.push_back(pending);
    return ++accepted_;
  }

  /// Pops, in FIFO order, every accepted event whose sequence number is
  /// <= `events_processed` and hands each to `on_done`. Returns how many.
  template <typename OnDone>
  std::uint64_t Complete(std::uint64_t events_processed, OnDone&& on_done) {
    std::uint64_t done = 0;
    while (!queue_.empty() && completed_ + 1 <= events_processed) {
      on_done(queue_.front());
      queue_.pop_front();
      ++completed_;
      ++done;
    }
    return done;
  }

  /// False when the shard reports more processed events than were ever
  /// accepted into it — someone else's events, so latencies would be
  /// attributed to the wrong ticks.
  bool Consistent(std::uint64_t events_processed) const {
    return events_processed <= accepted_;
  }

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t outstanding() const { return accepted_ - completed_; }

 private:
  std::deque<Pending> queue_;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
