// Bounded MPSC event queue: the overload-control primitive. The cap must
// be a hard invariant (high_water never exceeds capacity), shedding must
// be exact (TryPush reports kFull, never silently drops), and Close must
// drain-then-stop (admitted events are processed, late pushes refused).

#include "runtime/queue.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cdt {
namespace runtime {
namespace {

using PushResult = EventQueue::PushResult;
using PopResult = EventQueue::PopResult;

Event Tick(const std::string& marketplace) {
  Event event;
  event.type = EventType::kRoundTick;
  event.marketplace = marketplace;
  return event;
}

constexpr std::chrono::milliseconds kNoWait{0};

TEST(EventQueueTest, BoundedPushAndFifoPop) {
  EventQueue queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  EXPECT_EQ(queue.TryPush(Tick("a")), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(Tick("b")), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(Tick("c")), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(Tick("d")), PushResult::kFull);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.high_water(), 3u);

  Event event;
  ASSERT_EQ(queue.Pop(&event, kNoWait), PopResult::kEvent);
  EXPECT_EQ(event.marketplace, "a");
  ASSERT_EQ(queue.Pop(&event, kNoWait), PopResult::kEvent);
  EXPECT_EQ(event.marketplace, "b");
  // Space freed: pushes are admitted again, high-water unchanged.
  EXPECT_EQ(queue.TryPush(Tick("e")), PushResult::kAccepted);
  EXPECT_EQ(queue.high_water(), 3u);
}

TEST(EventQueueTest, PopTimesOutOnEmptyQueue) {
  EventQueue queue(2);
  Event event;
  EXPECT_EQ(queue.Pop(&event, std::chrono::milliseconds(5)),
            PopResult::kTimeout);
}

TEST(EventQueueTest, CloseDrainsAdmittedEventsThenReportsDone) {
  EventQueue queue(4);
  EXPECT_EQ(queue.TryPush(Tick("a")), PushResult::kAccepted);
  EXPECT_EQ(queue.TryPush(Tick("b")), PushResult::kAccepted);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.TryPush(Tick("late")), PushResult::kClosed);

  Event event;
  ASSERT_EQ(queue.Pop(&event, kNoWait), PopResult::kEvent);
  EXPECT_EQ(event.marketplace, "a");
  ASSERT_EQ(queue.Pop(&event, kNoWait), PopResult::kEvent);
  EXPECT_EQ(event.marketplace, "b");
  EXPECT_EQ(queue.Pop(&event, kNoWait), PopResult::kDone);
  EXPECT_EQ(queue.Pop(&event, kNoWait), PopResult::kDone);
}

TEST(EventQueueTest, PushWithTimeoutWaitsForSpace) {
  EventQueue queue(1);
  EXPECT_EQ(queue.TryPush(Tick("a")), PushResult::kAccepted);
  // No consumer: the blocking push must give up with kFull.
  EXPECT_EQ(queue.PushWithTimeout(Tick("b"), std::chrono::milliseconds(5)),
            PushResult::kFull);

  // With a consumer the wait succeeds.
  std::thread consumer([&queue] {
    Event event;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Pop(&event, std::chrono::milliseconds(100));
  });
  EXPECT_EQ(
      queue.PushWithTimeout(Tick("c"), std::chrono::milliseconds(500)),
      PushResult::kAccepted);
  consumer.join();
}

TEST(EventQueueTest, HighWaterNeverExceedsCapacityUnderContention) {
  EventQueue queue(8);
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&queue, &accepted, t] {
      std::string producer = "p";
      producer += std::to_string(t);
      for (int i = 0; i < 200; ++i) {
        if (queue.TryPush(Tick(producer)) ==
            PushResult::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Concurrent consumer: drain until the producers finish and the queue
  // closes. Every admitted event (and nothing else) must come out.
  std::atomic<int> popped{0};
  std::thread consumer([&queue, &popped] {
    Event event;
    for (;;) {
      const PopResult result = queue.Pop(&event, std::chrono::milliseconds(5));
      if (result == PopResult::kDone) return;
      if (result == PopResult::kEvent) {
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (auto& producer : producers) producer.join();
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
  EXPECT_LE(queue.high_water(), queue.capacity());
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
