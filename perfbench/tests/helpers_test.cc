// Tests of the benchmark's own helpers: percentile selection, span self
// times, closed-loop completion accounting and the timing decorators.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bandit/cucb_policy.h"
#include "closed_loop.h"
#include "core/cmab_hs.h"
#include "decorators.h"
#include "market/invariants.h"
#include "runtime/service.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using cdt::util::Status;

TEST(PercentileTest, NearestRank) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(PercentileOfSorted(sorted, 50.0), 50.0);
  EXPECT_EQ(PercentileOfSorted(sorted, 99.0), 99.0);
  EXPECT_EQ(PercentileOfSorted(sorted, 100.0), 100.0);
  EXPECT_EQ(PercentileOfSorted({7.0}, 50.0), 7.0);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  // p99 of 1000 samples is rank 990: exactly ten samples lie beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
  // Floating-point q/100*n must not push the rank one too far.
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
}

TEST(PercentileTest, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, SummaryReportsP99OnlyWhenSupported) {
  SampleSet few(64);
  for (int i = 0; i < 50; ++i) few.Add(i);
  Summary s = Summarize(few);
  EXPECT_EQ(s.count, 50u);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.tail_q, 50.0);  // p90 of 50 has only 5 beyond

  SampleSet many;
  for (int i = 1; i <= 2000; ++i) many.Add(i);
  s = Summarize(many);
  EXPECT_EQ(s.p50, 1000.0);
  EXPECT_EQ(s.p99, 1980.0);
  EXPECT_EQ(s.tail_q, 99.0);
}

TEST(SlicedPercentilesTest, ReportsTheFastestDecileAndDropsAShortTail) {
  SlicedPercentiles sliced(100);
  sliced.Start(0);
  std::int64_t now = 0;
  // Ten slices of 100 samples; slice i takes i+1 ns per sample, and its
  // samples are i+1 except one outlier of 1000 + i.
  for (int i = 0; i < 10; ++i) {
    for (int k = 0; k < 100; ++k) {
      now += i + 1;
      sliced.Add(now, k == 0 ? 1000.0 + i : i + 1.0);
    }
  }
  for (int k = 0; k < 99; ++k) sliced.Add(++now, 1e6);  // dropped
  sliced.Finish();
  EXPECT_EQ(sliced.slices(), 10u);
  EXPECT_EQ(sliced.slice_samples(), 100u);
  // Nearest-rank 10th percentile of ten slices: the fastest one.
  EXPECT_EQ(sliced.p50(), 1.0);
  EXPECT_EQ(sliced.p99(), 1.0);  // the 99th of 100 is not the outlier
  EXPECT_DOUBLE_EQ(sliced.rate_per_s(), 1e9);  // 100 samples in 100 ns
}

TEST(SlicedPercentilesTest, RateCountsFromTheFirstSampleWithoutStart) {
  SlicedPercentiles sliced(2);
  sliced.Add(1000, 1.0);
  sliced.Add(3000, 1.0);  // 2 samples over 2 us
  EXPECT_EQ(sliced.slices(), 1u);
  EXPECT_DOUBLE_EQ(sliced.rate_per_s(), 1e6);
  EXPECT_EQ(SlicedPercentiles(4).rate_per_s(), 0.0);
}

TEST(SampleSetTest, ReservoirKeepsCapacityAndExactTotals) {
  SampleSet samples(100, 7);
  for (int i = 0; i < 10000; ++i) samples.Add(1.0);
  EXPECT_EQ(samples.count(), 10000u);
  EXPECT_EQ(samples.sum(), 10000.0);
  EXPECT_EQ(samples.Sorted().size(), 100u);
  EXPECT_EQ(samples.mean(), 1.0);
}

TEST(SpanTest, SelfTimeIsDurationMinusDirectChildren) {
  std::vector<Span> unit(4);
  unit[0] = {"round", 1, -1, 0, 100, 0};
  unit[1] = {"bandit.select", 1, 0, 10, 40, 0};
  unit[2] = {"bandit.learn", 1, 0, 50, 70, 0};
  unit[3] = {"game.solve", 1, -1, 120, 150, 0};  // a second root
  ComputeSelfTimes(&unit);
  EXPECT_EQ(unit[0].self_ns, 50);
  EXPECT_EQ(unit[1].self_ns, 30);
  EXPECT_EQ(unit[3].self_ns, 30);
}

TEST(SpanTest, RecorderNestsAndRetainsUpToCap) {
  SpanRecorder spans(3);
  spans.BeginUnit(5);
  const int root = spans.Begin("round");
  {
    ScopedSpan child(&spans, "bandit.select");
  }
  spans.End(root);
  const std::vector<Span>& unit = spans.EndUnit();
  ASSERT_EQ(unit.size(), 2u);
  EXPECT_EQ(unit[1].parent, 0);
  EXPECT_EQ(unit[0].unit, 5);
  EXPECT_EQ(unit[0].self_ns, unit[0].duration_ns() - unit[1].duration_ns());
  spans.BeginUnit(6);
  spans.End(spans.Begin("round"));
  spans.End(spans.Begin("round"));
  spans.EndUnit();  // would exceed the cap of 3: not retained
  EXPECT_EQ(spans.retained().size(), 2u);
  EXPECT_EQ(spans.units(), 2u);
}

TEST(ClosedLoopTest, CompletesInFifoOrderByProcessedCount) {
  FifoCompletion fifo;
  for (int i = 0; i < 5; ++i) {
    Pending p;
    p.id = i;
    EXPECT_EQ(fifo.Accept(p), static_cast<std::uint64_t>(i + 1));
  }
  std::vector<std::int64_t> done;
  auto collect = [&](const Pending& p) { done.push_back(p.id); };
  EXPECT_EQ(fifo.Complete(3, collect), 3u);
  EXPECT_EQ(fifo.Complete(3, collect), 0u);
  EXPECT_EQ(fifo.outstanding(), 2u);
  EXPECT_EQ(fifo.Complete(5, collect), 2u);
  EXPECT_EQ(done, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(fifo.Consistent(5));
  EXPECT_FALSE(fifo.Consistent(6));
}

TEST(ClosedLoopTest, MatchesShardEventsProcessed) {
  const std::string wal_dir = "helpers_test_wal";
  std::filesystem::remove_all(wal_dir);
  cdt::runtime::MarketplaceService::Options options;
  options.num_shards = 2;
  options.wal_dir = wal_dir;
  auto created = cdt::runtime::MarketplaceService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  cdt::runtime::MarketplaceService& service = *created.value();

  std::vector<FifoCompletion> fifo(2);
  const std::vector<std::string> ids = {"a", "b", "c"};
  auto submit = [&](cdt::runtime::Event event) {
    const int shard = service.ShardFor(event.marketplace);
    ASSERT_EQ(service.Submit(std::move(event)),
              cdt::runtime::MarketplaceService::Admission::kAccepted);
    fifo[static_cast<std::size_t>(shard)].Accept(Pending{});
  };
  for (const std::string& id : ids) {
    auto spec = std::make_shared<cdt::runtime::MarketplaceSpec>();
    spec->config.num_sellers = 20;
    spec->config.num_selected = 3;
    spec->config.num_rounds = 1000;
    cdt::runtime::Event create;
    create.type = cdt::runtime::EventType::kCreateMarketplace;
    create.marketplace = id;
    create.spec = spec;
    submit(create);
  }
  for (int i = 0; i < 60; ++i) {
    cdt::runtime::Event tick;
    tick.marketplace = ids[static_cast<std::size_t>(i) % ids.size()];
    submit(tick);
  }
  std::uint64_t completed = 0;
  while (completed < 63) {
    for (int s = 0; s < 2; ++s) {
      const std::uint64_t processed = service.shard(s).Stats().events_processed;
      ASSERT_TRUE(fifo[static_cast<std::size_t>(s)].Consistent(processed));
      completed += fifo[static_cast<std::size_t>(s)].Complete(
          processed, [](const Pending&) {});
    }
  }
  const auto stats = service.GetStats();
  EXPECT_EQ(stats.rounds_settled, 60u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(stats.shards[static_cast<std::size_t>(s)].events_processed,
              fifo[static_cast<std::size_t>(s)].accepted());
  }
  service.Drain();
  created.value().reset();
  std::filesystem::remove_all(wal_dir);
}

cdt::bandit::CucbPolicy MakeCucb() {
  cdt::bandit::CucbOptions options;
  options.num_sellers = 30;
  options.num_selected = 4;
  return cdt::bandit::CucbPolicy::Create(options).value();
}

TEST(DecoratorTest, PolicyForwardsEveryVirtual) {
  auto inner = std::make_unique<cdt::bandit::CucbPolicy>(MakeCucb());
  cdt::bandit::CucbPolicy* raw = inner.get();
  SpanRecorder spans(100);
  TimedPolicy timed(std::move(inner), &spans);
  EXPECT_EQ(timed.name(), raw->name());
  EXPECT_EQ(timed.num_sellers(), raw->num_sellers());
  EXPECT_EQ(timed.estimator(), raw->estimator());
  EXPECT_NE(timed.estimator(), nullptr);
  EXPECT_EQ(timed.mutable_estimator(), raw->mutable_estimator());
  EXPECT_EQ(timed.snapshot_safe(), raw->snapshot_safe());
  EXPECT_TRUE(timed.snapshot_safe());  // the base-class default is false

  // Same selections as an undecorated twin, round after round.
  cdt::bandit::CucbPolicy twin = MakeCucb();
  std::vector<int> got, want;
  for (std::int64_t t = 1; t <= 20; ++t) {
    spans.BeginUnit(t);
    ASSERT_TRUE(timed.SelectRoundInto(t, &got).ok());
    ASSERT_TRUE(twin.SelectRoundInto(t, &want).ok());
    ASSERT_EQ(got, want);
    std::vector<std::vector<double>> obs(got.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      obs[j].assign(10, 0.01 * static_cast<double>(got[j] % 7));
    }
    ASSERT_TRUE(timed.Observe(got, obs).ok());
    ASSERT_TRUE(twin.Observe(want, obs).ok());
    const std::vector<Span>& unit = spans.EndUnit();
    ASSERT_EQ(unit.size(), 2u);
    EXPECT_STREQ(unit[0].name, "bandit.select");
    EXPECT_STREQ(unit[1].name, "bandit.learn");
  }
  auto via_select_round = timed.SelectRound(21);
  ASSERT_TRUE(via_select_round.ok());
  ASSERT_TRUE(twin.SelectRoundInto(21, &want).ok());
  EXPECT_EQ(via_select_round.value(), want);
}

class CountingObserver : public cdt::market::RoundObserver {
 public:
  explicit CountingObserver(int* calls) : calls_(calls) {}
  Status OnRound(const cdt::market::TradingEngine&,
                 const cdt::market::RoundReport& report) override {
    ++*calls_;
    return report.round == 3 ? Status::Internal("boom") : Status::OK();
  }

 private:
  int* calls_;
};

TEST(DecoratorTest, ObserverForwardsOnRoundAndItsStatus) {
  cdt::core::MechanismConfig config;
  config.num_sellers = 20;
  config.num_selected = 3;
  config.num_rounds = 10;
  auto run = cdt::core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  int calls = 0;
  SpanRecorder spans(100);
  run.value()->mutable_engine().AddObserver(std::make_unique<TimedObserver>(
      std::make_unique<CountingObserver>(&calls), "market.invariants",
      &spans));
  spans.BeginUnit(1);
  ASSERT_TRUE(run.value()->RunRound().ok());
  ASSERT_TRUE(run.value()->RunRound().ok());
  EXPECT_FALSE(run.value()->RunRound().ok());
  EXPECT_EQ(calls, 3);
  const std::vector<Span>& unit = spans.EndUnit();
  ASSERT_EQ(unit.size(), 3u);
  EXPECT_STREQ(unit[0].name, "market.invariants");
}

}  // namespace
}  // namespace perfbench
