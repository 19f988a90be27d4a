// Top-K selector and heap-select correctness: both must reproduce the
// oracle (iota + partial_sort over the reference UCB scan, tests/support)
// bit for bit under adversarial update patterns — ties, mass invalidation,
// cold-start arms, restored-from-snapshot banks — in both selector regimes.

#include "bandit/topk.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
#include "stats/rng.h"
#include "support/oracle.h"

namespace cdt {
namespace bandit {
namespace {

std::vector<int> ReferenceTopK(const EstimatorBank& bank, int k) {
  std::vector<double> ucb;
  testsupport::UcbValuesReferenceInto(bank, &ucb);
  std::vector<int> out;
  testsupport::TopKIndicesPartialSortInto(ucb, k, &out);
  return out;
}

EstimatorBank MakeBank(int m, double exploration) {
  auto bank = EstimatorBank::Create(m, exploration);
  EXPECT_TRUE(bank.ok());
  return std::move(bank).value();
}

// Quantized observation batch: coarse values manufacture exact mean ties.
std::vector<double> QuantizedBatch(stats::Xoshiro256& rng, int len,
                                   int levels) {
  std::vector<double> batch(static_cast<std::size_t>(len));
  for (double& q : batch) {
    q = std::floor(rng.NextDouble() * levels) / levels;
  }
  return batch;
}

TEST(TopKIndicesIntoTest, MatchesPartialSortOnRandomInputs) {
  stats::Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    int m = 1 + static_cast<int>(rng.NextDouble() * 400);
    std::vector<double> values(static_cast<std::size_t>(m));
    for (double& v : values) {
      // Quantized so duplicates are common; sprinkle in ±inf sentinels
      // (cold arms and availability masks use them).
      double u = rng.NextDouble();
      if (u < 0.05) {
        v = std::numeric_limits<double>::infinity();
      } else if (u < 0.1) {
        v = -std::numeric_limits<double>::infinity();
      } else {
        v = std::floor(u * 16.0) / 16.0;
      }
    }
    int k = static_cast<int>(rng.NextDouble() * (m + 4));
    std::vector<int> heap_select, partial_sort;
    TopKIndicesInto(values, k, &heap_select);
    testsupport::TopKIndicesPartialSortInto(values, k, &partial_sort);
    EXPECT_EQ(heap_select, partial_sort)
        << "m=" << m << " k=" << k << " trial=" << trial;
  }
}

TEST(TopKIndicesIntoTest, HandlesEdgeSizes) {
  std::vector<double> v{1.0, 2.0};
  std::vector<int> out{9, 9, 9};
  TopKIndicesInto(v, 0, &out);
  EXPECT_TRUE(out.empty());
  TopKIndicesInto(v, 5, &out);
  EXPECT_EQ(out, (std::vector<int>{1, 0}));
  std::vector<double> one{0.5};
  TopKIndicesInto(one, 1, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(LazyTopKSelectorTest, MatchesReferenceAcrossRounds) {
  const int m = 200, k = 10, batch_len = 5;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(42);

  // Round 1: Algorithm 1 observes every arm (mass invalidation).
  for (int i = 0; i < m; ++i) {
    ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, batch_len, 8)).ok());
    selector.Invalidate(bank, i);
  }
  std::vector<int> lazy;
  for (int round = 2; round <= 500; ++round) {
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
    for (int sel : lazy) {
      ASSERT_TRUE(bank.Update(sel, QuantizedBatch(rng, batch_len, 8)).ok());
      selector.Invalidate(bank, sel);
    }
  }
  // Quantized ties force conservative rebuilds (an exact tie at the pool
  // boundary is never trusted), but most rounds must still resolve from
  // the pool alone.
  EXPECT_LT(selector.full_rebuilds(), 250);
  EXPECT_GT(selector.entries_revalidated(), 0);
}

TEST(LazyTopKSelectorTest, SteadyStateAmortizesRebuilds) {
  const int m = 2000, k = 20;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(5);
  // Continuous observations: tie-free values, the regime the pool margin
  // is sized for. Rebuilds should land every ~(P − K)/K rounds, far below
  // one per round.
  std::vector<double> batch(4);
  for (int i = 0; i < m; ++i) {
    for (double& q : batch) q = rng.NextDouble();
    ASSERT_TRUE(bank.Update(i, batch).ok());
    selector.Invalidate(bank, i);
  }
  const int rounds = 300;
  std::vector<int> lazy;
  for (int round = 2; round <= rounds; ++round) {
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
    for (int sel : lazy) {
      for (double& q : batch) q = rng.NextDouble();
      ASSERT_TRUE(bank.Update(sel, batch).ok());
      selector.Invalidate(bank, sel);
    }
  }
  EXPECT_LT(selector.full_rebuilds(), rounds / 4);
  // The pool stays a small fraction of the bank.
  EXPECT_LT(selector.pool_size(), static_cast<std::size_t>(m) / 2);
}

TEST(LazyTopKSelectorTest, MassInvalidationFallsBackToRebuild) {
  const int m = 400, k = 8;
  ASSERT_FALSE(LazyTopKSelector::DirectRegime(m, k));
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(3);
  std::vector<int> lazy;
  for (int round = 1; round <= 20; ++round) {
    // Every arm updated every round: pending covers the whole bank, so the
    // selector must take the full-rescan route — and stay correct.
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 3, 4)).ok());
      selector.Invalidate(bank, i);
    }
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
  }
  EXPECT_GE(selector.full_rebuilds(), 20);
}

TEST(LazyTopKSelectorTest, ColdStartEmitsUnexploredFirst) {
  const int k = 12;
  // m = 50 runs the direct regime; m = 400 the lazy one, pre-warmed so
  // that fewer than k arms stay cold and warm arms reach the output.
  for (int m : {50, 400}) {
    EstimatorBank bank = MakeBank(m, 4.0);
    LazyTopKSelector selector;
    stats::Xoshiro256 rng(11);
    if (!LazyTopKSelector::DirectRegime(m, k)) {
      for (int i = 0; i < m; ++i) {
        if (i % 61 == 5) continue;
        ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 4, 4)).ok());
        selector.Invalidate(bank, i);
      }
    }

    // No select-all round: only a drifting subset ever gets observed, the
    // rest stay cold (+inf UCB, ascending-index ties).
    std::vector<int> lazy;
    for (int round = 1; round <= 60; ++round) {
      selector.SelectInto(bank, k, &lazy);
      ASSERT_EQ(lazy, ReferenceTopK(bank, k))
          << "m=" << m << " round " << round;
      // Observe a couple of arbitrary arms (not necessarily the selected
      // ones) so warm/cold membership shifts between selections.
      for (int j = 0; j < 2; ++j) {
        int arm = (round * 7 + j * 13) % m;
        ASSERT_TRUE(bank.Update(arm, QuantizedBatch(rng, 4, 4)).ok());
        selector.Invalidate(bank, arm);
      }
    }
  }
  // Selecting more arms than are warm must also match (k > warm count).
  EstimatorBank sparse = MakeBank(10, 2.0);
  LazyTopKSelector sparse_selector;
  ASSERT_TRUE(sparse.Update(4, {0.5}).ok());
  sparse_selector.Invalidate(sparse, 4);
  std::vector<int> got;
  sparse_selector.SelectInto(sparse, 10, &got);
  EXPECT_EQ(got, ReferenceTopK(sparse, 10));
}

TEST(LazyTopKSelectorTest, ExactTiesBreakByIndex) {
  const int k = 6;
  for (int m : {40, 300}) {
    EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
    LazyTopKSelector selector;
    // Identical evidence everywhere: every warm arm has the same mean and
    // count, so all M UCB values are exactly equal.
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(bank.Update(i, {0.5, 0.5, 0.5}).ok());
      selector.Invalidate(bank, i);
    }
    std::vector<int> lazy;
    selector.SelectInto(bank, k, &lazy);
    EXPECT_EQ(lazy, (std::vector<int>{0, 1, 2, 3, 4, 5})) << "m=" << m;
    EXPECT_EQ(lazy, ReferenceTopK(bank, k));
    // Re-select without any update: still the same answer.
    selector.SelectInto(bank, k, &lazy);
    EXPECT_EQ(lazy, ReferenceTopK(bank, k));
  }
}

TEST(LazyTopKSelectorTest, DetectsSnapshotRestore) {
  const int k = 5;
  for (int m : {30, 300}) {
    EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
    LazyTopKSelector selector;
    stats::Xoshiro256 rng(17);
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 4, 8)).ok());
      selector.Invalidate(bank, i);
    }
    std::vector<int> lazy;
    selector.SelectInto(bank, k, &lazy);

    // Capture the state, keep learning, then restore — WITHOUT telling the
    // selector. The total-observations mismatch must force a resync.
    std::vector<ArmState> snapshot(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      snapshot[static_cast<std::size_t>(i)] = bank.arm(i);
    }
    std::uint64_t snapshot_total = bank.total_observations();
    for (int round = 0; round < 5; ++round) {
      selector.SelectInto(bank, k, &lazy);
      for (int sel : lazy) {
        ASSERT_TRUE(bank.Update(sel, QuantizedBatch(rng, 4, 8)).ok());
        selector.Invalidate(bank, sel);
      }
    }
    ASSERT_TRUE(bank.Restore(snapshot, snapshot_total).ok());
    selector.SelectInto(bank, k, &lazy);
    EXPECT_EQ(lazy, ReferenceTopK(bank, k)) << "m=" << m;

    // Same-total restore: swap two arms' states (the sum is unchanged, so
    // only the bank's epoch counter can reveal the swap).
    std::swap(snapshot[0], snapshot[1]);
    ASSERT_TRUE(bank.Restore(snapshot, snapshot_total).ok());
    selector.SelectInto(bank, k, &lazy);
    EXPECT_EQ(lazy, ReferenceTopK(bank, k)) << "m=" << m;
  }
}

TEST(LazyTopKSelectorTest, DirectRegimeKeepsNoPool) {
  // K = 10 gives P = 10 + max(64, round(sqrt(10·M))) = 74 around the
  // boundary: M = 148 has 2P = M (direct), M = 149 is the smallest lazy
  // market. Paper scale (300/10) stays lazy; 100/10 and 300/60 go direct.
  EXPECT_EQ(LazyTopKSelector::PoolTarget(148, 10), 74u);
  EXPECT_EQ(LazyTopKSelector::PoolTarget(149, 10), 74u);
  struct Shape {
    int m, k;
    bool direct;
  };
  for (Shape shape : {Shape{100, 10, true}, Shape{300, 60, true},
                      Shape{148, 10, true}, Shape{149, 10, false},
                      Shape{300, 10, false}}) {
    ASSERT_EQ(LazyTopKSelector::DirectRegime(shape.m, shape.k), shape.direct)
        << "m=" << shape.m << " k=" << shape.k;
    EstimatorBank bank = MakeBank(shape.m, static_cast<double>(shape.k + 1));
    LazyTopKSelector selector;
    stats::Xoshiro256 rng(29);
    std::vector<double> batch(4);
    for (int i = 0; i < shape.m; ++i) {
      for (double& q : batch) q = rng.NextDouble();
      ASSERT_TRUE(bank.Update(i, batch).ok());
      selector.Invalidate(bank, i);
    }
    std::vector<int> got;
    for (int round = 2; round <= 200; ++round) {
      selector.SelectInto(bank, shape.k, &got);
      ASSERT_EQ(got, ReferenceTopK(bank, shape.k))
          << "m=" << shape.m << " k=" << shape.k << " round " << round;
      for (int sel : got) {
        for (double& q : batch) q = rng.NextDouble();
        ASSERT_TRUE(bank.Update(sel, batch).ok());
        selector.Invalidate(bank, sel);
      }
    }
    if (shape.direct) {
      EXPECT_EQ(selector.full_rebuilds(), 0) << "m=" << shape.m;
      EXPECT_EQ(selector.entries_revalidated(), 0) << "m=" << shape.m;
      EXPECT_EQ(selector.pool_size(), 0u) << "m=" << shape.m;
    } else {
      EXPECT_GT(selector.full_rebuilds(), 0) << "m=" << shape.m;
      EXPECT_GT(selector.entries_revalidated(), 0) << "m=" << shape.m;
    }
  }
}

TEST(LazyTopKSelectorTest, SwitchingRegimesStaysExact) {
  // One selector asked for k = 10 (lazy at M = 400) and k = 60 (direct):
  // entering the direct regime drops the pool, leaving it rebuilds.
  const int m = 400;
  ASSERT_FALSE(LazyTopKSelector::DirectRegime(m, 10));
  ASSERT_TRUE(LazyTopKSelector::DirectRegime(m, 60));
  EstimatorBank bank = MakeBank(m, 11.0);
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(31);
  for (int i = 0; i < m; ++i) {
    ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 4, 16)).ok());
    selector.Invalidate(bank, i);
  }
  std::vector<int> got;
  std::int64_t lazy_rebuilds = 0;
  for (int round = 0; round < 120; ++round) {
    const int k = (round / 10) % 2 == 0 ? 10 : 60;
    const std::int64_t before = selector.full_rebuilds();
    selector.SelectInto(bank, k, &got);
    ASSERT_EQ(got, ReferenceTopK(bank, k)) << "round " << round;
    if (k == 60) {
      EXPECT_EQ(selector.full_rebuilds(), before) << "round " << round;
      EXPECT_EQ(selector.pool_size(), 0u) << "round " << round;
    } else {
      lazy_rebuilds += selector.full_rebuilds() - before;
    }
    for (int sel : got) {
      ASSERT_TRUE(bank.Update(sel, QuantizedBatch(rng, 4, 16)).ok());
      selector.Invalidate(bank, sel);
    }
  }
  // Every return to the lazy regime starts from a fresh rebuild.
  EXPECT_GE(lazy_rebuilds, 6);
}

TEST(CucbPolicyPathsTest, ReferenceAndOptimizedSelectIdentically) {
  // K = 7: M = 150 sits in the lazy regime, M = 120 in the direct one.
  for (int m : {150, 120}) {
    CucbOptions options;
    options.num_sellers = m;
    options.num_selected = 7;

    auto optimized = CucbPolicy::Create(options);
    auto reference = testsupport::OracleCucbPolicy::Create(options);
    ASSERT_TRUE(optimized.ok());
    ASSERT_TRUE(reference.ok());

    stats::Xoshiro256 rng(1234);
    std::vector<int> a, b;
    std::vector<std::vector<double>> batches;
    for (std::int64_t round = 1; round <= 300; ++round) {
      ASSERT_TRUE(optimized.value().SelectRoundInto(round, &a).ok());
      ASSERT_TRUE(reference.value().SelectRoundInto(round, &b).ok());
      ASSERT_EQ(a, b) << "m=" << m << " round " << round;
      batches.clear();
      for (std::size_t j = 0; j < a.size(); ++j) {
        batches.push_back(QuantizedBatch(rng, 6, 8));
      }
      ASSERT_TRUE(optimized.value().Observe(a, batches).ok());
      ASSERT_TRUE(reference.value().Observe(b, batches).ok());
    }
  }
}

TEST(CucbPolicyPathsTest, LazyBoundHoldsAtEveryExplorationMagnitude) {
  // Huge exploration constants push UCB values to 1e7..1e50, where one
  // ulp dwarfs any absolute slack; the outside bound must scale with the
  // values it protects. Constant observations make every warm arm's value
  // a function of its count alone, so near-ties are everywhere.
  constexpr int kM = 2000;
  constexpr int kK = 10;
  for (double exploration :
       {0.0, 1e6, 1e12, 1e13, 1e14, 1e15, 1e16, 1e18, 1e100}) {
    CucbOptions options;
    options.num_sellers = kM;
    options.num_selected = kK;
    options.exploration = exploration;
    auto lazy = CucbPolicy::Create(options);
    auto reference = testsupport::OracleCucbPolicy::Create(options);
    ASSERT_TRUE(lazy.ok());
    ASSERT_TRUE(reference.ok());

    std::vector<int> a, b;
    std::vector<std::vector<double>> batches;
    int mismatches = 0;
    for (std::int64_t round = 1; round <= 3000; ++round) {
      ASSERT_TRUE(lazy.value().SelectRoundInto(round, &a).ok());
      ASSERT_TRUE(reference.value().SelectRoundInto(round, &b).ok());
      if (a != b) ++mismatches;
      // Both learn from the reference pick, so one mismatch cannot
      // cascade into every later round.
      batches.assign(b.size(), std::vector<double>(2, 0.5));
      ASSERT_TRUE(lazy.value().Observe(b, batches).ok());
      ASSERT_TRUE(reference.value().Observe(b, batches).ok());
    }
    EXPECT_EQ(mismatches, 0) << "exploration " << exploration;
  }
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
