// Second-wave checker tests: corner cases of the bad-pattern characterization,
// init-value semantics, level separation (CC vs CM), properties of the causal
// order itself, and the search budget.
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/search_checker.h"
#include "helpers.h"

namespace cim::chk {
namespace {

using test::H;
using test::X;
using test::Y;
using test::Z;

// ------------------------------------------------------------- init values

TEST(CheckerInit, ManyInitReadsAcrossProcessesAreCausal) {
  auto h = H{}
               .rd(0, X, kInitValue)
               .rd(1, X, kInitValue)
               .rd(2, Y, kInitValue)
               .rd(0, Y, kInitValue)
               .history();
  EXPECT_TRUE(CausalChecker{}.check(h).ok());
}

TEST(CheckerInit, InitReadAfterOwnReadOfWriteIsBad) {
  // p1 observes x=1 and then reads x as initial again: no legal placement.
  auto h = H{}.wr(0, X, 1).rd(1, X, 1).rd(1, X, kInitValue).history();
  auto res = CausalChecker{}.check(h);
  EXPECT_EQ(res.pattern, BadPattern::kWriteCOInitRead);
}

TEST(CheckerInit, ConcurrentReaderMayStillSeeInit) {
  // p1 reads init while p0's write exists but was never observed by p1.
  auto h = H{}.wr(0, X, 1).rd(1, X, kInitValue).rd(1, X, 1).history();
  EXPECT_TRUE(CausalChecker{}.check(h).ok());
}

TEST(CheckerInit, InitReadForcedOnlyThroughOtherVariable) {
  // The causal past arrives via variable y; the stale read is on x.
  auto h = H{}
               .wr(0, X, 1)
               .wr(0, Y, 2)
               .rd(1, Y, 2)
               .rd(1, X, kInitValue)
               .history();
  EXPECT_EQ(CausalChecker{}.check(h).pattern, BadPattern::kWriteCOInitRead);
}

// -------------------------------------------------------------- WriteCORead

TEST(CheckerStale, StaleReadViaThreeProcessChain) {
  // w(x)1 ⇝ w(x)2 through a read at p1; p2 sees 2 then 1.
  auto h = H{}
               .wr(0, X, 1)
               .rd(1, X, 1)
               .wr(1, X, 2)
               .rd(2, X, 2)
               .rd(2, X, 1)
               .history();
  EXPECT_EQ(CausalChecker{}.check(h).pattern, BadPattern::kWriteCORead);
}

TEST(CheckerStale, RereadOfSameValueIsFine) {
  auto h = H{}.wr(0, X, 1).rd(1, X, 1).rd(1, X, 1).rd(1, X, 1).history();
  EXPECT_TRUE(CausalChecker{}.check(h).ok());
}

TEST(CheckerStale, OldConcurrentValueAfterNewIsFine) {
  // 1 and 2 concurrent: reading 2 then 1 is legal (place w1 between).
  auto h = H{}.wr(0, X, 1).wr(1, X, 2).rd(2, X, 2).rd(2, X, 1).history();
  EXPECT_TRUE(CausalChecker{}.check(h).ok());
}

TEST(CheckerStale, FlipFlopBetweenConcurrentValuesIsBad) {
  // 2,1,2: needs w2 placed both before and after w1 — CM rejects.
  auto h = H{}
               .wr(0, X, 1)
               .wr(1, X, 2)
               .rd(2, X, 2)
               .rd(2, X, 1)
               .rd(2, X, 2)
               .history();
  auto res = CausalChecker{}.check(h);
  EXPECT_FALSE(res.ok());
}

TEST(CheckerStale, DifferentProcessesMayDisagreeOnConcurrentOrder) {
  auto h = H{}
               .wr(0, X, 1)
               .wr(1, X, 2)
               .rd(2, X, 1)
               .rd(2, X, 2)
               .rd(3, X, 2)
               .rd(3, X, 1)
               .rd(4, X, 1)
               .rd(5, X, 2)
               .history();
  EXPECT_TRUE(CausalChecker{}.check(h).ok());
}

// ------------------------------------------------------------ CC vs CM

TEST(CheckerLevels, CCAcceptsPerReadJustifiableButCMRejects) {
  auto h = H{}
               .wr(0, X, 1)
               .wr(1, X, 2)
               .rd(2, X, 2)
               .rd(2, X, 1)
               .rd(2, X, 2)
               .history();
  EXPECT_TRUE(CausalChecker{}.check(h, Level::kCC).ok());
  EXPECT_FALSE(CausalChecker{}.check(h, Level::kCM).ok());
}

TEST(CheckerLevels, CMImpliesCCOnRandomHistories) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    H h;
    Value next = 1;
    const int ops = 4 + static_cast<int>(rng.uniform(0, 8));
    for (int i = 0; i < ops; ++i) {
      const auto proc = static_cast<std::uint16_t>(rng.uniform(0, 3));
      const VarId var{static_cast<std::uint32_t>(rng.uniform(0, 1))};
      if (rng.chance(0.5)) {
        h.wr(proc, var, next++);
      } else {
        h.rd(proc, var,
             static_cast<Value>(rng.uniform(0, static_cast<std::uint64_t>(next - 1))));
      }
    }
    auto history = h.history();
    const bool cm = CausalChecker{}.check(history, Level::kCM).ok();
    const bool cc = CausalChecker{}.check(history, Level::kCC).ok();
    EXPECT_TRUE(!cm || cc) << "CM ok but CC bad on:\n" << history.to_string();
  }
}

// ------------------------------------------------- causal order properties
//
// Each property is checked through both checkers: the sparse engine builds
// co on graph.h, the search oracle derives it on its own.

void expect_causal(const History& h, bool causal) {
  EXPECT_EQ(CausalChecker{}.check(h).ok(), causal) << h.to_string();
  auto oracle = SearchChecker{}.is_causal(h);
  ASSERT_TRUE(oracle.has_value()) << h.to_string();
  EXPECT_EQ(*oracle, causal) << h.to_string();
}

TEST(CausalOrder, IsTransitive) {
  // w(x)1 precedes p3's last read only through reads at p1 and p2, which
  // are not in p3's view: reading x as initial there is bad iff co is
  // closed transitively.
  H base = H{}
               .wr(0, X, 1)
               .rd(1, X, 1)
               .wr(1, Y, 2)
               .rd(2, Y, 2)
               .wr(2, Z, 3)
               .rd(3, Z, 3);
  H good = base;
  good.rd(3, X, 1);
  H bad = base;
  bad.rd(3, X, kInitValue);
  expect_causal(good.history(), true);
  expect_causal(bad.history(), false);
  EXPECT_EQ(CausalChecker{}.check(bad.history()).pattern,
            BadPattern::kWriteCOInitRead);
}

TEST(CausalOrder, ConcurrentOpsUnordered) {
  // Writes at different processes with no read between them are
  // concurrent, so two readers may see them in opposite orders: causal, but
  // no single total order allows it.
  auto h = H{}
               .wr(0, X, 1)
               .wr(1, Y, 2)
               .rd(2, Y, 2)
               .rd(2, X, kInitValue)
               .rd(3, X, 1)
               .rd(3, Y, kInitValue)
               .history();
  expect_causal(h, true);
  auto seq = SearchChecker{}.is_sequential(h);
  ASSERT_TRUE(seq.has_value());
  EXPECT_FALSE(*seq);
}

TEST(CausalOrder, FailsOnThinAir) {
  // A read of a value no write to its variable produced has no rf source,
  // even when the rest of the history is fine or the value was written to
  // another variable.
  expect_causal(H{}.wr(0, X, 1).rd(1, X, 1).rd(1, Y, 7).history(), false);
  auto other_var = H{}.wr(0, Y, 7).rd(1, X, 7).history();
  expect_causal(other_var, false);
  EXPECT_EQ(CausalChecker{}.check(other_var).pattern,
            BadPattern::kThinAirRead);
}

TEST(CausalOrder, DuplicateWritesUnreadAreUnambiguous) {
  // No read observes the repeated value, so reads-from stays a function and
  // co is just po: nothing is left to search over.
  auto h = H{}.wr(0, X, 1).wr(1, X, 1).rd(2, X, kInitValue).history();
  expect_causal(h, true);
  EXPECT_EQ(CausalChecker{}.check(h).stats.ambiguous_reads, 0u);
  auto seq = SearchChecker{}.is_sequential(h);
  ASSERT_TRUE(seq.has_value());
  EXPECT_TRUE(*seq);
}

TEST(CausalOrder, FailsOnAmbiguousReadsFrom) {
  // p2's r(x)1 has two admissible writers. Once p2 has seen both 3 and 4,
  // each writer of 1 is causally overwritten, so every binding fails; before
  // it has seen 4, binding to p1's write still yields a view.
  H base = H{}.wr(0, X, 1).wr(0, X, 3).wr(1, X, 1).wr(1, X, 4).rd(2, X, 3);
  H good = base;
  good.rd(2, X, 1);
  H bad = base;
  bad.rd(2, X, 4).rd(2, X, 1);
  expect_causal(good.history(), true);
  expect_causal(bad.history(), false);
}

// ------------------------------------------------------------ search budget

TEST(SearchBudget, TinyBudgetReturnsUnknown) {
  H h;
  for (int i = 0; i < 10; ++i) {
    h.wr(static_cast<std::uint16_t>(i % 3), VarId{static_cast<std::uint32_t>(i % 2)},
         i + 1);
  }
  auto res = SearchChecker{}.is_sequential(h.history(), /*node_budget=*/1);
  EXPECT_FALSE(res.has_value());
}

TEST(SearchBudget, OversizedHistoryReturnsUnknown) {
  H h;
  for (int i = 0; i < 70; ++i) h.wr(0, X, i + 1);
  EXPECT_FALSE(SearchChecker{}.is_sequential(h.history()).has_value());
  EXPECT_FALSE(SearchChecker{}.is_causal(h.history()).has_value());
}

// -------------------------------------------- recorder/history edge cases

TEST(HistoryEdge, EmptyHistoryHasNoProcesses) {
  History h;
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.processes().empty());
  EXPECT_TRUE(h.span_of(ProcId{}).empty());
}

TEST(HistoryEdge, ProgramOrderStableForInterleavedRecording) {
  Recorder rec;
  ProcId a{SystemId{0}, 0}, b{SystemId{0}, 1};
  auto w1 = rec.begin(a, false, OpKind::kWrite, X, 1, sim::Time{5});
  auto w2 = rec.begin(b, false, OpKind::kWrite, X, 2, sim::Time{6});
  auto w3 = rec.begin(a, false, OpKind::kWrite, Y, 3, sim::Time{7});
  rec.end_write(w3, sim::Time{8});   // completes out of begin order
  rec.end_write(w1, sim::Time{9});
  rec.end_write(w2, sim::Time{10});
  auto h = rec.full();
  const History::Span pa = h.span_of(a);
  ASSERT_EQ(pa.size(), 2u);
  EXPECT_EQ(h.value(pa.begin), 1);  // begin order defines program order
  EXPECT_EQ(h.value(pa.begin + 1), 3);
}

}  // namespace
}  // namespace cim::chk
