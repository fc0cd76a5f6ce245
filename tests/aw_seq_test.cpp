// Unit/integration tests: the Attiya–Welch sequential protocol, its TOB
// substrate, and experiment E9 (two sequential systems interconnect into a
// causal but not necessarily sequential system — Section 1.1).
#include <gtest/gtest.h>

#include "checker/causal_checker.h"
#include "checker/search_checker.h"
#include "helpers.h"

namespace cim::proto {
namespace {

using test::X;
using test::Y;

TEST(AwSeq, LocalReadIsImmediate) {
  isc::Federation fed(test::single_system(2, aw_seq_protocol()));
  Value got = -1;
  bool responded = false;
  fed.system(0).app(1).read(X, [&](Value v) {
    got = v;
    responded = true;
  });
  // Reads must complete without any message exchange.
  EXPECT_TRUE(responded);
  EXPECT_EQ(got, kInitValue);
}

TEST(AwSeq, WriteBlocksUntilOwnDelivery) {
  isc::Federation fed(test::single_system(3, aw_seq_protocol()));
  auto& sim = fed.simulator();
  sim::Time ack_time{-1};
  // Writer is process 1 (non-sequencer): publish -> sequencer -> broadcast.
  fed.system(0).app(1).write(X, 5, [&] { ack_time = sim.now(); });
  fed.run();
  // Default intra delay 1ms: 1ms to the sequencer + 1ms broadcast back.
  EXPECT_EQ(ack_time, sim::Time{} + sim::milliseconds(2));
}

TEST(AwSeq, SequencerWriteAcksAfterSelfDelivery) {
  isc::Federation fed(test::single_system(3, aw_seq_protocol()));
  bool acked = false;
  fed.system(0).app(0).write(X, 5, [&] { acked = true; });
  // The sequencer self-delivers synchronously; its own writes ack
  // immediately.
  EXPECT_TRUE(acked);
}

// Deliveries come from one sequencer over a FIFO channel, so the TOB core
// buffers them strictly in sequence order and rejects anything else.
TEST(AwSeq, OutOfSequenceDeliveryThrows) {
  isc::Federation fed(test::single_system(2, aw_seq_protocol()));
  auto deliver = [&](std::uint64_t seq) {
    auto del = std::make_unique<TobDeliver>();
    del->var = Y;
    del->value = 40 + static_cast<Value>(seq);
    del->seq = seq;
    fed.system(0).mcs(1).on_message(net::ChannelId{}, std::move(del));
  };
  EXPECT_THROW(deliver(1), InvariantViolation);  // seq 0 is missing
  deliver(0);
  fed.run();
  EXPECT_THROW(deliver(0), InvariantViolation);  // duplicate
  EXPECT_THROW(deliver(2), InvariantViolation);  // gap
  deliver(1);
  fed.run();
  EXPECT_EQ(
      dynamic_cast<AwSeqProcess&>(fed.system(0).mcs(1)).replica_value(Y), 41);
}

TEST(AwSeq, ReadYourWrites) {
  isc::Federation fed(test::single_system(3, aw_seq_protocol()));
  Value got = -1;
  auto& app = fed.system(0).app(2);
  app.write(X, 9);
  app.read(X, [&](Value v) { got = v; });
  fed.run();
  EXPECT_EQ(got, 9);
}

TEST(AwSeq, AllReplicasApplySameTotalOrder) {
  isc::Federation fed(test::single_system(4, aw_seq_protocol()));
  // Concurrent writes to the same variable from all processes.
  for (std::uint16_t p = 0; p < 4; ++p) {
    fed.system(0).app(p).write(X, 100 + p);
  }
  fed.run();
  Value v0 = dynamic_cast<AwSeqProcess&>(fed.system(0).mcs(0)).replica_value(X);
  for (std::uint16_t p = 1; p < 4; ++p) {
    EXPECT_EQ(
        dynamic_cast<AwSeqProcess&>(fed.system(0).mcs(p)).replica_value(X), v0);
  }
}

TEST(AwSeq, SatisfiesCausalUpdatingTrait) {
  isc::Federation fed(test::single_system(2, aw_seq_protocol()));
  EXPECT_TRUE(fed.system(0).mcs(0).satisfies_causal_updating());
  EXPECT_STREQ(fed.system(0).mcs(0).protocol_name(), "aw-seq");
}

// Single-system executions are *sequentially* consistent (checked with the
// exhaustive reference checker on small runs) — this is the premise of E9.
class AwSeqSequential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AwSeqSequential, SingleSystemIsSequentiallyConsistent) {
  isc::FederationConfig cfg =
      test::single_system(3, aw_seq_protocol(), GetParam());
  cfg.systems[0].intra_delay = [] {
    return std::make_unique<net::UniformDelay>(sim::microseconds(500),
                                               sim::milliseconds(8));
  };
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 6;  // keep the exhaustive check tractable
  wc.num_vars = 2;
  wc.seed = GetParam() * 5 + 2;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();

  auto history = fed.federation_history();
  auto seq = chk::SearchChecker{}.is_sequential(history);
  ASSERT_TRUE(seq.has_value()) << "search budget exceeded";
  EXPECT_TRUE(*seq) << history.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AwSeqSequential,
                         ::testing::Range<std::uint64_t>(1, 13));

// Random AW workloads are causal (sequential implies causal); checked with
// the polynomial checker on larger runs.
class AwSeqRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AwSeqRandom, RandomWorkloadIsCausal) {
  isc::Federation fed(test::single_system(4, aw_seq_protocol(), GetParam()));
  wl::UniformConfig wc;
  wc.ops_per_process = 40;
  wc.num_vars = 4;
  wc.seed = GetParam() * 7 + 1;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AwSeqRandom,
                         ::testing::Range<std::uint64_t>(1, 9));

// E9 proper: interconnect two AW systems. The union must be causal
// (Theorem 1) and there exist executions that are NOT sequential.
TEST(SequentialUnion, UnionIsCausalButNotSequential) {
  isc::FederationConfig cfg =
      test::two_systems(2, aw_seq_protocol(), aw_seq_protocol(), 21);
  // Slow link: large window during which the systems disagree.
  cfg.links[0].delay = [] {
    return std::make_unique<net::FixedDelay>(sim::milliseconds(40));
  };
  isc::Federation fed(std::move(cfg));
  auto& sim = fed.simulator();

  // Classic non-sequential witness: concurrent writes to x in each system;
  // readers in each system see their local write first, the remote one
  // later — opposite orders, impossible in any single total order.
  fed.system(0).app(0).write(X, 1);
  fed.system(1).app(0).write(X, 2);
  sim.at(sim::Time{} + sim::milliseconds(10), [&] {
    fed.system(0).app(1).read(X, [](Value v) { ASSERT_EQ(v, 1); });
    fed.system(1).app(1).read(X, [](Value v) { ASSERT_EQ(v, 2); });
  });
  sim.at(sim::Time{} + sim::milliseconds(200), [&] {
    // After propagation both systems converge on the pair order... each
    // system applied the remote write after its own, so the *final* values
    // differ per system — but reads below pin the opposite orders.
    fed.system(0).app(1).read(X, [](Value) {});
    fed.system(1).app(1).read(X, [](Value) {});
  });
  fed.run();

  auto history = fed.federation_history();
  auto causal = chk::CausalChecker{}.check(history);
  EXPECT_TRUE(causal.ok()) << causal.detail;

  auto seq = chk::SearchChecker{}.is_sequential(history);
  ASSERT_TRUE(seq.has_value());
  EXPECT_FALSE(*seq) << "expected a non-sequential union execution\n"
                     << history.to_string();
}

// And with random workloads the union stays causal for every seed.
class SequentialUnionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialUnionSweep, UnionIsCausal) {
  isc::FederationConfig cfg = test::two_systems(3, aw_seq_protocol(),
                                                aw_seq_protocol(), GetParam());
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 30;
  wc.num_vars = 4;
  wc.seed = GetParam() * 11 + 4;
  auto runners = wl::install_uniform(fed, wc);
  fed.run();
  auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialUnionSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace cim::proto
