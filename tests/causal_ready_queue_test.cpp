// Contract tests of CausalReadyQueue against the reference it replaces: an
// arrival-ordered buffer scanned front to back for the first causally ready
// update (the ANBKH / CBCAST delivery loop). Random causal executions feed
// both through FIFO-per-writer channels with random interleavings; every
// pop must return the same update.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/causal_ready_queue.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/vector_clock.h"

namespace cim {
namespace {

struct Update {
  VectorClock clock;
  std::size_t writer = 0;
  int id = 0;
};

// The reference: arrival order, first ready update wins.
class NaiveScan {
 public:
  void push(Update u) { buf_.push_back(std::move(u)); }
  std::size_t size() const { return buf_.size(); }

  std::optional<Update> pop_ready(const VectorClock& clock) {
    for (auto it = buf_.begin(); it != buf_.end(); ++it) {
      if (!it->clock.ready_at(clock, it->writer)) continue;
      Update u = std::move(*it);
      buf_.erase(it);
      return u;
    }
    return std::nullopt;
  }

 private:
  std::vector<Update> buf_;
};

// Both buffers pop against `clock`, which advances with each update taken.
// Returns the number of updates popped.
std::size_t pop_all_ready(CausalReadyQueue<Update>& queue, NaiveScan& naive,
                          VectorClock& clock) {
  std::size_t popped = 0;
  for (;;) {
    const std::optional<Update> want = naive.pop_ready(clock);
    const std::size_t w = queue.ready_writer(clock);
    if (!want) {
      EXPECT_EQ(w, queue.kNone);
      return popped;
    }
    EXPECT_NE(w, queue.kNone);
    if (w == queue.kNone) return popped;
    EXPECT_EQ(queue.head(w).id, want->id);
    EXPECT_EQ(w, want->writer);
    queue.pop(w);
    clock.tick(want->writer);
    ++popped;
  }
}

// Per-writer streams of a random causal execution: before a write, a writer
// sometimes learns some other writer's update (with its causal past, by
// merging that update's clock), which makes later updates depend on it.
std::vector<std::vector<Update>> causal_streams(Rng& rng, std::size_t writers,
                                                int updates) {
  std::vector<std::vector<Update>> streams(writers);
  std::vector<VectorClock> clocks(writers, VectorClock(writers));
  for (int id = 0; id < updates; ++id) {
    const std::size_t w = rng.uniform(0, writers - 1);
    if (rng.chance(0.6)) {
      const std::size_t j = rng.uniform(0, writers - 1);
      if (j != w && !streams[j].empty()) {
        const std::size_t k = rng.uniform(0, streams[j].size() - 1);
        clocks[w].merge(streams[j][k].clock);
      }
    }
    clocks[w].tick(w);
    streams[w].push_back(Update{clocks[w], w, id});
  }
  return streams;
}

class CausalReadyQueueDiff : public ::testing::TestWithParam<std::uint64_t> {};

// A replica clock drains the buffers at random moments, as ANBKH,
// partial-rep and CBCAST do.
TEST_P(CausalReadyQueueDiff, MatchesNaiveScan) {
  Rng rng(GetParam());
  const std::size_t writers = rng.uniform(2, 7);
  const int updates = 300;
  auto streams = causal_streams(rng, writers, updates);

  CausalReadyQueue<Update> queue(writers);
  NaiveScan naive;
  VectorClock clock(writers);
  std::vector<std::size_t> next(writers, 0);
  std::size_t delivered = 0;
  for (int sent = 0; sent < updates; ++sent) {
    std::size_t w = rng.uniform(0, writers - 1);
    while (next[w] == streams[w].size()) w = (w + 1) % writers;
    const Update& u = streams[w][next[w]++];
    queue.push(w, Update(u));
    naive.push(u);
    ASSERT_EQ(queue.size(), naive.size());
    if (rng.chance(0.3)) delivered += pop_all_ready(queue, naive, clock);
  }
  delivered += pop_all_ready(queue, naive, clock);
  EXPECT_EQ(delivered, static_cast<std::size_t>(updates));
  EXPECT_EQ(queue.size(), 0u);
}

// lazy-batch pops against a tentative clock that runs ahead of the replica
// clock while a batch is collected, then commits it.
TEST_P(CausalReadyQueueDiff, MatchesNaiveScanAgainstTentativeClock) {
  Rng rng(GetParam() + 1000);
  const std::size_t writers = rng.uniform(2, 7);
  const int updates = 300;
  auto streams = causal_streams(rng, writers, updates);

  CausalReadyQueue<Update> queue(writers);
  NaiveScan naive;
  VectorClock clock(writers);
  std::vector<std::size_t> next(writers, 0);
  std::size_t delivered = 0;
  auto run_batch = [&] {
    VectorClock tentative = clock;
    delivered += pop_all_ready(queue, naive, tentative);
    clock = tentative;
  };
  for (int sent = 0; sent < updates; ++sent) {
    std::size_t w = rng.uniform(0, writers - 1);
    while (next[w] == streams[w].size()) w = (w + 1) % writers;
    const Update& u = streams[w][next[w]++];
    queue.push(w, Update(u));
    naive.push(u);
    if (rng.chance(0.1)) run_batch();
  }
  run_batch();
  EXPECT_EQ(delivered, static_cast<std::size_t>(updates));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalReadyQueueDiff,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(CausalReadyQueue, EarliestArrivalWinsAmongReadyHeads) {
  CausalReadyQueue<Update> queue(3);
  queue.push(2, Update{VectorClock{0, 0, 1}, 2, 20});
  queue.push(0, Update{VectorClock{1, 0, 0}, 0, 0});
  const VectorClock clock(3);
  ASSERT_EQ(queue.ready_writer(clock), 2u);
  EXPECT_EQ(queue.head(2).id, 20);
  queue.pop(2);
  EXPECT_EQ(queue.ready_writer(clock), 0u);
}

TEST(CausalReadyQueue, WaitsForCrossWriterDependency) {
  CausalReadyQueue<Update> queue(2);
  queue.push(1, Update{VectorClock{1, 1}, 1, 10});  // depends on w0's first
  VectorClock clock(2);
  EXPECT_EQ(queue.ready_writer(clock), queue.kNone);
  clock.tick(0);
  EXPECT_EQ(queue.ready_writer(clock), 1u);
}

TEST(CausalReadyQueue, OutOfOrderPushFromOneWriterThrows) {
  CausalReadyQueue<Update> queue(2);
  EXPECT_THROW(queue.push(0, Update{VectorClock{2, 0}, 0, 1}),
               InvariantViolation);
  queue.push(0, Update{VectorClock{1, 0}, 0, 1});
  EXPECT_THROW(queue.push(0, Update{VectorClock{1, 0}, 0, 2}),
               InvariantViolation);  // duplicate
  EXPECT_THROW(queue.push(0, Update{VectorClock{3, 0}, 0, 3}),
               InvariantViolation);  // gap
  queue.push(0, Update{VectorClock{2, 0}, 0, 4});
  EXPECT_EQ(queue.size(), 2u);
}

}  // namespace
}  // namespace cim
