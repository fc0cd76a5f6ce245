// The delivery buffer of the vector-clock causal protocols.
//
// An update from writer w stamped u is *causally ready* at a replica with
// clock vt iff u[w] == vt[w]+1 and u[j] <= vt[j] for all j != w (the ANBKH /
// CBCAST rule, VectorClock::ready_at). Over FIFO channels a writer's updates
// arrive in tick order, so only the oldest buffered update of each writer
// can be ready: the queue keeps one FIFO lane per writer and finding the
// next ready update costs O(writers) tests, not a scan of the backlog.
// Among the ready lane heads the earliest *arrival* wins, which is exactly
// the update a front-to-back scan of an arrival-ordered buffer finds first.
//
// T must expose `VectorClock clock`. Lanes are VecQueues, so a warmed queue
// stays allocation-free.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/vec_queue.h"
#include "common/vector_clock.h"

namespace cim {

template <typename T>
class CausalReadyQueue {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit CausalReadyQueue(std::size_t writers)
      : lanes_(writers), last_tick_(writers, 0) {}

  std::size_t size() const { return size_; }

  /// Buffer `update` from `writer`; FIFO channels mean its tick must follow
  /// the writer's previous update.
  void push(std::size_t writer, T&& update) {
    CIM_CHECK(writer < lanes_.size());
    const std::uint64_t tick = update.clock[writer];
    CIM_CHECK_MSG(tick == last_tick_[writer] + 1,
                  "writer " << writer << " sent tick " << tick << " after "
                            << last_tick_[writer]);
    last_tick_[writer] = tick;
    lanes_[writer].emplace_back(std::move(update), next_arrival_++);
    ++size_;
  }

  /// The writer whose head is the earliest-arrived update causally ready at
  /// `clock`, or kNone. Read the update in place with head(), then pop().
  std::size_t ready_writer(const VectorClock& clock) const {
    std::size_t best = kNone;
    std::uint64_t best_arrival = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t w = 0; w < lanes_.size(); ++w) {
      if (lanes_[w].empty()) continue;
      const Entry& e = *lanes_[w].begin();
      if (e.arrival > best_arrival) continue;
      if (!e.update.clock.ready_at(clock, w)) continue;
      best = w;
      best_arrival = e.arrival;
    }
    return best;
  }

  T& head(std::size_t writer) { return lanes_[writer].front().update; }

  void pop(std::size_t writer) {
    lanes_[writer].pop_front();
    --size_;
  }

 private:
  struct Entry {
    T update;
    std::uint64_t arrival;
  };

  std::vector<VecQueue<Entry>> lanes_;
  std::vector<std::uint64_t> last_tick_;
  std::uint64_t next_arrival_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cim
