// Visibility-latency tracking for the Section-6 experiments.
//
// The paper's latency `l` is "the time until a value written is visible in
// any other process". The tracker records, for every written value, the
// issue time and the first time each replica applied it; visibility latency
// towards a set of target replicas is the maximum apply time minus the issue
// time. With the FixedDelay models of bench_latency this reproduces the
// 3l + 2d worst case exactly.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "mcs/memory_observer.h"

namespace cim::stats {

class VisibilityTracker final : public mcs::MemoryObserver {
 public:
  void on_write_issued(ProcId writer, VarId var, Value value, WriteId wid,
                       sim::Time t) override;
  void on_apply(ProcId replica, VarId var, Value value, WriteId wid,
                bool at_issue, sim::Time t) override;

  /// Issue time of the write of `value`; nullopt if not observed.
  std::optional<sim::Time> issue_time(Value value) const;

  /// First time `replica` applied `value`; nullopt if it never did.
  std::optional<sim::Time> apply_time(Value value, ProcId replica) const;

  /// Latency until `value` was visible at all `targets`; nullopt if some
  /// target never applied it.
  std::optional<sim::Duration> visibility(Value value,
                                          const std::vector<ProcId>& targets) const;

  /// Worst visibility latency over all observed writes; nullopt if any write
  /// never became visible everywhere (a liveness failure) or none observed.
  std::optional<sim::Duration> worst_visibility(
      const std::vector<ProcId>& targets) const;

  /// All per-write visibility latencies towards `targets` (only writes that
  /// reached every target).
  std::vector<sim::Duration> all_visibilities(
      const std::vector<ProcId>& targets) const;

  std::size_t writes_observed() const { return issues_.size(); }

 private:
  struct Issue {
    ProcId writer;
    sim::Time time;
  };
  std::map<Value, Issue> issues_;
  std::map<Value, std::map<ProcId, sim::Time>> applies_;  // first apply only
};

}  // namespace cim::stats
