// The write-lifecycle stream: typed hooks for every write issue, every
// completed application read and every replica application.
//
// Its consumers are obs::SpanIndex (obs/span_index.h), the per-write latency
// table that measures visibility latency (the paper's `l` and the 3l+2d
// bound of Section 6), and the online causal monitor
// (checker/online_monitor.h). The stream runs whether or not tracing is on.
// Each hook fires right after the trace record it mirrors (`write_issue`,
// `read_done`, `update_applied`), so a consumer that records its own events
// lands them next to the event that caused them.
//
// Header-only and free of mcs dependencies: cim_obs (obs::SpanIndex) and
// cim_checker (chk::OnlineMonitor) implement it without linking cim_mcs,
// which links both.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "sim/time.h"

namespace cim::mcs {

class MemoryObserver {
 public:
  virtual ~MemoryObserver() = default;

  /// Application process `writer` issued w(var)value, identified by `wid`
  /// (an IS-process re-issuing a propagated write carries the origin's wid).
  virtual void on_write_issued(ProcId writer, VarId var, Value value,
                               WriteId wid, sim::Time t) {
    (void)writer; (void)var; (void)value; (void)wid; (void)t;
  }

  /// A read issued through the application's operation queue returned
  /// `value`. Reads an IS-process serves inside an upcall are not reported.
  virtual void on_read_done(ProcId reader, VarId var, Value value,
                            sim::Time t) {
    (void)reader; (void)var; (void)value; (void)t;
  }

  /// The replica of `var` at MCS-process `replica` was updated with `value`.
  /// `at_issue` marks the writer's own replica updated by the write call
  /// itself; every other application is a delivered update.
  virtual void on_apply(ProcId replica, VarId var, Value value, WriteId wid,
                        bool at_issue, sim::Time t) {
    (void)replica; (void)var; (void)value; (void)wid; (void)at_issue; (void)t;
  }
};

/// Fan-out observer: lets a federation register several trackers after
/// construction while systems hold one stable observer pointer.
class ObserverMux final : public MemoryObserver {
 public:
  void add(MemoryObserver* observer) { observers_.push_back(observer); }

  void on_write_issued(ProcId writer, VarId var, Value value, WriteId wid,
                       sim::Time t) override {
    for (MemoryObserver* o : observers_)
      o->on_write_issued(writer, var, value, wid, t);
  }
  void on_read_done(ProcId reader, VarId var, Value value,
                    sim::Time t) override {
    for (MemoryObserver* o : observers_) o->on_read_done(reader, var, value, t);
  }
  void on_apply(ProcId replica, VarId var, Value value, WriteId wid,
                bool at_issue, sim::Time t) override {
    for (MemoryObserver* o : observers_)
      o->on_apply(replica, var, value, wid, at_issue, t);
  }

 private:
  std::vector<MemoryObserver*> observers_;
};

}  // namespace cim::mcs
