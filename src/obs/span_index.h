// Per-write causal spans: the one per-write latency table.
//
// Every v3 lifecycle event carries the originating write id, so grouping by
// `wid` recovers, for each write: where it was issued, when each replica
// applied it (and how long it waited for causal dependencies), and every
// IS-link hop it took across the federation. The index is fed live as an
// mcs::MemoryObserver (Federation::add_observer(&index): write issues and
// replica applies, including at-issue applies of the writer's own replica,
// tracing on or off), or offline from ParsedTraceEvent records read back
// from JSONL (the cim_trace CLI), which add write_done, causal waits and
// the pair_out/pair_in hops. From those it derives the per-stage latency
// breakdown Section 6 of the paper reasons about:
//
//   origin_apply — write_issue → write_done at the origin process
//   fanout_intra — write_issue → update_applied at replicas of the origin's
//                  own system (origin excluded)
//   causal_wait  — time an update sat buffered waiting for its causal
//                  dependencies (the wait_ns field of update_applied)
//   is_hop       — per-IS-link transfer time (the hop_ns field of pair_in)
//   remote_apply — write_issue → update_applied at replicas of *other*
//                  systems (the end-to-end visibility latency)
//   propagation  — origin IS-propagation → pair_in at each receiving
//                  IS-process; the exact samples of isc.propagation_latency
//
// A pair_in from a mesh link carries no hop_ns/prop_ns (its ends run
// separate virtual clocks) and adds no is_hop or propagation sample.
//
// The visibility queries answer the paper's `l`, "the time until a value
// written is visible in any other process": a target's time is its first
// apply of the write, of either kind. No trace event records an at-issue
// apply, so offline spans cannot answer visibility at a writer whose
// protocol applies at issue. stages(), completion_t() and
// write_spans_jsonl() skip at-issue applies, so live and offline spans
// agree there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "mcs/memory_observer.h"
#include "obs/trace_read.h"
#include "stats/summary.h"

namespace cim::obs {

struct WriteSpan {
  WriteId wid;
  VarId var;
  Value value = kInitValue;
  bool origin_seen = false;      // write_issue observed at wid.origin()
  std::int64_t issue_t = -1;     // write_issue at the origin, ns
  std::int64_t origin_done_t = -1;  // write_done at the origin, ns

  struct Apply {
    ProcId proc;
    std::int64_t t = 0;
    std::int64_t wait_ns = -1;   // -1: no causal wait recorded
    bool at_issue = false;       // writer's own replica, live feed only
  };
  struct PairOut {
    ProcId proc;
    std::int64_t t = 0;
    std::uint64_t link = 0;
  };
  struct PairIn {
    ProcId proc;
    std::int64_t t = 0;
    std::int64_t hop_ns = -1;    // -1: not recorded (mesh link)
    std::int64_t prop_ns = -1;   // -1: not recorded (mesh link)
  };
  std::vector<Apply> applies;
  std::vector<PairOut> pair_outs;
  std::vector<PairIn> pair_ins;

  /// Last time the write was observed anywhere (delivered applies, hops,
  /// issue).
  std::int64_t completion_t() const;
};

class SpanIndex final : public mcs::MemoryObserver {
 public:
  // ---- live feed (mcs::MemoryObserver) -------------------------------------
  void on_write_issued(ProcId writer, VarId var, Value value, WriteId wid,
                       sim::Time t) override;
  void on_apply(ProcId replica, VarId var, Value value, WriteId wid,
                bool at_issue, sim::Time t) override;

  // ---- offline feed --------------------------------------------------------
  /// Feed one event read back from JSONL.
  void observe(const ParsedTraceEvent& ev);
  void index(const std::vector<ParsedTraceEvent>& events);

  const WriteSpan* span(WriteId wid) const;
  /// Write ids in first-seen order.
  const std::vector<WriteId>& wids() const { return order_; }
  std::size_t size() const { return order_.size(); }

  // ---- visibility (the paper's `l`; see the header comment) ---------------
  /// First time `replica` applied `wid`; nullopt if it never did.
  std::optional<sim::Time> apply_time(WriteId wid, ProcId replica) const;
  /// Latency until `wid` was visible at all `targets`; nullopt if its issue
  /// at the origin was not observed or some target never applied it.
  std::optional<sim::Duration> visibility(
      WriteId wid, const std::vector<ProcId>& targets) const;
  /// Worst visibility latency over all writes issued at their origin;
  /// nullopt if any never became visible everywhere (a liveness failure) or
  /// none was issued.
  std::optional<sim::Duration> worst_visibility(
      const std::vector<ProcId>& targets) const;
  /// Visibility latency of every write issued at its origin that reached
  /// every target, in first-seen order.
  std::vector<sim::Duration> all_visibilities(
      const std::vector<ProcId>& targets) const;

  /// Per-stage latency sample sets (see the header comment for stage
  /// definitions). Feed each vector to stats::summarize for percentiles.
  struct StageBreakdown {
    std::vector<sim::Duration> origin_apply;
    std::vector<sim::Duration> fanout_intra;
    std::vector<sim::Duration> causal_wait;
    std::vector<sim::Duration> is_hop;
    std::vector<sim::Duration> remote_apply;
    std::vector<sim::Duration> propagation;
  };
  StageBreakdown stages() const;

  /// One JSON object per write (the `cim_trace spans` output), in
  /// first-seen order.
  void write_spans_jsonl(std::ostream& os) const;

 private:
  WriteSpan& span_for(WriteId wid);
  void on_write_issue(std::int64_t t, ProcId proc, WriteId wid, VarId var,
                      Value value);
  void on_write_done(std::int64_t t, ProcId proc, WriteId wid);
  void on_update_applied(std::int64_t t, ProcId proc, WriteId wid,
                         std::int64_t wait_ns);
  void on_pair_out(std::int64_t t, ProcId proc, WriteId wid,
                   std::uint64_t link);
  void on_pair_in(std::int64_t t, ProcId proc, WriteId wid,
                  std::int64_t hop_ns, std::int64_t prop_ns);

  std::unordered_map<WriteId, std::size_t> by_wid_;
  std::vector<WriteSpan> spans_;
  std::vector<WriteId> order_;
};

}  // namespace cim::obs
