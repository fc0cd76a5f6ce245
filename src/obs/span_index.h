// Per-write causal spans: reconstructing one write's propagation tree from a
// structured trace.
//
// Every v3 lifecycle event carries the originating write id, so grouping a
// trace by `wid` recovers, for each write: where it was issued, when each
// replica applied it (and how long it waited for causal dependencies), and
// every IS-link hop it took across the federation. The index consumes either
// live TraceEvent records (attach to a TraceSink ring) or ParsedTraceEvent
// records read back from JSONL (the cim_trace CLI), and derives the
// per-stage latency breakdown Section 6 of the paper reasons about:
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
// Bounded only by the trace itself: the ring buffer caps the number of
// events a run retains, so the index inherits that bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "obs/trace.h"
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
  };
  struct PairOut {
    ProcId proc;
    std::int64_t t = 0;
    std::uint64_t link = 0;
  };
  struct PairIn {
    ProcId proc;
    std::int64_t t = 0;
    std::int64_t hop_ns = 0;
    std::int64_t prop_ns = 0;
  };
  std::vector<Apply> applies;
  std::vector<PairOut> pair_outs;
  std::vector<PairIn> pair_ins;

  /// Last time the write was observed anywhere (applies/hops/issue).
  std::int64_t completion_t() const;
};

class SpanIndex {
 public:
  /// Feed one live event (e.g. from TraceSink::for_each).
  void observe(const TraceEvent& ev);
  /// Feed one event read back from JSONL.
  void observe(const ParsedTraceEvent& ev);

  /// Convenience: index everything buffered in `sink` / parsed from a file.
  void index(const TraceSink& sink);
  void index(const std::vector<ParsedTraceEvent>& events);

  const WriteSpan* span(WriteId wid) const;
  /// Write ids in first-seen order.
  const std::vector<WriteId>& wids() const { return order_; }
  std::size_t size() const { return order_.size(); }
  std::uint64_t events_seen() const { return events_seen_; }

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
  std::uint64_t events_seen_ = 0;
};

}  // namespace cim::obs
