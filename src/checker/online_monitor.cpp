#include "checker/online_monitor.h"

#include <algorithm>

namespace cim::chk {

OnlineMonitor::OnlineMonitor(obs::TraceSink* sink,
                             obs::MetricsRegistry* metrics)
    : sink_(sink),
      m_violations_(metrics != nullptr ? &metrics->counter("checker.violations")
                                       : nullptr) {}

void OnlineMonitor::observe(const obs::ParsedTraceEvent& ev) {
  const bool issue = ev.cat == "mcs" && ev.name == "write_issue";
  const bool read = ev.cat == "mcs" && ev.name == "read_done";
  const bool applied = ev.cat == "proto" && ev.name == "update_applied";
  ProcId proc{};
  if (!(issue || read || applied) || !ev.field_proc("proc", proc)) return;
  const VarId var{static_cast<std::uint32_t>(ev.field_int("var"))};
  const Value value = ev.field_int("val");
  const sim::Time t{ev.t};
  if (issue) {
    on_write_issued(proc, var, value, ev.wid(), t);
  } else if (read) {
    on_read_done(proc, var, value, t);
  } else {
    on_apply(proc, var, value, ev.wid(), /*at_issue=*/false, t);
  }
}

void OnlineMonitor::learn(ProcId proc, WriteId wid) {
  std::uint32_t& k = knows_[pack(proc)][pack(wid.origin())];
  k = std::max(k, wid.seq());
}

void OnlineMonitor::on_write_issued(ProcId proc, VarId var, Value value,
                                    WriteId wid, sim::Time) {
  ++events_seen_;
  if (!wid.valid()) return;
  // Record the write (idempotent: an IS-process re-issuing a foreign write
  // carries the same wid and value).
  if (by_value_.try_emplace(value, WriteInfo{wid, var}).second) {
    by_value_order_.push_back(value);
    while (by_value_order_.size() > kMaxTrackedValues) {
      by_value_.erase(by_value_order_.front());
      by_value_order_.pop_front();
    }
  }
  std::deque<std::uint32_t>& seqs = writes_[key(pack(wid.origin()), var.value)];
  if (seqs.empty() || seqs.back() < wid.seq()) {
    seqs.push_back(wid.seq());
    while (seqs.size() > kMaxWritesPerVar) seqs.pop_front();
  }
  // The origin knows its own writes; re-issues elsewhere teach nothing.
  if (proc == wid.origin()) learn(proc, wid);
}

void OnlineMonitor::on_read_done(ProcId proc, VarId var, Value value,
                                 sim::Time now) {
  ++events_seen_;
  const std::int64_t t = now.ns;
  const auto hit = by_value_.find(value);
  const WriteId got =
      hit != by_value_.end() ? hit->second.wid : WriteId{};  // invalid = init

  const std::uint64_t rk = key(pack(proc), var.value);
  const auto prev = last_read_.find(rk);
  if (prev != last_read_.end() && got.valid() &&
      prev->second.origin() == got.origin() &&
      got.seq() < prev->second.seq()) {
    report(Violation{"read_regress", t, proc, var, got, prev->second.seq(),
                     got.seq()});
  }
  last_read_[rk] = got;

  // Writes-into: the newest write to `var` among those the reader causally
  // knows is, for each origin o, the largest seq s* with (o wrote var at s*)
  // and s* <= knows_[proc][o]. Reading anything older than s* (the initial
  // value, or an overwritten write of the same origin) violates writes-into
  // order.
  for (const auto& [origin_packed, known_seq] : knows_[pack(proc)]) {
    const auto ws = writes_.find(key(origin_packed, var.value));
    if (ws == writes_.end()) continue;
    // seqs are ascending: find the largest <= known_seq.
    const std::deque<std::uint32_t>& seqs = ws->second;
    auto it = std::upper_bound(seqs.begin(), seqs.end(), known_seq);
    if (it == seqs.begin()) continue;
    const std::uint32_t star = *std::prev(it);
    const bool same_origin = got.valid() && pack(got.origin()) == origin_packed;
    const bool stale = !got.valid() || (same_origin && got.seq() < star);
    if (stale) {
      const ProcId origin{SystemId{std::uint16_t(origin_packed >> 16)},
                          std::uint16_t(origin_packed & 0xFFFF)};
      report(Violation{"stale_read", t, proc, var,
                       got.valid() ? got : WriteId::make(origin, star), star,
                       got.valid() ? got.seq() : 0});
    }
  }

  if (got.valid()) learn(proc, got);
}

void OnlineMonitor::on_apply(ProcId proc, VarId, Value, WriteId wid,
                             bool at_issue, sim::Time now) {
  // At-issue applies are not `update_applied` events; fed in, aw-seq's
  // re-application of an IS-process's pre-applied writes would read as a
  // FIFO regression.
  if (at_issue) return;
  ++events_seen_;
  if (!wid.valid()) return;
  const std::int64_t t = now.ns;
  Applied& last = applied_[key(pack(proc), pack(wid.origin()))];
  // Equal seq is benign (AW-seq re-applies pre-applied own writes); an
  // inversion at one virtual instant is benign too (atomic batch apply, no
  // read can observe the scrambled intermediate state).
  if (wid.seq() < last.seq && t > last.t) {
    report(
        Violation{"fifo_regress", t, proc, VarId{}, wid, last.seq, wid.seq()});
  }
  if (wid.seq() > last.seq) last = Applied{wid.seq(), t};
}

void OnlineMonitor::report(Violation v) {
  ++violation_count_;
  if (m_violations_ != nullptr) m_violations_->inc();
  if (sink_ != nullptr) {
    CIM_TRACE(sink_, sim::Time{v.t}, obs::TraceCategory::kChk, "violation",
              {{"kind", v.kind},
               {"proc", v.proc},
               {"var", v.var},
               {"wid", v.wid},
               {"expect", std::uint64_t{v.expected_seq}},
               {"got", std::uint64_t{v.got_seq}}});
  }
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(v);
  }
}

}  // namespace cim::chk
