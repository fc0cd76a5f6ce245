// Online causal-consistency monitor: a bounded-memory streaming consumer of
// the write lifecycle that flags consistency violations *while the run is
// still executing* — unlike the offline checkers (causal_checker.h,
// search_checker.h), which need the complete history afterwards.
//
// The monitor is an mcs::MemoryObserver: a Federation registers it on its
// observer stream, so it runs whether or not tracing is on. It consumes
// three hooks, each carrying the originating WriteId where there is one:
// write issues, completed reads, and delivered applies (at-issue applies of
// the writer's own replica are skipped; they are not `update_applied`
// events). `cim_trace check` feeds the same rules offline from a JSONL
// trace's `write_issue`, `read_done` and `update_applied` events.
//
//   fifo_regress — per-writer FIFO application order. A replica applied
//     write #s of some origin after already applying #s' > s from the same
//     origin, with virtual time elapsed in between. Program order is part
//     of causal order, so an *observable* inversion violates causality.
//     Two benign shapes are excluded: re-applying the same seq (the AW-seq
//     protocol pre-applies its own writes and re-applies them at their
//     total-order position), and inversions at one virtual instant (the
//     lazy-batch protocol applies a whole batch atomically — scrambled
//     inside, but no read can interleave, which is exactly why a single
//     lazy-batch system stays causal even though it lacks Causal Updating).
//   read_regress — per-variable read monotonicity. Two consecutive reads of
//     a variable by one process returned writes of the same origin with
//     decreasing sequence numbers: the process travelled back in time.
//   stale_read — writes-into order (the paper's Section 5 counterexample).
//     A process that has observed write #k of origin o (by reading any of
//     o's values, or by being o) reads a variable x and gets a value
//     causally *older* than o's latest write to x among #1..#k — either the
//     initial value, or an overwritten same-origin write. The Claim 4
//     history (w(x)1 · w(y)2 at p, then r(y)2 · r(x)0 elsewhere) is exactly
//     this.
//
// Detection is a sound under-approximation: sequence-number knowledge is
// propagated only by direct reads (no transitive closure through third
// processes), so every reported violation is real, but not every violation
// is reported. Values are assumed unique per execution (the repo-wide
// workload convention) so a value identifies its write.
//
// Every violation is recorded, counted in the `checker.violations` metric
// and, when tracing is on, emitted as a `chk`/`violation` trace event right
// after the event that caused it. All state is bounded by the k* caps
// below; when a cap is hit the oldest entries are forgotten (reducing
// detection power, never soundness).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "mcs/memory_observer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_read.h"

namespace cim::chk {

/// FederationConfig::monitor: register an OnlineMonitor on the federation's
/// observer stream.
struct MonitorOptions {
  bool enabled = false;
};

struct Violation {
  const char* kind = nullptr;  // "fifo_regress" | "read_regress" | "stale_read"
  std::int64_t t = 0;          // virtual time of the offending event, ns
  ProcId proc;                 // process at which the violation surfaced
  VarId var;
  WriteId wid;                 // offending write (invalid for init reads)
  std::uint32_t expected_seq = 0;  // newest same-origin seq the proc knew
  std::uint32_t got_seq = 0;       // seq actually observed (0 = init)
};

class OnlineMonitor final : public mcs::MemoryObserver {
 public:
  /// Either pointer may be null (offline use: feed observe() directly).
  explicit OnlineMonitor(obs::TraceSink* sink = nullptr,
                         obs::MetricsRegistry* metrics = nullptr);

  // ---- live feed (mcs::MemoryObserver) -------------------------------------
  void on_write_issued(ProcId writer, VarId var, Value value, WriteId wid,
                       sim::Time t) override;
  void on_read_done(ProcId reader, VarId var, Value value,
                    sim::Time t) override;
  void on_apply(ProcId replica, VarId var, Value value, WriteId wid,
                bool at_issue, sim::Time t) override;

  /// Offline feed: one parsed trace event. Events other than the three
  /// lifecycle events above are ignored.
  void observe(const obs::ParsedTraceEvent& ev);

  /// Lifecycle events consumed (write issues, reads, delivered applies).
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t violation_count() const { return violation_count_; }
  /// Retained violation records, oldest first (capped at kMaxViolations;
  /// violation_count() keeps the true total).
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  static std::uint64_t key(std::uint32_t a, std::uint32_t b) {
    return (std::uint64_t(a) << 32) | b;
  }
  static std::uint32_t pack(ProcId p) {
    return (std::uint32_t(p.system.value) << 16) | p.index;
  }

  static constexpr std::size_t kMaxTrackedValues = 1 << 16;  // value -> wid
  static constexpr std::size_t kMaxWritesPerVar = 1 << 10;  // per (origin, var)
  static constexpr std::size_t kMaxViolations = 256;        // retained records

  void learn(ProcId proc, WriteId wid);
  void report(Violation v);

  obs::TraceSink* sink_ = nullptr;
  obs::Counter* m_violations_ = nullptr;

  // value -> (wid, var) for every write seen issued; FIFO-bounded.
  struct WriteInfo {
    WriteId wid;
    VarId var;
  };
  std::unordered_map<Value, WriteInfo> by_value_;
  std::deque<Value> by_value_order_;

  // (origin, var) -> ascending seqs of that origin's writes to var.
  std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> writes_;
  // proc -> origin -> highest seq of origin the proc has read or issued.
  // Keyed per reader so a read visits only the origins its reader knows,
  // in ascending origin order.
  std::unordered_map<std::uint32_t, std::map<std::uint32_t, std::uint32_t>>
      knows_;
  // (proc, var) -> write returned by the proc's last read of var.
  std::unordered_map<std::uint64_t, WriteId> last_read_;
  // (replica, origin) -> highest seq applied at the replica, and when.
  struct Applied {
    std::uint32_t seq = 0;
    std::int64_t t = 0;
  };
  std::unordered_map<std::uint64_t, Applied> applied_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace cim::chk
