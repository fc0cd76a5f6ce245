#include "checker/causal_checker.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checker/graph.h"

namespace cim::chk {

const char* to_string(BadPattern p) {
  switch (p) {
    case BadPattern::kNone: return "none";
    case BadPattern::kCyclicCO: return "CyclicCO";
    case BadPattern::kThinAirRead: return "ThinAirRead";
    case BadPattern::kWriteCOInitRead: return "WriteCOInitRead";
    case BadPattern::kWriteCORead: return "WriteCORead";
    case BadPattern::kCyclicHB: return "CyclicHB";
    case BadPattern::kWriteHBInitRead: return "WriteHBInitRead";
    case BadPattern::kCyclicCF: return "CyclicCF";
    case BadPattern::kResidualLimit: return "ResidualLimit";
  }
  return "?";
}

namespace {

// rf source markers (per-read): a concrete write index, or one of these.
constexpr std::uint32_t kInitSrc = 0xFFFFFFFFu;   // reads the initial value
constexpr std::uint32_t kAmbiguous = 0xFFFFFFFEu; // >1 admissible writer

std::string describe(const History& h, std::size_t i) {
  return h.op(i).to_string();
}

/// Writes per (variable, process), ascending program order — CSR over the
/// flat (var_dense * P + proc_dense) key. Gives the pattern scans their two
/// O(log) primitives: the first write of a variable on a process, and the
/// latest one visible inside a vector-clock frontier.
struct VarProcWrites {
  std::vector<std::uint32_t> off;  // size V*P + 1
  std::vector<std::uint32_t> idx;  // write op indices
  std::size_t P = 0;

  void build(const History& h, const SparseGraph& g) {
    P = h.num_processes();
    const std::size_t buckets = h.num_vars() * P;
    off.assign(buckets + 1, 0);
    std::size_t writes = 0;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (!h.is_write(i)) continue;
      ++off[h.var_dense(i) * P + g.proc_of(i) + 1];
      ++writes;
    }
    for (std::size_t b = 1; b <= buckets; ++b) off[b] += off[b - 1];
    idx.resize(writes);
    std::vector<std::uint32_t> cur(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (!h.is_write(i)) continue;
      idx[cur[h.var_dense(i) * P + g.proc_of(i)]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  std::pair<const std::uint32_t*, const std::uint32_t*> span(
      std::uint32_t var, std::uint32_t proc) const {
    const std::size_t b = static_cast<std::size_t>(var) * P + proc;
    return {idx.data() + off[b], idx.data() + off[b + 1]};
  }

  /// Latest write on (var, proc) whose program-order position is inside the
  /// clock frontier `upto` (1-based, inclusive); kInitSrc when none.
  std::uint32_t latest_within(const SparseGraph& g, std::uint32_t var,
                              std::uint32_t proc, std::uint32_t upto) const {
    auto [b, e] = span(var, proc);
    if (b == e || g.seq1(*b) > upto) return kInitSrc;
    // Binary search: last write with seq1 <= upto.
    std::size_t lo = 0, hi = static_cast<std::size_t>(e - b) - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      if (g.seq1(b[mid]) <= upto) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return b[lo];
  }
};

struct AmbRead {
  std::uint32_t read = 0;
  // Candidate sources in preference order; kInitSrc encodes the ⊥ choice
  // (admissible only for reads of the initial value).
  std::vector<std::uint32_t> cands;
};

/// Shared state of one check: the graph, the write index, and the reads-from
/// resolution (unambiguous sources plus the residual ambiguous reads).
struct Engine {
  const History& h;
  SparseGraph g;
  VarProcWrites wvp;
  std::vector<std::uint32_t> rf;   // per op: write idx / kInitSrc / kAmbiguous
  std::vector<AmbRead> amb;
  std::vector<Edge> base_edges;    // rf edges of unambiguously resolved reads
  CheckResult fail;                // resolution failure (definite)
  CheckStats stats;

  // Scratch reused across evaluate() passes.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> clk;

  explicit Engine(const History& history) : h(history), g(history) {
    wvp.build(h, g);
    resolve();
    stats.ops = h.size();
    stats.ambiguous_reads = amb.size();
  }

  void resolve() {
    const std::size_t n = h.size();
    rf.assign(n, kInitSrc);
    // Writers of each (var, value) pair, ascending op index. Under the
    // paper's distinct-value assumption every bucket has one entry; repeated
    // values make buckets — and the reads over them — ambiguous.
    struct Key {
      std::uint32_t var;
      Value value;
      bool operator==(const Key&) const = default;
    };
    struct KeyHash {
      std::size_t operator()(const Key& k) const {
        std::uint64_t x = (static_cast<std::uint64_t>(k.var) + 1) *
                          0x9E3779B97F4A7C15ULL;
        x ^= static_cast<std::uint64_t>(k.value) * 0xBF58476D1CE4E5B9ULL;
        return static_cast<std::size_t>(x ^ (x >> 29));
      }
    };
    std::unordered_map<Key, std::vector<std::uint32_t>, KeyHash> writers;
    for (std::size_t i = 0; i < n; ++i) {
      if (h.is_write(i)) {
        writers[Key{h.var_dense(i), h.value(i)}].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (h.is_write(i)) continue;
      const Value v = h.value(i);
      auto it = writers.find(Key{h.var_dense(i), v});
      const bool is_init = v == kInitValue;
      if (it == writers.end() || it->second.empty()) {
        if (!is_init) {
          fail = {BadPattern::kThinAirRead,
                  "read of a never-written value: " + describe(h, i)};
          return;
        }
        rf[i] = kInitSrc;  // unambiguous ⊥
        continue;
      }
      if (it->second.size() == 1 && !is_init) {
        rf[i] = it->second[0];
        base_edges.push_back(
            {it->second[0], static_cast<std::uint32_t>(i)});
        continue;
      }
      // Repeated value — or an initial-value read while writes of the
      // initial value exist (⊥ stays admissible alongside them).
      rf[i] = kAmbiguous;
      AmbRead a;
      a.read = static_cast<std::uint32_t>(i);
      a.cands = it->second;
      if (is_init) a.cands.push_back(kInitSrc);
      amb.push_back(std::move(a));
    }
  }

  /// Full bad-pattern pass over po ∪ rf_edges with per-read sources `src`
  /// (entries equal to kAmbiguous are skipped — phase A runs with the
  /// ambiguous reads unconstrained, which only under-approximates co, so any
  /// violation it finds is definite under every assignment).
  CheckResult evaluate(const std::vector<std::uint32_t>& src,
                       const std::vector<Edge>& rf_edges, Level level) {
    const std::size_t n = h.size();
    const std::size_t P = h.num_processes();
    g.set_edges(rf_edges);
    stats.explicit_edges = std::max(stats.explicit_edges, rf_edges.size());
    std::pair<std::uint32_t, std::uint32_t> wit;
    if (!g.topo_order(order, &wit)) {
      return {BadPattern::kCyclicCO,
              "causal-order cycle through " + describe(h, wit.first) +
                  " and " + describe(h, wit.second)};
    }
    g.clocks(order, clk);

    // WriteCOInitRead and WriteCORead over the clock frontiers.
    for (std::size_t r = 0; r < n; ++r) {
      if (h.is_write(r) || src[r] == kAmbiguous) continue;
      const std::uint32_t var = h.var_dense(r);
      const std::uint32_t* row = clk.data() + r * P;
      const std::uint32_t w1 = src[r];
      for (std::uint32_t p = 0; p < P; ++p) {
        if (w1 == kInitSrc) {
          auto [b, e] = wvp.span(var, p);
          if (b != e && g.seq1(*b) <= row[p]) {
            return {BadPattern::kWriteCOInitRead,
                    describe(h, r) + " returns the initial value but " +
                        describe(h, *b) + " is causally before it"};
          }
        } else {
          const std::uint32_t w2 = wvp.latest_within(g, var, p, row[p]);
          if (w2 != kInitSrc && w2 != w1 && g.reaches(clk, w1, w2)) {
            return {BadPattern::kWriteCORead,
                    describe(h, r) + " reads " + describe(h, w1) +
                        " although " + describe(h, w2) +
                        " causally overwrote it"};
          }
        }
      }
    }
    if (level == Level::kCC) return {};

    if (level == Level::kCCv) {
      // Causal convergence: the conflict relation cf (w1 -> w2 when some
      // read of w2 has w1 on the same variable causally before it) together
      // with co must be acyclic. Only the latest co-visible write per
      // process matters: earlier ones reach it by program order.
      std::vector<Edge> with_cf = rf_edges;
      for (std::size_t r = 0; r < n; ++r) {
        if (h.is_write(r) || src[r] == kAmbiguous || src[r] == kInitSrc) {
          continue;
        }
        const std::uint32_t var = h.var_dense(r);
        const std::uint32_t* row = clk.data() + r * P;
        for (std::uint32_t p = 0; p < P; ++p) {
          const std::uint32_t w1 = wvp.latest_within(g, var, p, row[p]);
          if (w1 != kInitSrc && w1 != src[r]) with_cf.push_back({w1, src[r]});
        }
      }
      g.set_edges(with_cf);
      stats.explicit_edges = std::max(stats.explicit_edges, with_cf.size());
      if (!g.topo_order(order, &wit)) {
        return {BadPattern::kCyclicCF,
                "no single arbitration of concurrent writes: cycle through " +
                    describe(h, wit.first) + " and " +
                    describe(h, wit.second)};
      }
      return {};
    }

    // kCM: per-process happens-before fixpoint. The graph of HB_i is the
    // full known graph (operations outside the scope writes ∪ reads_i stay
    // as reachability conduits, which equals the old restrict-after-closure)
    // plus the derived edges of process i only.
    //
    // The derivation scan reads only seq1 and the clock matrix — never the
    // graph's edge lists — so the first round of every process reuses the
    // rf-graph clocks computed above instead of rebuilding them: a process
    // whose scan derives nothing costs no extra topo/clock pass at all.
    const std::vector<std::uint32_t> rf_clk = clk;
    std::vector<Edge> derived;
    std::vector<Edge> all;
    for (std::size_t pi = 0; pi < P; ++pi) {
      const History::Span sp = h.process_span(pi);
      bool has_reads = false;
      for (std::size_t r = sp.begin; r < sp.end && !has_reads; ++r) {
        has_reads = !h.is_write(r);
      }
      if (!has_reads) continue;  // HB_i adds nothing over co, already clean

      derived.clear();
      const std::vector<std::uint32_t>* cur = &rf_clk;
      while (true) {
        // Derivation rule: r ∈ reads_i(x) reads from w2, w1 writes x with
        // (w1, r) ∈ HB_i ⇒ (w1, w2) ∈ HB_i. The latest HB-visible write
        // per process subsumes the earlier ones (they reach it by po).
        bool changed = false;
        for (std::size_t r = sp.begin; r < sp.end; ++r) {
          if (h.is_write(r)) continue;
          const std::uint32_t w2 = src[r];
          if (w2 == kInitSrc || w2 == kAmbiguous) continue;
          const std::uint32_t var = h.var_dense(r);
          const std::uint32_t* row = cur->data() + r * P;
          for (std::uint32_t p = 0; p < P; ++p) {
            const std::uint32_t w1 = wvp.latest_within(g, var, p, row[p]);
            if (w1 == kInitSrc || w1 == w2) continue;
            if (!g.reaches(*cur, w1, w2)) {
              derived.push_back({w1, w2});
              changed = true;
            }
          }
        }
        if (!changed) break;
        all = rf_edges;
        all.insert(all.end(), derived.begin(), derived.end());
        g.set_edges(all);
        stats.explicit_edges = std::max(stats.explicit_edges, all.size());
        if (!g.topo_order(order, &wit)) {
          return {BadPattern::kCyclicHB,
                  "happens-before cycle for " +
                      cim::to_string(h.process(pi)) + " through " +
                      describe(h, wit.first) + " and " +
                      describe(h, wit.second)};
        }
        g.clocks(order, clk);
        cur = &clk;
      }

      // WriteHBInitRead and the HB flavor of WriteCORead, for this process.
      for (std::size_t r = sp.begin; r < sp.end; ++r) {
        if (h.is_write(r)) continue;
        const std::uint32_t w1 = src[r];
        if (w1 == kAmbiguous) continue;
        const std::uint32_t var = h.var_dense(r);
        const std::uint32_t* row = cur->data() + r * P;
        for (std::uint32_t p = 0; p < P; ++p) {
          if (w1 == kInitSrc) {
            auto [b, e] = wvp.span(var, p);
            if (b != e && g.seq1(*b) <= row[p]) {
              return {BadPattern::kWriteHBInitRead,
                      describe(h, r) + " returns the initial value but, for " +
                          cim::to_string(h.process(pi)) + ", " +
                          describe(h, *b) + " happens before it"};
            }
          } else {
            const std::uint32_t w2 = wvp.latest_within(g, var, p, row[p]);
            if (w2 != kInitSrc && w2 != w1 && g.reaches(*cur, w1, w2)) {
              return {BadPattern::kWriteCORead,
                      describe(h, r) + " reads " + describe(h, w1) +
                          " although " + describe(h, w2) +
                          " overwrote it in happens-before of " +
                          cim::to_string(h.process(pi))};
            }
          }
        }
      }
    }
    return {};
  }
};

}  // namespace

CheckResult CausalChecker::check(const History& history, Level level) const {
  Engine e(history);
  if (!e.fail.ok()) {
    e.fail.stats = e.stats;
    return e.fail;
  }

  // Phase A: the known-edge pass. Ambiguous reads contribute no edges and
  // are skipped by the scans, so co here under-approximates co under every
  // admissible assignment — failures are definite, and when the history has
  // no ambiguity (the paper's distinct-value regime) this is the whole
  // check.
  CheckResult res = e.evaluate(e.rf, e.base_edges, level);
  if (!res.ok() || e.amb.empty()) {
    res.stats = e.stats;
    return res;
  }

  // Phase B: residual constraints. Recompute the known-graph clocks, prune
  // each candidate set, and backtrack over what is left.
  e.g.set_edges(e.base_edges);
  e.g.topo_order(e.order, nullptr);
  e.g.clocks(e.order, e.clk);
  const std::vector<std::uint32_t> base_clk = e.clk;
  for (AmbRead& a : e.amb) {
    std::vector<std::uint32_t> visible, rest;
    bool allow_init = false;
    for (const std::uint32_t w : a.cands) {
      if (w == kInitSrc) {
        allow_init = true;
        continue;
      }
      // A writer causally after the read would force a cycle under every
      // extension of the known graph: prune.
      if (e.g.reaches(base_clk, a.read, w)) continue;
      (e.g.reaches(base_clk, w, a.read) ? visible : rest).push_back(w);
    }
    // Prefer the latest already-visible writer (the assignment a real store
    // would have produced), then ⊥ for initial-value reads, then the
    // concurrent writers.
    std::sort(visible.begin(), visible.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return e.g.seq1(x) > e.g.seq1(y);
              });
    a.cands = std::move(visible);
    if (allow_init) a.cands.push_back(kInitSrc);
    a.cands.insert(a.cands.end(), rest.begin(), rest.end());
    if (a.cands.empty()) {
      CheckResult r{BadPattern::kCyclicCO,
                    describe(history, a.read) +
                        ": every admissible writer of its value is causally "
                        "after the read"};
      r.stats = e.stats;
      return r;
    }
  }

  // Depth-first enumeration of complete assignments, budgeted.
  std::vector<std::uint32_t> src = e.rf;
  std::vector<Edge> edges = e.base_edges;
  CheckResult first_fail;
  bool exhausted = false;

  // Iterative odometer over candidate positions.
  std::vector<std::size_t> pos(e.amb.size(), 0);
  while (true) {
    if (e.stats.assignments_tried >= options_.residual_budget) {
      exhausted = true;
      break;
    }
    edges.resize(e.base_edges.size());
    for (std::size_t k = 0; k < e.amb.size(); ++k) {
      const std::uint32_t w = e.amb[k].cands[pos[k]];
      src[e.amb[k].read] = w;
      if (w != kInitSrc) edges.push_back({w, e.amb[k].read});
    }
    ++e.stats.assignments_tried;
    CheckResult attempt = e.evaluate(src, edges, level);
    if (attempt.ok()) {
      attempt.stats = e.stats;
      return attempt;
    }
    if (first_fail.ok()) first_fail = std::move(attempt);
    // Advance the odometer.
    std::size_t k = 0;
    for (; k < pos.size(); ++k) {
      if (++pos[k] < e.amb[k].cands.size()) break;
      pos[k] = 0;
    }
    if (k == pos.size()) break;  // every assignment evaluated
  }

  if (exhausted) {
    CheckResult r{BadPattern::kResidualLimit,
                  "residual constraint search exceeded " +
                      std::to_string(options_.residual_budget) +
                      " reads-from assignments over " +
                      std::to_string(e.amb.size()) +
                      " ambiguous reads; verdict unknown"};
    r.stats = e.stats;
    return r;
  }
  first_fail.detail +=
      " [no admissible reads-from assignment avoids a bad pattern; " +
      std::to_string(e.stats.assignments_tried) + " tried]";
  first_fail.stats = e.stats;
  return first_fail;
}

}  // namespace cim::chk
