#include "checker/search_checker.h"

#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cim::chk {

namespace {

// A scheduling problem: find an order of `ops` (indices into a local array)
// that places every op after all ops in its predecessor mask and in which
// every read is *legal* when placed: it returns the value of the most
// recently placed write to its variable, or the initial value if no write to
// it has been placed.
struct Problem {
  std::vector<Op> ops;               // local operations, at most 64
  std::vector<std::uint64_t> preds;  // preds[i]: ops that must precede i
  std::uint64_t budget = 0;          // remaining node budget
};

struct SearchState {
  std::uint64_t scheduled = 0;                  // bitmask over <=64 ops
  std::map<VarId, std::size_t> last_write;      // var -> local op index

  bool operator==(const SearchState&) const = default;
};

// Buckets the memo of failed states; equality on the full state keeps the
// memo exact, so a hash collision costs a comparison, never a wrong prune.
struct StateHash {
  std::size_t operator()(const SearchState& s) const {
    std::uint64_t h = s.scheduled * 0x9E3779B97F4A7C15ULL;
    for (const auto& [var, idx] : s.last_write) {
      h ^= (static_cast<std::uint64_t>(var.value) + 1) * 0xBF58476D1CE4E5B9ULL +
           idx * 0x94D049BB133111EBULL + (h << 7) + (h >> 3);
    }
    return static_cast<std::size_t>(h);
  }
};

// Depth-first search for a legal linear extension. Returns true/false, or
// nullopt if the budget is exhausted.
std::optional<bool> solve(Problem& p) {
  const std::size_t n = p.ops.size();
  if (n > 64) return std::nullopt;
  if (n == 0) return true;

  // States from which no legal completion exists.
  std::unordered_set<SearchState, StateHash> failed;

  struct Frame {
    SearchState state;
    std::vector<std::size_t> candidates;
    std::size_t next = 0;
  };

  auto candidates_of = [&](const SearchState& s) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bit = 1ULL << i;
      if (s.scheduled & bit) continue;
      if ((p.preds[i] & ~s.scheduled) != 0) continue;  // unscheduled preds
      if (p.ops[i].kind == OpKind::kRead) {
        auto it = s.last_write.find(p.ops[i].var);
        if (it == s.last_write.end()) {
          if (p.ops[i].value != kInitValue) continue;  // init read only
        } else if (p.ops[it->second].value != p.ops[i].value) {
          continue;  // would read a stale/overwritten value
        }
      }
      out.push_back(i);
    }
    return out;
  };

  std::vector<Frame> stack;
  stack.push_back(Frame{SearchState{}, candidates_of(SearchState{}), 0});

  const std::uint64_t all = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.state.scheduled == all) return true;
    if (f.next >= f.candidates.size()) {
      failed.insert(std::move(f.state));
      stack.pop_back();
      continue;
    }
    if (p.budget-- == 0) return std::nullopt;
    const std::size_t pick = f.candidates[f.next++];
    SearchState next = f.state;
    next.scheduled |= 1ULL << pick;
    if (p.ops[pick].kind == OpKind::kWrite) {
      next.last_write[p.ops[pick].var] = pick;
    }
    if (failed.count(next)) continue;
    auto cands = candidates_of(next);
    stack.push_back(Frame{std::move(next), std::move(cands), 0});
  }
  return false;
}

std::vector<Op> materialize(const History& h) {
  std::vector<Op> ops;
  ops.reserve(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) ops.push_back(h.op(i));
  return ops;
}

// Decide causality of `ops` — `h`'s operations, in `h`'s order, with values
// renamed so every (var, value) has at most one writer. The causal order
// co = (po ∪ rf)+ is derived here from the definitions, sharing no code with
// CausalChecker: rf links each read to the unique writer of its value, a
// Kahn pass rejects a cyclic co, and reachability rows filled in reverse
// topological order give each process's view its precedence masks.
std::optional<bool> is_causal_distinct(const History& h,
                                       const std::vector<Op>& ops,
                                       std::uint64_t node_budget) {
  const std::size_t n = ops.size();
  std::map<std::pair<VarId, Value>, std::size_t> writer;
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].kind == OpKind::kWrite) writer[{ops[i].var, ops[i].value}] = i;
  }

  // Direct successors under po ∪ rf.
  std::vector<std::vector<std::size_t>> succ(n);
  for (std::size_t pi = 0; pi < h.num_processes(); ++pi) {
    const History::Span s = h.process_span(pi);
    for (std::size_t i = s.begin; i + 1 < s.end; ++i) succ[i].push_back(i + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].kind != OpKind::kRead || ops[i].value == kInitValue) continue;
    auto it = writer.find({ops[i].var, ops[i].value});
    if (it == writer.end()) return false;  // thin-air read
    succ[it->second].push_back(i);
  }

  std::vector<std::size_t> indegree(n, 0);
  for (const auto& out : succ) {
    for (std::size_t j : out) ++indegree[j];
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) order.push_back(i);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (std::size_t j : succ[order[k]]) {
      if (--indegree[j] == 0) order.push_back(j);
    }
  }
  if (order.size() < n) return false;  // co is cyclic

  // reach[i]: bit j set iff i co-precedes j.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint64_t* row = &reach[*it * words];
    for (std::size_t j : succ[*it]) {
      row[j >> 6] |= 1ULL << (j & 63);
      for (std::size_t w = 0; w < words; ++w) row[w] |= reach[j * words + w];
    }
  }
  auto precedes = [&](std::size_t a, std::size_t b) {
    return (reach[a * words + (b >> 6)] >> (b & 63)) & 1;
  };

  for (ProcId proc : h.processes()) {
    // α_i: all writes plus this process's reads, with co restricted.
    std::vector<std::size_t> view;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops[i].kind == OpKind::kWrite || ops[i].proc == proc) {
        view.push_back(i);
      }
    }
    if (view.size() > 64) return std::nullopt;

    Problem p;
    p.budget = node_budget;
    for (std::size_t a = 0; a < view.size(); ++a) {
      p.ops.push_back(ops[view[a]]);
      std::uint64_t mask = 0;
      for (std::size_t b = 0; b < view.size(); ++b) {
        if (precedes(view[b], view[a])) mask |= 1ULL << b;
      }
      p.preds.push_back(mask);
    }
    std::optional<bool> result = solve(p);
    if (!result) return std::nullopt;  // budget exceeded
    if (!*result) return false;        // no causal view for this process
  }
  return true;
}

}  // namespace

std::optional<bool> SearchChecker::is_causal(const History& history,
                                             std::uint64_t node_budget) const {
  // Repeated values make reads-from a relation, not a function. The
  // definition quantifies existentially over admissible assignments, so we
  // enumerate them: bind every read of value v to one write of (var, v)
  // (reads of the initial value may also bind to ⊥), *rename* the written
  // values to the writer's index so each assignment becomes a distinct-value
  // history with the same legality structure, and accept iff some renamed
  // history is causal. This is the semantics the sparse CausalChecker's
  // residual-constraint phase implements; here it is decided by brute force.
  std::vector<Op> ops = materialize(history);

  std::map<std::pair<VarId, Value>, std::vector<std::size_t>> writers;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kWrite) {
      writers[{ops[i].var, ops[i].value}].push_back(i);
    }
  }

  constexpr std::size_t kInitChoice = SIZE_MAX;
  struct Choice {
    std::size_t read;
    std::vector<std::size_t> cands;  // writer indices; kInitChoice for ⊥
  };
  std::vector<Choice> choices;
  std::vector<std::size_t> fixed(ops.size(), kInitChoice);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kRead) continue;
    auto it = writers.find({ops[i].var, ops[i].value});
    const bool is_init = ops[i].value == kInitValue;
    if (it == writers.end()) {
      if (!is_init) return false;  // thin-air read: no legal view exists
      continue;                    // unambiguous ⊥
    }
    if (it->second.size() == 1 && !is_init) {
      fixed[i] = it->second[0];
      continue;
    }
    Choice c{i, it->second};
    if (is_init) c.cands.push_back(kInitChoice);
    choices.push_back(std::move(c));
  }

  // Cap the assignment space; histories this checker sees are small, so a
  // blowup means the caller should not trust a brute-force answer anyway.
  std::size_t total = 1;
  for (const Choice& c : choices) {
    if (total > 4096 / c.cands.size()) return std::nullopt;
    total *= c.cands.size();
  }

  std::vector<std::size_t> pos(choices.size(), 0);
  while (true) {
    // Rename under the current assignment: write i gets value i+1, each
    // read gets its writer's renamed value (kInitValue for ⊥).
    std::vector<Op> renamed = ops;
    for (std::size_t i = 0; i < renamed.size(); ++i) {
      if (renamed[i].kind == OpKind::kWrite) {
        renamed[i].value = static_cast<Value>(i + 1);
      } else if (fixed[i] != kInitChoice) {
        renamed[i].value = static_cast<Value>(fixed[i] + 1);
      }
      // Unambiguous ⊥ reads keep kInitValue; ambiguous reads are set below.
    }
    for (std::size_t k = 0; k < choices.size(); ++k) {
      const std::size_t w = choices[k].cands[pos[k]];
      renamed[choices[k].read].value =
          w == kInitChoice ? kInitValue : static_cast<Value>(w + 1);
    }
    std::optional<bool> r = is_causal_distinct(history, renamed, node_budget);
    if (!r) return std::nullopt;
    if (*r) return true;
    // Next assignment.
    std::size_t k = 0;
    for (; k < pos.size(); ++k) {
      if (++pos[k] < choices[k].cands.size()) break;
      pos[k] = 0;
    }
    if (k == pos.size()) return false;  // all assignments exhausted
  }
}

std::optional<bool> SearchChecker::is_sequential(
    const History& history, std::uint64_t node_budget) const {
  // Legality in solve() is value-based, so repeated values need no special
  // handling here: a read may legally follow any write of its value.
  const std::vector<Op> ops = materialize(history);
  if (ops.size() > 64) return std::nullopt;

  Problem p;
  p.budget = node_budget;
  p.ops = ops;
  p.preds.assign(ops.size(), 0);
  for (std::size_t pi = 0; pi < history.num_processes(); ++pi) {
    const History::Span s = history.process_span(pi);
    for (std::size_t i = s.begin + 1; i < s.end; ++i) {
      p.preds[i] = 1ULL << (i - 1);
    }
  }
  return solve(p);
}

}  // namespace cim::chk
