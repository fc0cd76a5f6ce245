// Reference checkers that decide consistency *directly from the definitions*
// by backtracking search. Exponential in the worst case, so they take a node
// budget and are only practical for small histories; their role is
//
//  * cross-validating the polynomial bad-pattern CausalChecker (property
//    tests run both on random small histories and assert agreement), and
//  * deciding *sequential* consistency for experiment E9 (two sequentially
//    consistent systems interconnect into a causal but generally
//    non-sequential system).
//
// They share no code with CausalChecker: is_causal derives the causal order
// (po ∪ rf)+ itself, so agreement between the two is independent evidence.
#pragma once

#include <cstdint>
#include <optional>

#include "checker/history.h"

namespace cim::chk {

class SearchChecker {
 public:
  /// Decide Definition 4 directly: does every process have a causal view
  /// (legal permutation of all-writes + its reads preserving the causal
  /// order of the full computation)?
  ///
  /// Returns nullopt if the search exceeds `node_budget` expanded states or
  /// any per-process view involves more than 64 operations.
  std::optional<bool> is_causal(const History& history,
                                std::uint64_t node_budget = 2'000'000) const;

  /// Decide sequential consistency: is there one legal total order of all
  /// operations preserving every process's program order?
  std::optional<bool> is_sequential(const History& history,
                                    std::uint64_t node_budget = 2'000'000) const;
};

}  // namespace cim::chk
