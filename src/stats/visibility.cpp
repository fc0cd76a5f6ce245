#include "stats/visibility.h"

#include <algorithm>

namespace cim::stats {

void VisibilityTracker::on_write_issued(ProcId writer, VarId, Value value,
                                        WriteId, sim::Time t) {
  issues_.emplace(value, Issue{writer, t});
}

void VisibilityTracker::on_apply(ProcId replica, VarId, Value value, WriteId,
                                 bool, sim::Time t) {
  auto& per_replica = applies_[value];
  per_replica.try_emplace(replica, t);  // keep the first application
}

std::optional<sim::Time> VisibilityTracker::issue_time(Value value) const {
  auto it = issues_.find(value);
  if (it == issues_.end()) return std::nullopt;
  return it->second.time;
}

std::optional<sim::Time> VisibilityTracker::apply_time(Value value,
                                                       ProcId replica) const {
  auto it = applies_.find(value);
  if (it == applies_.end()) return std::nullopt;
  auto jt = it->second.find(replica);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::optional<sim::Duration> VisibilityTracker::visibility(
    Value value, const std::vector<ProcId>& targets) const {
  auto issued = issue_time(value);
  if (!issued) return std::nullopt;
  sim::Time latest = *issued;
  for (ProcId target : targets) {
    auto applied = apply_time(value, target);
    if (!applied) return std::nullopt;
    latest = std::max(latest, *applied);
  }
  return latest - *issued;
}

std::optional<sim::Duration> VisibilityTracker::worst_visibility(
    const std::vector<ProcId>& targets) const {
  std::optional<sim::Duration> worst;
  for (const auto& [value, issue] : issues_) {
    auto vis = visibility(value, targets);
    if (!vis) return std::nullopt;
    if (!worst || *vis > *worst) worst = *vis;
  }
  return worst;
}

std::vector<sim::Duration> VisibilityTracker::all_visibilities(
    const std::vector<ProcId>& targets) const {
  std::vector<sim::Duration> out;
  for (const auto& [value, issue] : issues_) {
    auto vis = visibility(value, targets);
    if (vis) out.push_back(*vis);
  }
  return out;
}

}  // namespace cim::stats
