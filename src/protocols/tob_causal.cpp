#include "protocols/tob_causal.h"

#include <memory>

namespace cim::proto {

void TobCausalProcess::do_write(VarId var, Value value, WriteId wid,
                                mcs::WriteCallback cb) {
  note_update_issued(var, value, wid);
  if (has_upcall_handler()) {
    // IS-process host: keep the replica in pure sequence order so upcall
    // reads always return the value being applied (condition (c)).
    publish(var, value, wid, /*pre_applied=*/false);
  } else {
    apply_at_issue(var, value, wid);
    publish(var, value, wid, /*pre_applied=*/true);
  }
  cb();  // writes acknowledge immediately in this protocol
}

void TobCausalProcess::apply_delivery(const TobDeliver& del, bool own) {
  if (own && del.pre_applied) {
    // Already applied at issue time; re-applying here could roll the
    // variable back past values this process has exposed since.
    ++own_skipped_;
    next_delivery();
    return;
  }
  apply_sequenced(del, own, [this]() { next_delivery(); });
}

mcs::ProtocolFactory tob_causal_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<TobCausalProcess>(ctx);
  };
}

}  // namespace cim::proto
