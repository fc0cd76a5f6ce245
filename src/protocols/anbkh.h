// ANBKH causal memory protocol (Ahamad, Neiger, Burns, Kohli, Hutto,
// "Causal memory: definitions, implementation and programming", 1995) —
// the canonical propagation-based causal MCS-protocol the paper cites [2].
//
// Full replication with vector clocks:
//  * write(x, v): tick own clock entry, apply locally, broadcast the update
//    with the clock, acknowledge immediately (writes are local operations);
//  * read(x): return the local replica value immediately;
//  * a remote update from writer q stamped with clock w applies when it is
//    *causally ready*: w[q] == vt[q]+1 and w[j] <= vt[j] for j != q. Ready
//    updates wait in a CausalReadyQueue and apply one per simulator event,
//    earliest arrival first.
//
// Causal Updating (Property 1) holds: replicas apply causally ordered writes
// in causal order by the readiness rule, so the interconnect layer runs
// IS-protocol 1 (Fig. 1) on systems using this protocol.
#pragma once

#include "common/causal_ready_queue.h"
#include "common/vector_clock.h"
#include "common/var_store.h"
#include "mcs/mcs_process.h"
#include "protocols/update_msg.h"

namespace cim::proto {

class AnbkhProcess final : public mcs::McsProcess {
 public:
  explicit AnbkhProcess(const mcs::McsContext& ctx);

  void handle_read(VarId var, mcs::ReadCallback cb) override;
  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }
  const char* protocol_name() const override { return "anbkh"; }

  const VectorClock& clock() const { return clock_; }
  /// Updates received but not yet causally ready.
  std::size_t pending_updates() const { return pending_.size(); }
  Value replica_value(VarId var) const;

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;

 private:
  void apply_step();

  VarStore store_;
  VectorClock clock_;
  CausalReadyQueue<TimestampedUpdate> pending_;
  bool applying_ = false;
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory anbkh_protocol();

}  // namespace cim::proto
