// Attiya–Welch "local read" sequentially consistent protocol [3], built on a
// sequencer-based total-order broadcast (TOB). The TOB core (TobProcess) is
// shared with tob-causal (protocols/tob_causal.h).
//
//  * read(x): returns the local replica immediately (the fast operation);
//  * write(x, v): the update is published to the system's sequencer (local
//    process 0), which assigns it a global sequence number and broadcasts
//    it; every process applies updates in sequence order; the writer's call
//    completes when its own update is applied locally.
//
// All replicas apply the same total order, which (with FIFO channels and a
// single sequencer) extends the causal order, so executions are sequentially
// consistent — and a fortiori causal. The protocol therefore satisfies the
// Causal Updating Property and interconnects with IS-protocol 1, which is
// the paper's Section 1.1 remark: sequential systems are causal systems, and
// two of them can be interconnected into a causal (if generally no longer
// sequential) system.
//
// IS-process deviation (documented in DESIGN.md): a *blocking* write by the
// IS-process could deadlock against the upcall discipline (its write only
// completes when the pipeline applies it, but the pipeline may be blocked in
// an upcall that the sequential IS-process cannot serve while blocked in the
// write). For the MCS-process that hosts an IS-process we therefore apply
// the IS-process's writes locally at call time and acknowledge immediately
// (re-applying at the update's sequence position for convergence). Only the
// IS-process's own view is weakened — to causal — which is the consistency
// level the interconnection targets anyway; application processes still see
// the pure total order.
#pragma once

#include "common/vec_queue.h"
#include "common/var_store.h"
#include "mcs/mcs_process.h"

namespace cim::proto {

struct TobPublish final : net::Message {
  VarId var;
  Value value = kInitValue;
  std::uint16_t origin = 0;
  bool pre_applied = false;  // origin already applied it (IS-process write)
  // Instrumentation only, not wire data: the originating write's id.
  WriteId write_id;

  const char* type_name() const override { return "tob.publish"; }
  std::size_t wire_size() const override { return 24 + 4 + 8 + 2; }
  WriteId wid() const override { return write_id; }
};

struct TobDeliver final : net::Message {
  VarId var;
  Value value = kInitValue;
  std::uint16_t origin = 0;
  bool pre_applied = false;
  std::uint64_t seq = 0;
  // Instrumentation only, not wire data: the originating write's id, and the
  // local receive time at the buffering process, feeding the
  // proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override { return "tob.deliver"; }
  std::size_t wire_size() const override { return 24 + 4 + 8 + 2 + 8; }
  WriteId wid() const override { return write_id; }
};

/// The total-order-broadcast core of aw-seq and tob-causal. The sequencer
/// (local process 0) numbers every published update and broadcasts it; each
/// process buffers the deliveries, which arrive in sequence order over the
/// sequencer's FIFO channel, and applies them one per simulator event
/// through the upcall discipline. A subclass issues writes (do_write) and
/// decides how each delivery applies (apply_delivery).
class TobProcess : public mcs::McsProcess {
 public:
  void handle_read(VarId var, mcs::ReadCallback cb) override {
    cb(replica_value(var));  // the local-read fast path
  }
  void on_message(net::ChannelId from, net::MessagePtr msg) override;

  bool satisfies_causal_updating() const override { return true; }

  Value replica_value(VarId var) const { return store_.get(var); }
  bool is_sequencer() const { return local_index() == 0; }

 protected:
  explicit TobProcess(const mcs::McsContext& ctx) : McsProcess(ctx) {}

  /// Apply an own write to the local replica at issue time.
  void apply_at_issue(VarId var, Value value, WriteId wid);
  /// Hand an update to the sequencer (directly, at the sequencer itself).
  void publish(VarId var, Value value, WriteId wid, bool pre_applied);

  /// Apply the next delivery in sequence order; must end in next_delivery(),
  /// directly or from the done continuation of apply_sequenced().
  virtual void apply_delivery(const TobDeliver& del, bool own) = 0;
  /// Apply `del` to the replica through the upcall discipline, then `done`.
  void apply_sequenced(const TobDeliver& del, bool own, mcs::DoneFn done);
  /// Continue the apply chain in a fresh event (bounds recursion depth).
  void next_delivery() {
    simulator().post([this]() { apply_step(); });
  }

 private:
  void sequence(const TobPublish& pub);
  void enqueue_delivery(TobDeliver del);
  void apply_step();

  VarStore store_;
  std::uint64_t next_seq_to_assign_ = 0;  // sequencer only
  std::uint64_t next_apply_seq_ = 0;      // seq of deliveries_.front()
  VecQueue<TobDeliver> deliveries_;
  bool applying_ = false;
};

class AwSeqProcess final : public TobProcess {
 public:
  explicit AwSeqProcess(const mcs::McsContext& ctx) : TobProcess(ctx) {}

  const char* protocol_name() const override { return "aw-seq"; }

 protected:
  void do_write(VarId var, Value value, WriteId wid,
                mcs::WriteCallback cb) override;
  void apply_delivery(const TobDeliver& del, bool own) override;

 private:
  VecQueue<mcs::WriteCallback> pending_write_acks_;  // FIFO, own writes
};

/// Factory for mcs::SystemConfig::protocol.
mcs::ProtocolFactory aw_seq_protocol();

}  // namespace cim::proto
