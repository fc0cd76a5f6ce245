#include "protocols/aw_seq.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

void TobProcess::apply_at_issue(VarId var, Value value, WriteId wid) {
  store_.set(var, value);
  note_applied_at_issue(var, value, wid);
}

void TobProcess::publish(VarId var, Value value, WriteId wid,
                         bool pre_applied) {
  TobPublish pub;
  pub.var = var;
  pub.value = value;
  pub.origin = local_index();
  pub.pre_applied = pre_applied;
  pub.write_id = wid;
  if (is_sequencer()) {
    sequence(pub);
  } else {
    send_to(0, std::make_unique<TobPublish>(pub));
  }
}

void TobProcess::sequence(const TobPublish& pub) {
  TobDeliver del;
  del.var = pub.var;
  del.value = pub.value;
  del.origin = pub.origin;
  del.pre_applied = pub.pre_applied;
  del.write_id = pub.write_id;
  del.seq = next_seq_to_assign_++;
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    send_to(j, std::make_unique<TobDeliver>(del));
  }
  enqueue_delivery(del);  // self-delivery
}

void TobProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  if (auto* pub = dynamic_cast<TobPublish*>(msg.get())) {
    CIM_CHECK_MSG(is_sequencer(), "publish sent to a non-sequencer");
    CIM_CHECK(pub->origin == sender_of(from));
    sequence(*pub);
    return;
  }
  auto* del = dynamic_cast<TobDeliver*>(msg.get());
  CIM_CHECK_MSG(del != nullptr, "unexpected message type in TOB process");
  enqueue_delivery(std::move(*del));
}

void TobProcess::enqueue_delivery(TobDeliver del) {
  // One sequencer and FIFO channels: deliveries arrive in sequence order.
  CIM_CHECK_MSG(del.seq == next_apply_seq_ + deliveries_.size(),
                "TOB delivery " << del.seq << " out of sequence");
  del.received_at = simulator().now();
  deliveries_.emplace_back(std::move(del));
  note_update_buffered(deliveries_.size());
  if (applying_) return;  // an apply chain is already in progress
  applying_ = true;
  apply_step();
}

void TobProcess::apply_step() {
  if (deliveries_.empty()) {
    applying_ = false;
    return;
  }
  // Moved out before the upcalls, which may sequence more deliveries.
  const TobDeliver del = std::move(deliveries_.front());
  deliveries_.pop_front();
  ++next_apply_seq_;
  apply_delivery(del, del.origin == local_index());
}

void TobProcess::apply_sequenced(const TobDeliver& del, bool own,
                                 mcs::DoneFn done) {
  apply_with_upcalls(
      del.var, del.value, del.write_id, own,
      /*apply=*/[this, own, var = del.var, value = del.value,
                 wid = del.write_id, received_at = del.received_at]() {
        store_.set(var, value);
        if (own) {
          note_update_applied(var, value, wid);
        } else {
          note_update_applied(var, value, wid, received_at);
        }
      },
      std::move(done));
}

void AwSeqProcess::do_write(VarId var, Value value, WriteId wid,
                            mcs::WriteCallback cb) {
  note_update_issued(var, value, wid);
  if (has_upcall_handler()) {
    // IS-process write: apply locally and acknowledge immediately (see the
    // header comment for why blocking would deadlock the upcall discipline).
    apply_at_issue(var, value, wid);
    publish(var, value, wid, /*pre_applied=*/true);
    cb();
    return;
  }
  pending_write_acks_.push_back(std::move(cb));
  publish(var, value, wid, /*pre_applied=*/false);
}

void AwSeqProcess::apply_delivery(const TobDeliver& del, bool own) {
  // For a pre-applied own write this is a (convergence-restoring)
  // re-application at the update's global sequence position.
  apply_sequenced(del, own, [this, ack = own && !del.pre_applied]() {
    if (ack) {
      CIM_CHECK_MSG(!pending_write_acks_.empty(),
                    "own delivery without a pending write");
      mcs::WriteCallback cb = std::move(pending_write_acks_.front());
      pending_write_acks_.pop_front();
      cb();
    }
    next_delivery();
  });
}

mcs::ProtocolFactory aw_seq_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AwSeqProcess>(ctx);
  };
}

}  // namespace cim::proto
