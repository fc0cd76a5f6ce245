#include "protocols/partial_rep.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

PartialRepProcess::PartialRepProcess(const mcs::McsContext& ctx,
                                     InterestFn interest,
                                     std::uint16_t app_process_count)
    : McsProcess(ctx), interest_(std::move(interest)),
      app_process_count_(app_process_count), clock_(ctx.num_procs),
      pending_(ctx.num_procs) {
  CIM_CHECK_MSG(interest_ != nullptr, "partial-rep needs an interest function");
}

Value PartialRepProcess::replica_value(VarId var) const {
  return store_.get(var);
}

void PartialRepProcess::handle_read(VarId var, mcs::ReadCallback cb) {
  CIM_CHECK_MSG(holds(var), "process " << id() << " reads " << var
                                       << " outside its interest set");
  cb(replica_value(var));
}

void PartialRepProcess::do_write(VarId var, Value value, WriteId wid,
                                 mcs::WriteCallback cb) {
  CIM_CHECK_MSG(holds(var), "process " << id() << " writes " << var
                                       << " outside its interest set");
  clock_.tick(local_index());
  store_.set(var, value);
  note_update_issued(var, value, wid);
  note_applied_at_issue(var, value, wid);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<PartialUpdate>();
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    if (holds(j, var)) {
      msg->var = var;
      msg->value = value;
      msg->has_value = true;
    }  // else: causal marker only — no variable, no payload
    send_to(j, std::move(msg));
  }
  cb();
}

void PartialRepProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  CIM_DCHECK_MSG(dynamic_cast<PartialUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in partial-rep");
  auto* update = static_cast<PartialUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push(update->writer, std::move(*update));
  note_update_buffered(pending_.size());
  if (!applying_) {
    applying_ = true;
    apply_step();
  }
}

void PartialRepProcess::apply_step() {
  const std::size_t writer = pending_.ready_writer(clock_);
  if (writer == pending_.kNone) {
    applying_ = false;
    return;
  }
  // Unpack scalars and pop before the upcalls (see anbkh.cpp).
  const PartialUpdate& u = pending_.head(writer);
  const bool has_value = u.has_value;
  const VarId var = u.var;
  const Value value = u.value;
  const WriteId wid = u.write_id;
  const sim::Time received_at = u.received_at;
  pending_.pop(writer);

  if (!has_value) {
    // Causal marker: advance knowledge, nothing to store or announce.
    clock_.tick(writer);
    simulator().post([this]() { apply_step(); });
    return;
  }
  apply_with_upcalls(
      var, value, wid, /*own_write=*/false,
      /*apply=*/[this, var, value, wid, received_at, writer]() {
        clock_.tick(writer);
        store_.set(var, value);
        note_update_applied(var, value, wid, received_at);
      },
      /*done=*/[this]() {
        simulator().post([this]() { apply_step(); });
      });
}

mcs::ProtocolFactory partial_rep_protocol(InterestFn interest,
                                          std::uint16_t app_process_count) {
  return [interest = std::move(interest),
          app_process_count](const mcs::McsContext& ctx) {
    return std::make_unique<PartialRepProcess>(ctx, interest,
                                               app_process_count);
  };
}

mcs::ProtocolFactory partial_rep_protocol_full() {
  return partial_rep_protocol([](std::uint16_t, VarId) { return true; },
                              /*app_process_count=*/0);
}

}  // namespace cim::proto
