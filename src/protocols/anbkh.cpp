#include "protocols/anbkh.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace cim::proto {

AnbkhProcess::AnbkhProcess(const mcs::McsContext& ctx)
    : McsProcess(ctx), clock_(ctx.num_procs), pending_(ctx.num_procs) {}

Value AnbkhProcess::replica_value(VarId var) const {
  return store_.get(var);
}

void AnbkhProcess::handle_read(VarId var, mcs::ReadCallback cb) {
  cb(replica_value(var));
}

void AnbkhProcess::do_write(VarId var, Value value, WriteId wid,
                            mcs::WriteCallback cb) {
  clock_.tick(local_index());
  store_.set(var, value);
  note_update_issued(var, value, wid);
  note_applied_at_issue(var, value, wid);
  for (std::uint16_t j = 0; j < num_procs(); ++j) {
    if (j == local_index()) continue;
    auto msg = std::make_unique<TimestampedUpdate>();
    msg->var = var;
    msg->value = value;
    msg->clock = clock_;
    msg->writer = local_index();
    msg->write_id = wid;
    send_to(j, std::move(msg));
  }
  cb();
}

void AnbkhProcess::on_message(net::ChannelId from, net::MessagePtr msg) {
  // Intra-system channels only ever carry TimestampedUpdates; checked in
  // Debug/sanitizer builds, a straight downcast in Release.
  CIM_DCHECK_MSG(dynamic_cast<TimestampedUpdate*>(msg.get()) != nullptr,
                 "unexpected message type in ANBKH");
  auto* update = static_cast<TimestampedUpdate*>(msg.get());
  CIM_DCHECK(update->writer == sender_of(from));
  update->received_at = simulator().now();
  pending_.push(update->writer, std::move(*update));
  note_update_buffered(pending_.size());
  if (applying_) return;  // an apply chain is already in progress
  applying_ = true;
  apply_step();
}

void AnbkhProcess::apply_step() {
  const std::size_t writer = pending_.ready_writer(clock_);
  if (writer == pending_.kNone) {
    applying_ = false;
    return;
  }
  // Unpack and pop before the upcalls, which may buffer more updates; the
  // scalars keep the apply closure inside SmallFn's inline buffer, and a
  // ready update carries the writer's next tick.
  const TimestampedUpdate& u = pending_.head(writer);
  const VarId var = u.var;
  const Value value = u.value;
  const WriteId wid = u.write_id;
  const sim::Time received_at = u.received_at;
  pending_.pop(writer);

  apply_with_upcalls(
      var, value, wid, /*own_write=*/false,
      /*apply=*/[this, var, value, wid, received_at, writer]() {
        clock_.tick(writer);
        store_.set(var, value);
        note_update_applied(var, value, wid, received_at);
      },
      /*done=*/[this]() {
        // Continue the chain in a fresh event to bound recursion depth.
        simulator().post([this]() { apply_step(); });
      });
}

mcs::ProtocolFactory anbkh_protocol() {
  return [](const mcs::McsContext& ctx) {
    return std::make_unique<AnbkhProcess>(ctx);
  };
}

}  // namespace cim::proto
