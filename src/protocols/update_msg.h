// Vector-clock-stamped update message of ANBKH and lazy-batch ("vc.update"
// on the wire). Receivers buffer it in a CausalReadyQueue lane keyed by
// `writer` until it is causally ready.
#pragma once

#include "common/ids.h"
#include "common/value.h"
#include "common/vector_clock.h"
#include "net/message.h"
#include "sim/time.h"

namespace cim::proto {

struct TimestampedUpdate final : net::Message {
  VarId var;
  Value value = kInitValue;
  VectorClock clock;
  std::uint16_t writer = 0;
  // Instrumentation only, not wire data: the originating write's id (rides
  // the message so lifecycle trace events can be correlated per write), and
  // the local receive time at the buffering process, feeding the
  // proto.causal_wait histogram.
  WriteId write_id;
  sim::Time received_at;

  const char* type_name() const override { return "vc.update"; }
  std::size_t wire_size() const override {
    return 24 + 4 + 8 + 8 * clock.size();
  }
  WriteId wid() const override { return write_id; }
};

}  // namespace cim::proto
