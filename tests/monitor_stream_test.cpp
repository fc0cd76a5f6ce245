// Differential check of the online monitor's two feeds. The live feed is the
// federation's write-lifecycle stream (mcs::MemoryObserver hooks); the
// offline feed is the same run's JSONL trace replayed through
// observe(ParsedTraceEvent), as `cim_trace check` does. Both must reach the
// same verdicts, field by field. IS-protocol 1 is forced on both ends of the
// link, so the members without Causal Updating produce real violations to
// compare.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "checker/online_monitor.h"
#include "helpers.h"
#include "obs/trace_read.h"
#include "protocols/cbcast_dsm.h"
#include "protocols/partial_rep.h"

namespace cim {
namespace {

struct Member {
  const char* name;
  mcs::ProtocolFactory (*make)();
  bool causal_updating;  // Property 1: protocol 1 alone keeps causality
};

const Member kMembers[] = {
    {"Anbkh", [] { return proto::anbkh_protocol(); }, true},
    {"LazyBatch", [] { return proto::lazy_batch_protocol(); }, false},
    {"LazyBatchShuffled",
     [] {
       proto::LazyBatchConfig lc;
       lc.order = proto::BatchOrder::kShuffleVars;
       return proto::lazy_batch_protocol(lc);
     },
     false},
    {"PartialRep", [] { return proto::partial_rep_protocol_full(); }, true},
    {"CbcastDsm", [] { return proto::cbcast_dsm_protocol(); }, true},
    {"AwSeq", [] { return proto::aw_seq_protocol(); }, true},
    {"TobCausal", [] { return proto::tob_causal_protocol(); }, true},
};

using Param = std::tuple<std::size_t, std::uint64_t>;  // member, seed

class MonitorStream : public ::testing::TestWithParam<Param> {};

TEST_P(MonitorStream, LiveVerdictsEqualOfflineReplay) {
  const auto [member, seed] = GetParam();
  isc::FederationConfig cfg = test::two_systems(
      3, kMembers[member].make(), kMembers[member].make(), seed);
  cfg.links[0].choice_a = isc::IsProtocolChoice::kForceProtocol1;
  cfg.links[0].choice_b = isc::IsProtocolChoice::kForceProtocol1;
  // A jittered link separates the pairs of a scrambled batch, so the
  // inversion is observable in the other system (FIFO still holds).
  cfg.links[0].delay = [] {
    return std::make_unique<net::UniformDelay>(sim::milliseconds(1),
                                               sim::milliseconds(40));
  };
  cfg.obs.trace.enabled = true;
  cfg.monitor.enabled = true;
  isc::Federation fed(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = 40;
  wc.num_vars = 4;
  wc.seed = seed;
  const auto runners = wl::install_uniform(fed, wc);
  fed.run();

  const obs::TraceSink& trace = fed.observability().trace();
  ASSERT_EQ(trace.dropped(), 0u);
  std::stringstream jsonl;
  trace.write_jsonl(jsonl);
  std::vector<std::string> errors;
  const std::vector<obs::ParsedTraceEvent> events =
      obs::read_trace_jsonl(jsonl, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  chk::OnlineMonitor replay;
  for (const obs::ParsedTraceEvent& ev : events) replay.observe(ev);

  const chk::OnlineMonitor& live = *fed.monitor();
  EXPECT_GT(live.events_seen(), 0u);
  // Without Causal Updating, protocol 1 lets scrambled batches cross the
  // link and the monitor convicts them; with it, the run stays causal (and
  // aw-seq's re-applied at-issue writes raise no false FIFO regression).
  if (kMembers[member].causal_updating) {
    EXPECT_EQ(live.violation_count(), 0u);
  } else {
    EXPECT_GT(live.violation_count(), 0u);
  }
  EXPECT_EQ(live.events_seen(), replay.events_seen());
  EXPECT_EQ(live.violation_count(), replay.violation_count());
  // Every live verdict was also recorded as a `chk`/`violation` event.
  EXPECT_EQ(trace.category_count(obs::TraceCategory::kChk),
            live.violation_count());
  ASSERT_EQ(live.violations().size(), replay.violations().size());
  for (std::size_t i = 0; i < live.violations().size(); ++i) {
    const chk::Violation& a = live.violations()[i];
    const chk::Violation& b = replay.violations()[i];
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_STREQ(a.kind, b.kind);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.proc, b.proc);
    EXPECT_EQ(a.var, b.var);
    EXPECT_EQ(a.wid, b.wid);
    EXPECT_EQ(a.expected_seq, b.expected_seq);
    EXPECT_EQ(a.got_seq, b.got_seq);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Members, MonitorStream,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kMembers)),
                       ::testing::Values<std::uint64_t>(11, 12, 13)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(kMembers[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cim
