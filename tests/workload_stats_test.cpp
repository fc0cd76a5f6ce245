// Unit tests: workload generators and the stats layer.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "helpers.h"
#include "stats/response.h"
#include "stats/table.h"

namespace cim {
namespace {

using test::X;

TEST(UniqueValueSource, ValuesAreUniqueAndNonInitial) {
  wl::UniqueValueSource src;
  std::set<Value> seen;
  for (int i = 0; i < 1000; ++i) {
    const Value v = src.next();
    EXPECT_NE(v, kInitValue);
    EXPECT_TRUE(seen.insert(v).second);
  }
}

TEST(UniformScript, RespectsLengthAndWriteFraction) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 1000;
  cfg.write_fraction = 0.3;
  cfg.num_vars = 5;
  Rng rng(1);
  wl::UniqueValueSource values;
  auto script = wl::uniform_script(cfg, rng, values);
  ASSERT_EQ(script.size(), 1000u);
  int writes = 0;
  for (const auto& step : script) {
    EXPECT_LT(step.var.value, 5u);
    if (step.kind == chk::OpKind::kWrite) ++writes;
  }
  EXPECT_GT(writes, 220);
  EXPECT_LT(writes, 380);
}

TEST(UniformScript, HotspotSkewsWrites) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 2000;
  cfg.write_fraction = 1.0;
  cfg.num_vars = 10;
  cfg.hotspot = 0.8;
  Rng rng(2);
  wl::UniqueValueSource values;
  auto script = wl::uniform_script(cfg, rng, values);
  int hot = 0;
  for (const auto& step : script) {
    if (step.var == VarId{0}) ++hot;
  }
  EXPECT_GT(hot, 1400);
}

TEST(UniformScript, DeterministicForSameSeed) {
  wl::UniformConfig cfg;
  cfg.ops_per_process = 50;
  Rng r1(9), r2(9);
  wl::UniqueValueSource v1, v2;
  auto a = wl::uniform_script(cfg, r1, v1);
  auto b = wl::uniform_script(cfg, r2, v2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].var, b[i].var);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(ScriptRunner, RunsAllStepsAndSignalsCompletion) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  std::vector<wl::Step> script{wl::write_step(X, 1), wl::read_step(X),
                               wl::write_step(X, 2)};
  wl::ScriptRunner runner(fed.simulator(), fed.system(0).app(0),
                          std::move(script), sim::milliseconds(1),
                          sim::milliseconds(2), 5);
  bool finished = false;
  runner.on_finished = [&] { finished = true; };
  runner.start();
  fed.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.steps_completed(), 3u);
}

TEST(RelayDriver, FiresOnceTriggerObserved) {
  isc::Federation fed(test::single_system(2, proto::anbkh_protocol()));
  wl::RelayDriver relay(fed.simulator(), fed.system(0).app(1), X, 5, VarId{1},
                        6, sim::milliseconds(1));
  relay.start();
  fed.simulator().at(sim::Time{} + sim::milliseconds(10),
                     [&] { fed.system(0).app(0).write(X, 5); });
  fed.run();
  EXPECT_TRUE(relay.fired());
}

TEST(ResponseStats, ComputesMeanAndMax) {
  chk::Recorder rec;
  const ProcId p{SystemId{0}, 0};
  auto w1 = rec.begin(p, false, chk::OpKind::kWrite, X, 1, sim::Time{0});
  rec.end_write(w1, sim::Time{10});
  auto w2 = rec.begin(p, false, chk::OpKind::kWrite, X, 2, sim::Time{20});
  rec.end_write(w2, sim::Time{50});
  auto r1 = rec.begin(p, false, chk::OpKind::kRead, X, 0, sim::Time{60});
  rec.end_read(r1, 2, sim::Time{61});

  auto ws = stats::response_stats(rec.full(), chk::OpKind::kWrite);
  EXPECT_EQ(ws.count, 2u);
  EXPECT_DOUBLE_EQ(ws.mean_ns, 20.0);
  EXPECT_EQ(ws.max_ns, 30);
  auto rs = stats::response_stats(rec.full(), chk::OpKind::kRead);
  EXPECT_EQ(rs.count, 1u);
  EXPECT_EQ(rs.max_ns, 1);
}

TEST(ResponseStats, ExcludesIspOps) {
  chk::Recorder rec;
  const ProcId isp{SystemId{0}, 9};
  auto w = rec.begin(isp, true, chk::OpKind::kWrite, X, 1, sim::Time{0});
  rec.end_write(w, sim::Time{1000});
  auto ws = stats::response_stats(rec.full(), chk::OpKind::kWrite);
  EXPECT_EQ(ws.count, 0u);
}

TEST(Table, AlignsColumns) {
  stats::Table t({"name", "value"});
  t.add_row("n", 4);
  t.add_row("latency", "3l+2d");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name    | value |"), std::string::npos);
  EXPECT_NE(out.find("| latency | 3l+2d |"), std::string::npos);
}

}  // namespace
}  // namespace cim
