// Pins the replica apply order and the visibility latencies of all six
// member protocols.
//
// Each test runs one small seeded two-system federation. ApplyOrder.* folds
// every replica application (replica, var, value, time) into a 64-bit
// FNV-1a digest through a MemoryObserver. Visibility.* folds the Section 6
// visibility latency of every write towards all application processes, and
// the worst of them, into the same kind of digest. Any change to a
// protocol's delivery buffer, its tie-breaks, its event scheduling or the
// latency table moves a digest, so the constants below turn "golden traces
// stay bit-identical" into a ctest assertion. Change a constant only for an
// intended behaviour change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "checker/causal_checker.h"
#include "helpers.h"
#include "obs/span_index.h"
#include "protocols/cbcast_dsm.h"
#include "protocols/partial_rep.h"

namespace cim::proto {
namespace {

constexpr std::uint16_t kApps = 3;
constexpr VarId kShared{8};

struct Fnv1a {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xff;
      digest *= 1099511628211ull;  // FNV-1a prime
    }
  }
};

class ApplyDigest final : public mcs::MemoryObserver {
 public:
  void on_apply(ProcId replica, VarId var, Value value, WriteId, bool,
                sim::Time t) override {
    fnv.mix(replica.system.value);
    fnv.mix(replica.index);
    fnv.mix(var.value);
    fnv.mix(static_cast<std::uint64_t>(value));
    fnv.mix(static_cast<std::uint64_t>(t.ns));
    ++applies;
  }

  Fnv1a fnv;
  std::uint64_t applies = 0;
};

// Process p of either system touches its own variable p and the shared one,
// so the same workload also respects partial-rep's interest sets. Jittered
// intra-system delays make updates wait in the delivery buffers. `also`,
// when given, observes the same run.
ApplyDigest run_federation(const mcs::ProtocolFactory& protocol,
                           mcs::MemoryObserver* also = nullptr) {
  isc::FederationConfig cfg = test::two_systems(kApps, protocol, protocol, 5);
  for (mcs::SystemConfig& sc : cfg.systems) {
    sc.intra_delay = [] {
      return std::make_unique<net::UniformDelay>(sim::microseconds(100),
                                                 sim::milliseconds(8));
    };
  }
  isc::Federation fed(std::move(cfg));
  ApplyDigest digest;
  fed.add_observer(&digest);
  if (also != nullptr) fed.add_observer(also);

  Rng rng(11);
  Value next = 1;
  std::vector<std::unique_ptr<wl::ScriptRunner>> runners;
  for (std::size_t s = 0; s < fed.num_systems(); ++s) {
    for (std::uint16_t p = 0; p < kApps; ++p) {
      std::vector<wl::Step> script;
      for (int i = 0; i < 30; ++i) {
        const VarId var = rng.chance(0.5) ? VarId{p} : kShared;
        script.push_back(rng.chance(0.5) ? wl::write_step(var, next++)
                                         : wl::read_step(var));
      }
      runners.push_back(std::make_unique<wl::ScriptRunner>(
          fed.simulator(), fed.system(s).app(p), std::move(script),
          sim::milliseconds(0), sim::milliseconds(3), 20 * s + p));
      runners.back()->start();
    }
  }
  fed.run();
  for (const auto& r : runners) EXPECT_TRUE(r->done());
  const auto res = chk::CausalChecker{}.check(fed.federation_history());
  EXPECT_TRUE(res.ok()) << chk::to_string(res.pattern) << ": " << res.detail;
  return digest;
}

void expect_pinned(const mcs::ProtocolFactory& protocol,
                   std::uint64_t digest, std::uint64_t applies) {
  const ApplyDigest got = run_federation(protocol);
  EXPECT_EQ(got.applies, applies);
  EXPECT_EQ(got.fnv.digest, digest) << std::hex << "0x" << got.fnv.digest;
}

// Digest of every write's visibility latency towards all application
// processes (sorted, so the table's iteration order does not matter), then
// the worst one (0 when some write never reached every target).
void expect_visibility_pinned(const mcs::ProtocolFactory& protocol,
                              std::uint64_t digest, std::size_t reached) {
  obs::SpanIndex vis;
  run_federation(protocol, &vis);
  std::vector<ProcId> targets;
  for (std::uint16_t s = 0; s < 2; ++s) {
    for (std::uint16_t p = 0; p < kApps; ++p) {
      targets.push_back(ProcId{SystemId{s}, p});
    }
  }
  std::vector<sim::Duration> all = vis.all_visibilities(targets);
  std::sort(all.begin(), all.end());
  Fnv1a fnv;
  for (sim::Duration d : all) fnv.mix(static_cast<std::uint64_t>(d.ns));
  const auto worst = vis.worst_visibility(targets);
  fnv.mix(static_cast<std::uint64_t>(worst ? worst->ns : 0));
  EXPECT_EQ(all.size(), reached);
  EXPECT_EQ(fnv.digest, digest) << std::hex << "0x" << fnv.digest;
}

// Process p replicates its own variable p and the shared one.
mcs::ProtocolFactory own_and_shared_partial_rep() {
  return partial_rep_protocol(
      [](std::uint16_t index, VarId var) {
        return var.value == index || var == kShared;
      },
      kApps);
}

LazyBatchConfig shuffled_batches() {
  LazyBatchConfig lc;
  lc.order = BatchOrder::kShuffleVars;
  return lc;
}

TEST(ApplyOrder, Anbkh) {
  expect_pinned(anbkh_protocol(), 0x6e7068373e67c50full, 688);
}

TEST(ApplyOrder, LazyBatch) {
  expect_pinned(lazy_batch_protocol(shuffled_batches()), 0x9a603d0d7bb70d7aull,
                688);
}

TEST(ApplyOrder, PartialRep) {
  expect_pinned(own_and_shared_partial_rep(), 0x454dbbe31a2d08dbull, 532);
}

TEST(ApplyOrder, CbcastDsm) {
  expect_pinned(cbcast_dsm_protocol(), 0x6e7068373e67c50full, 688);
}

TEST(ApplyOrder, AwSeq) {
  expect_pinned(aw_seq_protocol(), 0xef647158f7bd8d98ull, 774);
}

TEST(ApplyOrder, TobCausal) {
  expect_pinned(tob_causal_protocol(), 0xccb58194a2406c52ull, 688);
}

TEST(Visibility, Anbkh) {
  expect_visibility_pinned(anbkh_protocol(), 0x773beb8ed44c3b61ull, 86);
}

TEST(Visibility, LazyBatch) {
  expect_visibility_pinned(lazy_batch_protocol(shuffled_batches()),
                           0x57924c4fb581663dull, 86);
}

TEST(Visibility, PartialRep) {
  expect_visibility_pinned(own_and_shared_partial_rep(),
                           0xda067d97ef58843bull, 47);
}

TEST(Visibility, CbcastDsm) {
  expect_visibility_pinned(cbcast_dsm_protocol(), 0x773beb8ed44c3b61ull, 86);
}

TEST(Visibility, AwSeq) {
  expect_visibility_pinned(aw_seq_protocol(), 0x714b40759d228f18ull, 86);
}

TEST(Visibility, TobCausal) {
  expect_visibility_pinned(tob_causal_protocol(), 0xd5ebba4202d31c29ull, 86);
}

}  // namespace
}  // namespace cim::proto
