// Shared test helpers: compact builders for systems, federations, and
// hand-written histories, and free loopback ports for socket tests.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "checker/history.h"
#include "interconnect/federation.h"
#include "mcs/system.h"
#include "protocols/anbkh.h"
#include "protocols/aw_seq.h"
#include "protocols/lazy_batch.h"
#include "protocols/tob_causal.h"
#include "workload/generator.h"

namespace cim::test {

inline VarId X{0};
inline VarId Y{1};
inline VarId Z{2};

/// Build a history from (proc, kind, var, value) tuples; program order is
/// the order of mention per process.
struct H {
  std::vector<chk::Op> ops;
  std::map<ProcId, std::uint64_t> seq;

  H& rd(std::uint16_t proc, VarId var, Value value) {
    return add(proc, chk::OpKind::kRead, var, value);
  }
  H& wr(std::uint16_t proc, VarId var, Value value) {
    return add(proc, chk::OpKind::kWrite, var, value);
  }
  H& add(std::uint16_t proc, chk::OpKind kind, VarId var, Value value) {
    chk::Op op;
    op.id = OpId{ops.size()};
    op.proc = ProcId{SystemId{0}, proc};
    op.kind = kind;
    op.var = var;
    op.value = value;
    op.proc_seq = seq[op.proc]++;
    ops.push_back(op);
    return *this;
  }
  chk::History history() const { return chk::History(ops); }
};

/// One-system federation with `procs` application processes.
inline isc::FederationConfig single_system(std::uint16_t procs,
                                           mcs::ProtocolFactory protocol,
                                           std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  mcs::SystemConfig sc;
  sc.id = SystemId{0};
  sc.num_app_processes = procs;
  sc.protocol = std::move(protocol);
  sc.seed = seed + 100;
  cfg.systems.push_back(std::move(sc));
  return cfg;
}

/// Two systems of `procs` application processes each, joined by one link.
inline isc::FederationConfig two_systems(std::uint16_t procs,
                                         mcs::ProtocolFactory protocol_a,
                                         mcs::ProtocolFactory protocol_b,
                                         std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{s};
    sc.num_app_processes = procs;
    sc.protocol = s == 0 ? protocol_a : protocol_b;
    sc.seed = seed + 100 + s;
    cfg.systems.push_back(std::move(sc));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  cfg.links.push_back(std::move(link));
  return cfg;
}

/// Chain of `m` systems: S0 - S1 - ... - S(m-1).
inline isc::FederationConfig chain_systems(std::size_t m, std::uint16_t procs,
                                           mcs::ProtocolFactory protocol,
                                           std::uint64_t seed = 1) {
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::size_t s = 0; s < m; ++s) {
    mcs::SystemConfig sc;
    sc.id = SystemId{static_cast<std::uint16_t>(s)};
    sc.num_app_processes = procs;
    sc.protocol = protocol;
    sc.seed = seed + 100 + s;
    cfg.systems.push_back(std::move(sc));
  }
  for (std::size_t s = 0; s + 1 < m; ++s) {
    isc::LinkSpec link;
    link.system_a = s;
    link.system_b = s + 1;
    cfg.links.push_back(std::move(link));
  }
  return cfg;
}

/// True if a listener can bind `port` right now, probed the way
/// net::tcp_listen binds (SO_REUSEADDR, any address).
inline bool port_binds(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::listen(fd, 1) == 0;
  ::close(fd);
  return ok;
}

/// Base of `count` consecutive ports that all bind right now (a mesh of n
/// nodes listens on base .. base + n - 1). The base is random and below the
/// Linux ephemeral range, so test binaries running side by side under
/// ctest -j draw independent ranges and dialers' local ports stay out of
/// the way. Returns 0 if 200 random draws all hit a busy port.
inline std::uint16_t free_port_base(std::uint16_t count = 1) {
  static std::mt19937 rng(std::random_device{}());
  std::uniform_int_distribution<int> pick(20000, 32000 - count);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const auto base = static_cast<std::uint16_t>(pick(rng));
    bool free = true;
    for (std::uint16_t k = 0; free && k < count; ++k) {
      free = port_binds(static_cast<std::uint16_t>(base + k));
    }
    if (free) return base;
  }
  return 0;
}

}  // namespace cim::test
