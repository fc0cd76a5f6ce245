// perfbench_driver: runs one repetition of one benchmark workload and prints
// its raw measurements as one JSON line. Each repetition is a process of its
// own, so its peak RSS and heap state are its own. perfbench/run.py chooses
// the repetitions' seeds, repeats, and does the arithmetic (medians,
// percentiles, steady windows, FIFO lag, tail split) in analysis.py. See
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver <mesh_chain2|sim_chain2|check_cm> --seed N [--traced 0|1]
//
// Every layer is measured from outside: the driver times its own calls into
// public functions (MeshNode::join/run, Federation construction and run(),
// HistoryBuilder, CausalChecker::check) and reads public counters
// (LinkSession getters, Federation::metrics_snapshot(), CheckStats,
// getrusage). With --traced 1 it also records spans around those calls and
// samples session counters and process CPU at a fine interval.
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.h"
#include "checker/history.h"
#include "common/rng.h"
#include "interconnect/federation.h"
#include "interconnect/pair_msg.h"
#include "interconnect/topology.h"
#include "mesh/mesh_node.h"
#include "net/reliable_transport.h"
#include "net/wire.h"
#include "obs/json.h"
#include "protocols/anbkh.h"
#include "workload/generator.h"

namespace {

using namespace cim;
using obs::JsonWriter;

// ---- build guard ------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(CIM_SANITIZE)
constexpr const char* kBadBuild = "sanitizer build";
#elif !defined(__OPTIMIZE__)
constexpr const char* kBadBuild = "unoptimized build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kBadBuild = "sanitizer build";
#else
constexpr const char* kBadBuild = nullptr;
#endif
#else
constexpr const char* kBadBuild = nullptr;
#endif

// ---- clocks and process counters --------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
  std::int64_t maxrss_kb = 0;
  double cpu_s() const { return user_s + sys_s; }
};

Usage usage() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return Usage{tv(ru.ru_utime), tv(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw,
               ru.ru_maxrss};
}

void write_usage(JsonWriter& w, const Usage& a, const Usage& b,
                 std::int64_t t0, std::int64_t t1) {
  w.key("usage");
  w.begin_object();
  w.kv("wall_s", seconds(t1 - t0));
  w.kv("user_s", b.user_s - a.user_s);
  w.kv("sys_s", b.sys_s - a.sys_s);
  w.kv("ctx_switches", b.ctx_switches - a.ctx_switches);
  w.end_object();
}

// Spans the driver records around its calls into the program (traced pass).
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }
  void add(const char* name, std::int64_t t0, std::int64_t t1, int node = -1) {
    if (on_) spans_.push_back({name, t0, t1, node});
  }
  void write(JsonWriter& w) const {
    w.key("spans");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_array();
      w.value(s.name);
      w.value(s.t0);
      w.value(s.t1);
      w.value(s.node);
      w.end_array();
    }
    w.end_array();
  }

 private:
  struct Span {
    const char* name;
    std::int64_t t0, t1;
    int node;
  };
  bool on_;
  std::vector<Span> spans_;
};

// Print one repetition's record as a JSON line, {"rep": {...}}. `body`
// writes the workload's fields; the record closes with this process's peak
// RSS (the repetition is the process's only work), the spans and the
// verdict.
template <typename Body>
void emit_rep(const char* workload, std::uint64_t seed, const Spans& spans,
              bool ok, const std::string& why, Body&& body) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("rep");
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  body(w);
  w.kv("maxrss_kb", usage().maxrss_kb);
  if (spans.on()) spans.write(w);
  w.kv("ok", ok);
  w.kv("why", ok ? std::string() : why);
  w.end_object();
  w.end_object();
  os << '\n';
  const std::string line = os.str();
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

// ---- offline verification ---------------------------------------------------

struct Verdict {
  chk::CheckResult result;
  std::size_t ops = 0;
  double bytes_per_op = 0;
  double build_s = 0;
  double check_s = 0;
};

// Merge α^T histories, build the columnar history and kCM-check it `checks`
// times (odd), outside any timed window; the check time is the median.
Verdict verify(const std::vector<const chk::History*>& parts, int checks,
               Spans& spans) {
  Verdict v;
  const std::int64_t t0 = now_ns();
  chk::HistoryBuilder b;
  for (const chk::History* h : parts)
    for (std::size_t i = 0; i < h->size(); ++i) b.add(h->op(i));
  const chk::History merged = b.build();
  const std::int64_t t1 = now_ns();
  spans.add("history_build", t0, t1);
  std::vector<std::int64_t> times;
  for (int i = 0; i < checks; ++i) {
    const std::int64_t a = now_ns();
    v.result = chk::CausalChecker().check(merged, chk::Level::kCM);
    times.push_back(now_ns() - a);
    spans.add("causal_check", a, a + times.back());
  }
  std::sort(times.begin(), times.end());
  v.ops = merged.size();
  v.bytes_per_op = merged.bytes_per_op();
  v.build_s = seconds(t1 - t0);
  v.check_s = seconds(times[times.size() / 2]);
  return v;
}

void write_check_stats(JsonWriter& w, const chk::CheckResult& r) {
  w.kv("pattern", chk::to_string(r.pattern));
  w.kv("explicit_edges", static_cast<std::uint64_t>(r.stats.explicit_edges));
  w.kv("ambiguous_reads", static_cast<std::uint64_t>(r.stats.ambiguous_reads));
  w.kv("assignments_tried",
       static_cast<std::uint64_t>(r.stats.assignments_tried));
}

void write_verdict(JsonWriter& w, const Verdict& v) {
  w.key("verify");
  w.begin_object();
  write_check_stats(w, v.result);
  w.kv("ops", static_cast<std::uint64_t>(v.ops));
  w.kv("build_s", v.build_s);
  w.kv("check_s", v.check_s);
  w.kv("bytes_per_op", v.bytes_per_op);
  w.end_object();
}

// A verdict other than a definite OK fails the repetition.
void judge(const Verdict& v, bool& ok, std::string& why) {
  if (ok && !v.result.ok()) {
    ok = false;
    why = std::string("offline kCM verdict ") +
          chk::to_string(v.result.pattern) + ": " + v.result.detail;
  }
}

// Program counters shared by the pipeline workloads, summed over the nodes'
// Federation::metrics_snapshot() after the run.
void write_counters(JsonWriter& w,
                    const std::vector<obs::MetricsSnapshot>& snaps) {
  auto sum = [&](const char* name) {
    std::int64_t v = 0;
    for (const auto& s : snaps)
      if (const auto* e = s.find(name)) v += e->value;
    return v;
  };
  w.key("counters");
  w.begin_object();
  for (const char* name :
       {"sim.events_fired", "mcs.isp_reads", "proto.updates_applied",
        "isc.pairs_sent", "isc.pairs_received", "trace.dropped",
        "checker.violations", "net.wire.bytes_out", "net.acks",
        "net.retx.sent", "net.mesh.epoll_waits", "net.mesh.wakeups"})
    w.kv(name, sum(name));
  std::int64_t peak = 0, trace_events = 0;
  for (const auto& s : snaps) {
    if (const auto* e = s.find("sim.queue_depth_peak"))
      peak = std::max(peak, e->value);
    for (const auto& e : s.entries)
      if (e.name.rfind("trace.events.", 0) == 0) trace_events += e.value;
  }
  w.kv("sim.queue_depth_peak", peak);
  w.kv("trace.events", trace_events);
  // Histogram percentiles as the program computed them (largest over the
  // nodes), with the sample count the analysis checks them against.
  auto hist = [&](const std::string& name, const char* q) {
    double value = 0;
    std::uint64_t count = 0;
    for (const auto& s : snaps) {
      const auto* e = s.find(name);
      if (e == nullptr || e->summary.count == 0) continue;
      const stats::DurationSummary& d = e->summary;
      const double v =
          static_cast<double>((std::strcmp(q, "p50") == 0 ? d.p50 : d.p99).ns);
      value = std::max(value, v);
      count += d.count;
    }
    w.kv(name + "." + q, value);
    w.kv(name + ".count", count);
  };
  hist("proto.buffer_occupancy", "p99");
  hist("net.wire.encode_ns", "p50");
  hist("net.wire.decode_ns", "p50");
  w.end_object();
}

// ---- mesh_chain2 -------------------------------------------------------------

// A listen port for node 0, chosen per repetition: a random port below the
// kernel's usual ephemeral range that binds right now with the same options
// the mesh listener uses, so back-to-back runs, TIME_WAIT sockets and
// concurrent jobs do not collide with it.
std::uint16_t pick_port(Rng& rng) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const auto port = static_cast<std::uint16_t>(rng.uniform(20000, 32000));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const bool free =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(fd, 1) == 0;
    ::close(fd);
    if (free) return port;
  }
  return 0;
}

// Codec cost per pair frame timed from outside: the mesh federation does
// not register the encode/decode histograms, so the traced pass times the
// public codec on data frames shaped like the run's pairs.
void write_codec_timing(JsonWriter& w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> enc, dec;
  std::vector<std::uint8_t> buf;
  for (std::uint32_t i = 1; i <= 20000; ++i) {
    net::TransportFrame f;
    f.seq = i;
    f.ack = i - 1;
    auto p = std::make_unique<isc::PairMsg>();
    p->var = VarId{static_cast<std::uint32_t>(rng.uniform(0, 7))};
    p->value = static_cast<Value>(rng.uniform(1, 2'000'000));
    p->write_id = WriteId::make(ProcId{SystemId{0}, 1}, i);
    f.payload = std::move(p);
    buf.clear();
    const std::int64_t t0 = now_ns();
    net::wire::encode(f, buf);
    const std::int64_t t1 = now_ns();
    const net::wire::DecodeResult d = net::wire::decode(buf.data(), buf.size());
    const std::int64_t t2 = now_ns();
    if (!d.ok()) break;
    enc.push_back(t1 - t0);
    dec.push_back(t2 - t1);
  }
  auto p50 = [](std::vector<std::int64_t> v) {
    if (v.empty()) return std::int64_t{0};
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  w.key("codec");
  w.begin_object();
  w.kv("encode_ns.p50", p50(enc));
  w.kv("decode_ns.p50", p50(dec));
  w.kv("count", static_cast<std::uint64_t>(enc.size()));
  w.end_object();
}

// The default cim_bridge chain-2 node (ANBKH, 4 app processes, uniform mix).
// The operation count is fixed for every repetition. At 20 000 operations
// per process a repetition takes 0.8 s to 20 s depending on whether and how
// long the apply backlog collapses, and no affordable number of repetitions
// makes a run's median steady (README.md, "Recorded state"). At 2 000 the
// engine backlog still builds, the idle tail ends most repetitions, and a
// repetition takes about 2.6 s.
constexpr std::size_t kMeshProcs = 4;
constexpr std::size_t kMeshOps = 2'000;
// Its merged history checks in tens of milliseconds, so verification times
// three checks.
constexpr int kMeshChecks = 3;
constexpr int kSampleUs = 100;

struct NodeRun {
  std::unique_ptr<mesh::MeshNode> node;
  std::thread thread;
  std::atomic<bool> finished{false};
  std::int64_t join_t0 = 0, join_t1 = 0, run_t1 = 0;
  bool join_ok = false;
  mesh::MeshResult result;
  std::string error;
};

// One row of the traced mesh pass: per node the session's data_sent,
// data_delivered, backlog and queue_full_stalls, then process CPU and a
// bitmask of the nodes whose run() returned.
struct Sample {
  std::int64_t t;
  std::uint64_t sent[2], delivered[2], backlog[2], stalls[2];
  double cpu_s;
  int finished;
};

void mesh_rep(std::uint64_t seed, Spans& spans, bool traced) {
  Rng port_rng(static_cast<std::uint64_t>(::getpid()) ^
               static_cast<std::uint64_t>(now_ns()));
  const std::uint16_t port = pick_port(port_rng);
  if (port == 0) {
    emit_rep("mesh_chain2", seed, spans, false, "no free listen port",
             [](JsonWriter&) {});
    return;
  }
  const std::int64_t t_setup0 = now_ns();
  NodeRun nodes[2];
  for (std::size_t i = 0; i < 2; ++i) {
    mesh::MeshConfig cfg;
    cfg.node_id = i;
    cfg.topo = isc::make_chain(2);
    cfg.base_port = port;
    cfg.procs = kMeshProcs;
    cfg.ops = kMeshOps;
    cfg.seed = seed;
    nodes[i].node = std::make_unique<mesh::MeshNode>(std::move(cfg));
  }
  for (NodeRun& n : nodes) {
    NodeRun* nr = &n;
    nr->thread = std::thread([nr] {
      try {
        nr->join_t0 = now_ns();
        nr->join_ok = nr->node->join();
        nr->join_t1 = now_ns();
        if (nr->join_ok) nr->result = nr->node->run();
        if (!nr->join_ok || !nr->result.ok) nr->error = nr->node->error();
      } catch (const std::exception& e) {
        nr->error = e.what();
        nr->result.ok = false;
      }
      nr->run_t1 = now_ns();
      nr->finished.store(true, std::memory_order_release);
    });
  }
  // Setup ends once both sessions are ready; a node that finished without
  // getting there failed its join.
  bool ready = false;
  while (true) {
    ready = nodes[0].node->sessions_ready() && nodes[1].node->sessions_ready();
    if (ready || nodes[0].finished.load() || nodes[1].finished.load()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::int64_t t_ready = now_ns();
  const Usage u0 = usage();

  std::vector<Sample> samples;
  if (ready && traced) {
    samples.reserve(1 << 16);
    while (true) {
      Sample s{};
      s.finished = (nodes[0].finished.load(std::memory_order_acquire) ? 1 : 0) |
                   (nodes[1].finished.load(std::memory_order_acquire) ? 2 : 0);
      s.t = now_ns();
      for (int i = 0; i < 2; ++i) {
        mesh::LinkSession& ls = nodes[i].node->session(0);
        s.sent[i] = ls.data_sent();
        s.delivered[i] = ls.data_delivered();
        s.backlog[i] = ls.backlog();
        s.stalls[i] = ls.queue_full_stalls();
      }
      s.cpu_s = usage().cpu_s();
      samples.push_back(s);
      if (s.finished == 3) break;
      std::this_thread::sleep_for(std::chrono::microseconds(kSampleUs));
    }
  }
  for (NodeRun& n : nodes) n.thread.join();
  const std::int64_t t_end = std::max(nodes[0].run_t1, nodes[1].run_t1);
  const Usage u1 = usage();
  spans.add("mesh_setup", t_setup0, t_ready);

  bool ok = ready;
  std::string why;
  if (!ready) why = "join failed: " + nodes[0].error + " / " + nodes[1].error;
  for (int i = 0; i < 2; ++i) {
    NodeRun& nr = nodes[i];
    spans.add("mesh_join", nr.join_t0, nr.join_t1, i);
    if (nr.join_ok) spans.add("mesh_run", nr.join_t1, nr.run_t1, i);
    if (ok && !nr.result.ok) {
      ok = false;
      why = "node " + std::to_string(i) + " run failed: " + nr.error;
    }
    if (ok && nr.result.violations != 0) {
      ok = false;
      why = "node " + std::to_string(i) + " online monitor reported " +
            std::to_string(nr.result.violations) + " violation(s)";
    }
  }

  // Counters and verification, outside the timed window.
  std::vector<obs::MetricsSnapshot> snaps;
  Verdict verdict;
  if (ready) {
    // Per-edge accounting: each side's session sent what the peer delivered.
    mesh::LinkSession& s0 = nodes[0].node->session(0);
    mesh::LinkSession& s1 = nodes[1].node->session(0);
    if (ok && (s0.data_sent() != s1.data_delivered() ||
               s1.data_sent() != s0.data_delivered())) {
      ok = false;
      why = "per-edge data_sent != peer data_delivered";
    }
    for (NodeRun& n : nodes)
      snaps.push_back(n.node->federation().metrics_snapshot());
    const chk::History h0 = nodes[0].node->federation().federation_history();
    const chk::History h1 = nodes[1].node->federation().federation_history();
    verdict = verify({&h0, &h1}, kMeshChecks, spans);
    judge(verdict, ok, why);
  }

  emit_rep("mesh_chain2", seed, spans, ok, why, [&](JsonWriter& w) {
    w.kv("setup_s", seconds(t_ready - t_setup0));
    w.kv("join_ms0", static_cast<double>(nodes[0].join_t1 - nodes[0].join_t0) * 1e-6);
    w.kv("join_ms1", static_cast<double>(nodes[1].join_t1 - nodes[1].join_t0) * 1e-6);
    w.kv("t_ready", t_ready);
    w.kv("t_end0", nodes[0].run_t1);
    w.kv("t_end1", nodes[1].run_t1);
    write_usage(w, u0, u1, t_ready, t_end);
    w.kv("pairs_sent", nodes[0].result.pairs_sent + nodes[1].result.pairs_sent);
    w.kv("pairs_received",
         nodes[0].result.pairs_received + nodes[1].result.pairs_received);
    if (!ready) return;
    std::int64_t best_rtt = -1;
    std::uint64_t hb = 0, resumes = 0, dup = 0, stalls = 0, sys_r = 0,
                  sys_w = 0, coalesced = 0, bytes = 0, sent = 0, delivered = 0;
    for (NodeRun& n : nodes) {
      mesh::LinkSession& s = n.node->session(0);
      if (s.best_rtt_ns() >= 0 && (best_rtt < 0 || s.best_rtt_ns() < best_rtt))
        best_rtt = s.best_rtt_ns();
      hb += s.hb_miss();
      resumes += s.resumes();
      dup += s.dup_drops();
      stalls += s.queue_full_stalls();
      sys_r += s.syscalls_read();
      sys_w += s.syscalls_write();
      coalesced += s.frames_coalesced();
      bytes += s.wire_bytes_out();
      sent += s.data_sent();
      delivered += s.data_delivered();
    }
    w.key("session");
    w.begin_object();
    w.kv("data_sent", sent);
    w.kv("data_delivered", delivered);
    w.kv("best_rtt_ns", best_rtt);
    w.kv("hb_miss", hb);
    w.kv("resumes", resumes);
    w.kv("dup_drops", dup);
    w.kv("queue_full_stalls", stalls);
    w.kv("syscalls_read", sys_r);
    w.kv("syscalls_write", sys_w);
    w.kv("frames_coalesced", coalesced);
    w.kv("wire_bytes_out", bytes);
    w.end_object();
    write_counters(w, snaps);
    write_verdict(w, verdict);
    if (!traced) return;
    w.key("samples");
    w.begin_array();
    for (const Sample& s : samples) {
      w.begin_array();
      w.value(s.t);
      for (int i = 0; i < 2; ++i) {
        w.value(s.sent[i]);
        w.value(s.delivered[i]);
        w.value(s.backlog[i]);
        w.value(s.stalls[i]);
      }
      w.value(s.cpu_s);
      w.value(s.finished);
      w.end_array();
    }
    w.end_array();
    write_codec_timing(w, seed);
  });
}

// ---- sim_chain2 --------------------------------------------------------------

// The same two systems, protocol, process count and mix as mesh_chain2 in
// one Federation: reliable in-sim link, pairs through the wire codec, the
// online monitor on as MeshNode::run has it. A repetition is short (about
// a fifth of a second) so that a run holds the forty or more repetitions
// its slower-quartile figures need (perfbench/README.md, "Repetitions").
constexpr std::size_t kSimOps = 5'000;

void sim_rep(std::uint64_t seed, Spans& spans) {
  const std::int64_t t0 = now_ns();
  isc::FederationConfig cfg;
  cfg.seed = seed;
  for (std::uint16_t s = 0; s < 2; ++s) {
    mcs::SystemConfig sys;
    sys.id = SystemId{s};
    sys.num_app_processes = kMeshProcs;
    sys.protocol = proto::anbkh_protocol();
    sys.seed = seed + s;
    cfg.systems.push_back(std::move(sys));
  }
  isc::LinkSpec link;
  link.system_a = 0;
  link.system_b = 1;
  link.reliable = true;
  cfg.links.push_back(std::move(link));
  cfg.link_wire = isc::LinkWire::kLoopbackBytes;
  cfg.monitor.enabled = true;
  auto fed = std::make_unique<isc::Federation>(std::move(cfg));
  wl::UniformConfig wc;
  wc.ops_per_process = kSimOps;
  wc.seed = seed * 2;
  auto runners = wl::install_uniform(*fed, wc);
  const std::int64_t t1 = now_ns();

  const Usage u0 = usage();
  const std::int64_t t2 = now_ns();
  fed->run();
  const std::int64_t t3 = now_ns();
  const Usage u1 = usage();
  spans.add("federation_setup", t0, t1);
  spans.add("federation_run", t2, t3);

  const std::vector<obs::MetricsSnapshot> snaps{fed->metrics_snapshot()};
  auto val = [&](const char* n) {
    const auto* e = snaps[0].find(n);
    return e != nullptr ? e->value : 0;
  };
  bool ok = true;
  std::string why;
  for (const auto& r : runners)
    if (!r->done()) {
      ok = false;
      why = "a workload script did not finish";
    }
  if (ok && val("isc.pairs_sent") != val("isc.pairs_received")) {
    ok = false;
    why = "isc.pairs_sent != isc.pairs_received";
  }
  if (ok && val("checker.violations") != 0) {
    ok = false;
    why = "online monitor reported violations";
  }
  const chk::History h = fed->federation_history();
  const Verdict verdict = verify({&h}, 1, spans);
  judge(verdict, ok, why);

  emit_rep("sim_chain2", seed, spans, ok, why, [&](JsonWriter& w) {
    w.kv("setup_s", seconds(t1 - t0));
    write_usage(w, u0, u1, t2, t3);
    w.kv("pairs_sent", val("isc.pairs_sent"));
    w.kv("pairs_received", val("isc.pairs_received"));
    write_counters(w, snaps);
    write_verdict(w, verdict);
  });
}

// ---- check_cm ---------------------------------------------------------------

// One generated operation, kept outside the program's structures so that
// building the columnar history can be timed on its own.
struct GenOp {
  std::uint16_t proc;
  bool write;
  std::uint32_t var;
  Value value;
};

// A causal-broadcast run (bench_checker_perf's cbcast shape): every write
// carries its issuer's dependency vector and is applied at a peer only once
// its dependencies are, reads return the replica's value, so the history is
// causal memory by construction and shared-variable values are distinct.
// A fixed share of operations use each process's private variable with a
// small cycled value alphabet (the dup shape), so those reads have several
// admissible writers. `pairs` counts remote write applications.
std::vector<GenOp> cbcast_dup_history(std::size_t n_ops, std::uint64_t seed,
                                      std::uint64_t& pairs) {
  constexpr std::size_t kProcs = 6, kVars = 24, kAlphabet = 32;
  constexpr double kDupShare = 0.1;
  struct WriteRec {
    std::uint32_t var;
    Value value;
    std::vector<std::uint32_t> dep;
  };
  std::vector<std::vector<WriteRec>> log(kProcs);
  std::vector<std::vector<std::uint32_t>> vc(kProcs, std::vector<std::uint32_t>(kProcs, 0));
  std::vector<std::vector<Value>> store(kProcs, std::vector<Value>(kVars, kInitValue));
  std::vector<std::vector<std::size_t>> next_idx(kProcs, std::vector<std::size_t>(kProcs, 0));
  std::vector<std::uint64_t> own_cnt(kProcs, 0);
  std::vector<Value> own_val(kProcs, kInitValue);
  std::vector<GenOp> ops;
  ops.reserve(n_ops);
  Rng rng(seed);
  Value counter = 0;
  pairs = 0;
  while (ops.size() < n_ops) {
    const std::size_t p = rng.uniform(0, kProcs - 1);
    if (rng.chance(0.5)) {
      const std::size_t burst = rng.uniform(1, 4);
      for (std::size_t k = 0; k < burst; ++k) {
        bool delivered = false;
        const std::size_t start = rng.uniform(0, kProcs - 1);
        for (std::size_t d = 0; d < kProcs && !delivered; ++d) {
          const std::size_t o = (start + d) % kProcs;
          if (o == p) continue;
          const std::size_t i = next_idx[p][o];
          if (i >= log[o].size()) continue;
          const WriteRec& w = log[o][i];
          bool ready = true;
          for (std::size_t r = 0; r < kProcs && ready; ++r)
            if (r != o && vc[p][r] < w.dep[r]) ready = false;
          if (!ready) continue;
          vc[p][o] = static_cast<std::uint32_t>(i + 1);
          next_idx[p][o] = i + 1;
          store[p][w.var] = w.value;
          ++pairs;
          delivered = true;
        }
        if (!delivered) break;
      }
      continue;
    }
    const auto pid = static_cast<std::uint16_t>(p);
    if (rng.chance(kDupShare)) {
      const auto var = static_cast<std::uint32_t>(kVars + p);
      if (rng.chance(0.5)) {
        own_val[p] = static_cast<Value>(own_cnt[p]++ % kAlphabet) + 1;
        ops.push_back({pid, true, var, own_val[p]});
      } else {
        ops.push_back({pid, false, var, own_val[p]});
      }
      continue;
    }
    const auto var = static_cast<std::uint32_t>(rng.uniform(0, kVars - 1));
    if (rng.chance(0.45)) {
      WriteRec w;
      w.var = var;
      w.value = 1'000'000 + ++counter;
      w.dep = vc[p];
      w.dep[p] = static_cast<std::uint32_t>(log[p].size() + 1);
      store[p][var] = w.value;
      ++vc[p][p];
      ops.push_back({pid, true, var, w.value});
      log[p].push_back(std::move(w));
    } else {
      ops.push_back({pid, false, var, store[p][var]});
    }
  }
  return ops;
}

chk::History build_history(const std::vector<GenOp>& ops) {
  chk::HistoryBuilder b;
  std::int64_t t = 0;
  for (const GenOp& g : ops) {
    b.add(ProcId{SystemId{0}, g.proc}, false,
          g.write ? chk::OpKind::kWrite : chk::OpKind::kRead, VarId{g.var},
          g.value, sim::Time{t}, sim::Time{t + 1});
    t += 2;
  }
  return b.build();
}

constexpr std::size_t kCheckOps = 2'000'000;
constexpr int kBuildReps = 3;

void check_rep(std::uint64_t seed, Spans& spans) {
  std::uint64_t pairs = 0;
  const std::vector<GenOp> ops = cbcast_dup_history(kCheckOps, seed, pairs);
  // Set-up is the columnar build; it runs several times and the analysis
  // takes the median.
  std::vector<double> build_s;
  chk::History h;
  for (int i = 0; i < kBuildReps; ++i) {
    const std::int64_t t0 = now_ns();
    h = build_history(ops);
    const std::int64_t t1 = now_ns();
    spans.add("history_build", t0, t1);
    build_s.push_back(seconds(t1 - t0));
  }

  const Usage u0 = usage();
  const std::int64_t t0 = now_ns();
  const chk::CheckResult res = chk::CausalChecker().check(h, chk::Level::kCM);
  const std::int64_t t1 = now_ns();
  const Usage u1 = usage();
  spans.add("causal_check", t0, t1);

  const std::string why = res.ok() ? "" : std::string("kCM verdict ") +
                                              chk::to_string(res.pattern) +
                                              ": " + res.detail;
  emit_rep("check_cm", seed, spans, res.ok(), why, [&](JsonWriter& w) {
    w.key("build_s");
    w.begin_array();
    for (double b : build_s) w.value(b);
    w.end_array();
    w.kv("ops", static_cast<std::uint64_t>(h.size()));
    w.kv("pairs", pairs);
    w.kv("check_s", seconds(t1 - t0));
    write_usage(w, u0, u1, t0, t1);
    write_check_stats(w, res);
    w.kv("bytes_per_op", h.bytes_per_op());
  });
}

// ---- main ------------------------------------------------------------------

int usage_error() {
  std::fprintf(stderr,
               "usage: perfbench_driver <mesh_chain2|sim_chain2|check_cm> "
               "--seed N [--traced 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (kBadBuild != nullptr) {
    std::fprintf(stderr, "perfbench_driver: refusing to measure a %s\n",
                 kBadBuild);
    return 3;
  }
  if (argc < 2) return usage_error();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--traced") traced = std::strcmp(v, "1") == 0;
    else return usage_error();
  }

  Spans spans(traced);
  if (workload == "mesh_chain2") mesh_rep(seed, spans, traced);
  else if (workload == "sim_chain2") sim_rep(seed, spans);
  else if (workload == "check_cm") check_rep(seed, spans);
  else return usage_error();
  return 0;
}
