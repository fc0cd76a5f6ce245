#include "mesh/mesh_node.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "mesh/ctrl_io.h"
#include "mesh/stats_plane.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/anbkh.h"
#include "runtime/runtime.h"

namespace cim::mesh {

namespace {

using Clock = std::chrono::steady_clock;
using net::wire::ControlMsg;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MeshNode::MeshNode(MeshConfig config) : cfg_(std::move(config)) {}

MeshNode::~MeshNode() {
  wake_accept_thread();
  for (auto& s : sessions_) s->stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (accept_wake_ >= 0) ::close(accept_wake_);
  // Contract with the transports: the loop thread must be joined before any
  // registered handler dies (net/epoll_loop.h).
  loop_.stop();
  sessions_.clear();
  if (listener_ >= 0) ::close(listener_);
  for (int fd : fds_)
    if (fd >= 0) ::close(fd);
}

bool MeshNode::handshake_dial(int fd, std::size_t peer) {
  const std::uint64_t hash = cfg_.topo.hash();
  if (!send_ctrl_fd(fd, ControlMsg::kHello, cfg_.node_id,
                    net::wire::kWireVersion) ||
      !send_ctrl_fd(fd, ControlMsg::kJoin, cfg_.node_id, hash)) {
    error_ = "node " + std::to_string(peer) + ": handshake write failed";
    return false;
  }
  ControlMsg hello, join;
  if (const char* err = recv_ctrl_fd(fd, cfg_.join_timeout_ms, hello)) {
    error_ = "node " + std::to_string(peer) + ": " + err;
    return false;
  }
  // A reject arrives alone — do not wait for a second frame the peer will
  // never send (it has already closed).
  if (hello.code == ControlMsg::kJoinReject) {
    error_ = "node " + std::to_string(hello.a) +
             " rejected the join: " + reject_reason_name(hello.b);
    return false;
  }
  if (const char* err = recv_ctrl_fd(fd, cfg_.join_timeout_ms, join)) {
    error_ = "node " + std::to_string(peer) + ": " + err;
    return false;
  }
  if (join.code == ControlMsg::kJoinReject) {
    error_ = "node " + std::to_string(join.a) +
             " rejected the join: " + reject_reason_name(join.b);
    return false;
  }
  if (hello.code != ControlMsg::kHello || join.code != ControlMsg::kJoin) {
    error_ = "node " + std::to_string(peer) + ": unexpected handshake frames";
    return false;
  }
  if (hello.b != net::wire::kWireVersion) {
    error_ = "node " + std::to_string(peer) + ": wire version mismatch (peer v" +
             std::to_string(hello.b) + ", local v" +
             std::to_string(unsigned{net::wire::kWireVersion}) + ")";
    return false;
  }
  if (hello.a != peer || join.a != peer) {
    error_ = "dialed node " + std::to_string(peer) + " but node " +
             std::to_string(hello.a) + " answered";
    return false;
  }
  if (join.b != hash) {
    send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id,
                 kRejectTopologyHash);
    error_ = "node " + std::to_string(peer) +
             ": topology hash mismatch (diverging spec files?)";
    return false;
  }
  return true;
}

std::size_t MeshNode::handshake_accept(int fd) {
  ControlMsg hello, join;
  // Shorter per-connection budget than the overall accept deadline: a peer
  // that connected but went silent must not starve the real neighbors.
  const int per_conn_ms = std::max(1, cfg_.join_timeout_ms / 4);
  const char* err = recv_ctrl_fd(fd, per_conn_ms, hello);
  if (err == nullptr) err = recv_ctrl_fd(fd, per_conn_ms, join);
  if (err != nullptr || hello.code != ControlMsg::kHello ||
      join.code != ControlMsg::kJoin) {
    ::close(fd);  // died mid-handshake or spoke garbage: drop, keep accepting
    return isc::Topology::npos;
  }
  std::uint64_t reject = 0;
  std::size_t slot = isc::Topology::npos;
  for (std::size_t e = 0; e < neighbors_.size(); ++e)
    if (neighbors_[e] == hello.a && neighbors_[e] > cfg_.node_id) slot = e;
  if (hello.b != net::wire::kWireVersion) {
    reject = kRejectWireVersion;
  } else if (slot == isc::Topology::npos) {
    reject = kRejectNotANeighbor;
  } else if (fds_[slot] >= 0) {
    reject = kRejectDuplicateJoin;
  } else if (join.b != cfg_.topo.hash()) {
    reject = kRejectTopologyHash;
  }
  if (reject != 0) {
    send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id, reject);
    ::close(fd);
    return isc::Topology::npos;
  }
  if (!send_ctrl_fd(fd, ControlMsg::kHello, cfg_.node_id,
                    net::wire::kWireVersion) ||
      !send_ctrl_fd(fd, ControlMsg::kJoin, cfg_.node_id, cfg_.topo.hash())) {
    ::close(fd);
    return isc::Topology::npos;
  }
  fds_[slot] = fd;
  return slot;
}

bool MeshNode::load_resume_state() {
  std::string err;
  if (!SpillJournal::load(cfg_.state_path, restored_, err)) {
    error_ = err;
    return false;
  }
  if (restored_.node_id != cfg_.node_id) {
    error_ = "state journal belongs to node " +
             std::to_string(restored_.node_id) + ", not node " +
             std::to_string(cfg_.node_id);
    return false;
  }
  if (restored_.topo_hash != cfg_.topo.hash()) {
    error_ = "state journal topology hash mismatch (different spec file?)";
    return false;
  }
  if (restored_.seed != cfg_.seed) {
    error_ = "state journal seed mismatch";
    return false;
  }
  if (restored_.links.size() != neighbors_.size()) {
    error_ = "state journal link count mismatch";
    return false;
  }
  for (const SpillLinkState& l : restored_.links) {
    if (l.done_sent || l.bye_sent) {
      // Our done already announced a final pair count; re-running the
      // workload would invalidate it. The convergecast is not resumable
      // once begun — restart the whole mesh instead.
      error_ = "cannot resume: termination had already begun";
      return false;
    }
  }
  generation_ = restored_.generation + 1;
  if (generation_ > 4) {
    // Value ranges are [id*1e6 + g*200k, ...): generation 5 would collide
    // with the next node's range and break value-identifies-write.
    error_ = "too many restart generations (value ranges would collide)";
    return false;
  }
  return true;
}

std::uint64_t MeshNode::edge_session_id(std::size_t peer) const {
  // FNV-1a over (topology hash, seed, lower id, higher id): both endpoints
  // compute the same id with no coordination, and a rejoin from a different
  // run (other seed/spec) can never match — it is rejected as stale.
  const std::uint64_t lo = std::min<std::uint64_t>(cfg_.node_id, peer);
  const std::uint64_t hi = std::max<std::uint64_t>(cfg_.node_id, peer);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : {cfg_.topo.hash(), cfg_.seed, lo, hi}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h != 0 ? h : 1;
}

bool MeshNode::join() {
  isc::TopologyResult vr = isc::validate_topology(cfg_.topo);
  if (!vr.ok()) {
    error_ = vr.error;
    return false;
  }
  cfg_.topo = std::move(vr.topo);
  if (cfg_.node_id >= cfg_.topo.nodes) {
    error_ = "node id " + std::to_string(cfg_.node_id) +
             " outside the topology (" + std::to_string(cfg_.topo.nodes) +
             " nodes)";
    return false;
  }
  neighbors_ = cfg_.topo.neighbors(cfg_.node_id);
  fds_.assign(neighbors_.size(), -1);

  std::size_t higher = 0;
  for (std::size_t nb : neighbors_)
    if (nb > cfg_.node_id) ++higher;

  if (cfg_.resume) {
    if (cfg_.state_path.empty()) {
      error_ = "--resume requires --state";
      return false;
    }
    if (!load_resume_state()) return false;
    // No handshakes: every edge re-forms through the kRejoin path. We still
    // listen so crashed-and-back higher-id dialers can find us.
    if (higher > 0)
      listener_ = net::tcp_listen(
          static_cast<std::uint16_t>(cfg_.base_port + cfg_.node_id),
          static_cast<int>(higher));
    return true;
  }

  // Listen before dialing: higher-id neighbors may dial us at any moment
  // once their own lower dials are through. The backlog holds them all.
  // The listener stays open for the whole run (accept_main answers rejoins).
  if (higher > 0)
    listener_ = net::tcp_listen(
        static_cast<std::uint16_t>(cfg_.base_port + cfg_.node_id),
        static_cast<int>(higher));

  // Dial every lower-id neighbor. Dial targets are strictly decreasing in
  // id, so the wait-for graph is acyclic: mesh formation cannot deadlock.
  for (std::size_t e = 0; e < neighbors_.size(); ++e) {
    if (neighbors_[e] >= cfg_.node_id) continue;
    int fd = -1;
    try {
      fd = net::tcp_connect(
          cfg_.host.c_str(),
          static_cast<std::uint16_t>(cfg_.base_port + neighbors_[e]),
          cfg_.dial_retries);
    } catch (const InvariantViolation& e2) {
      error_ = e2.what();
    }
    if (fd < 0 || !handshake_dial(fd, neighbors_[e])) {
      if (fd >= 0) ::close(fd);
      if (listener_ >= 0) ::close(listener_);
      listener_ = -1;
      return false;
    }
    fds_[e] = fd;
  }

  // Accept every higher-id neighbor, whichever order they arrive in (the
  // join hello tells us who each connection is). Impostors and duplicates
  // are rejected and the wait continues; the deadline bounds a genuinely
  // missing peer.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.join_timeout_ms);
  std::size_t joined = 0;
  while (joined < higher) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout = static_cast<int>(std::max<std::int64_t>(
        0, left.count()));
    if (timeout == 0) {
      std::string missing;
      for (std::size_t e = 0; e < neighbors_.size(); ++e) {
        if (neighbors_[e] > cfg_.node_id && fds_[e] < 0)
          missing += (missing.empty() ? "" : ", ") +
                     std::to_string(neighbors_[e]);
      }
      error_ = "join timed out waiting for node(s) " + missing;
      ::close(listener_);
      listener_ = -1;
      return false;
    }
    const int fd = net::tcp_accept(listener_, timeout);
    if (fd < 0) {
      // Timed out (reported above next round) or a transient accept
      // failure such as descriptor exhaustion: retry without spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (handshake_accept(fd) != isc::Topology::npos) ++joined;
  }
  return true;
}

void MeshNode::wake_accept_thread() {
  accept_stop_.store(true, std::memory_order_release);
  if (accept_wake_ >= 0) {
    const std::uint64_t one = 1;
    // An eventfd write fails only on counter overflow, which one stop
    // signal cannot reach.
    (void)!::write(accept_wake_, &one, sizeof(one));
  }
}

void MeshNode::accept_main() {
  // Runs for the whole of run(): answers kRejoin handshakes from crashed
  // higher-id dialers and refuses everything else. Every wait here also
  // watches accept_wake_, so shutdown never waits on a poll timeout.
  while (!accept_stop_.load(std::memory_order_acquire)) {
    const int fd = net::tcp_accept(listener_, -1, accept_wake_);
    if (fd < 0) {
      // Woken for shutdown (the loop condition ends it), or a transient
      // accept failure such as descriptor exhaustion: retry without
      // spinning.
      net::wait_readable(accept_wake_, 10);
      continue;
    }
    ControlMsg msg;
    if (!net::wait_readable(fd, 1000, accept_wake_) ||
        recv_ctrl_fd(fd, 1000, msg) != nullptr) {
      ::close(fd);
      continue;
    }
    if (msg.code == ControlMsg::kRejoin) {
      LinkSession* target = nullptr;
      for (auto& s : sessions_)
        if (s->session_id() == msg.b && s->peer_id() == msg.a)
          target = s.get();
      accept_rejoin(fd, msg, cfg_.node_id, target);  // rejects stale inside
    } else {
      // A fresh kHello mid-run: this mesh epoch already formed, so the
      // dialer is from some other world (stale spec, stray process).
      send_ctrl_fd(fd, ControlMsg::kJoinReject, cfg_.node_id,
                   kRejectStaleSession);
      ::close(fd);
    }
  }
}

MeshResult MeshNode::run() {
  MeshResult result;
  const std::size_t n_links = neighbors_.size();
  if (!cfg_.resume)
    for (int fd : fds_)
      CIM_CHECK_MSG(fd >= 0 || n_links == 0, "run before join");

  // Open this generation's spill journal before anything can send: the
  // journal must never miss a session event.
  if (!cfg_.state_path.empty()) {
    SpillState st;
    st.node_id = cfg_.node_id;
    st.topo_hash = cfg_.topo.hash();
    st.seed = cfg_.seed;
    st.generation = generation_;
    if (cfg_.resume) st.links = restored_.links;
    else st.links.assign(n_links, SpillLinkState{});
    if (!spill_.create(cfg_.state_path, st)) {
      error_ = "cannot write state journal " + cfg_.state_path;
      return result;
    }
  }

  isc::FederationConfig cfg;
  cfg.obs.trace.enabled = cfg_.trace;
  cfg.monitor.enabled = true;
  mcs::SystemConfig sys;
  // A resumed incarnation is a *new* causal memory system joining the tree
  // (the paper's systems are static; restart-as-new-system keeps us inside
  // the model). Offset the id so its processes never collide with the
  // crashed generation's in the merged history.
  sys.id = SystemId{
      static_cast<std::uint16_t>(cfg_.node_id + generation_ * 4096)};
  sys.num_app_processes = cfg_.procs;
  sys.protocol = proto::anbkh_protocol();
  sys.seed = cfg_.seed + cfg_.node_id;
  cfg.systems.push_back(std::move(sys));
  for (std::size_t e = 0; e < n_links; ++e)
    cfg.external_links.push_back(isc::ExternalLinkSpec{});
  fed_ = std::make_unique<isc::Federation>(std::move(cfg));

  // Crash-durable history stream: writes hit the page cache at invocation,
  // before the pair can leave the engine thread, so any write a peer ever
  // sees is on disk (zero lost writes in the merged history). Appends on
  // resume — the crashed generation's prefix is already there.
  if (!cfg_.history_path.empty()) {
    history_ = std::make_unique<std::ofstream>(
        cfg_.history_path,
        cfg_.resume ? std::ios::app : std::ios::trunc);
    if (!*history_) {
      error_ = "cannot write history " + cfg_.history_path;
      return result;
    }
    fed_->recorder().set_listener([this](const chk::Op& op) {
      if (op.is_isp) return;
      auto& os = *history_;
      os << (op.kind == chk::OpKind::kRead ? 'r' : 'w') << ' '
         << op.proc.system.value << ' ' << op.proc.index << ' '
         << op.var.value << ' ' << op.value << '\n';
      os.flush();
    });
  }

  loop_.set_fault_hooks(cfg_.faults);
  loop_.start();
  std::vector<std::size_t> link_idx(n_links);
  SpillJournal* spill = cfg_.state_path.empty() ? nullptr : &spill_;
  for (std::size_t e = 0; e < n_links; ++e) {
    SessionConfig sc;
    sc.session_id = edge_session_id(neighbors_[e]);
    sc.self_id = cfg_.node_id;
    sc.peer_id = neighbors_[e];
    sc.link_index = e;
    // Reconnects re-dial in the original join direction — the higher id
    // dials the lower id's listener, which stays open for the whole run.
    sc.dialer = neighbors_[e] < cfg_.node_id;
    sc.host = cfg_.host;
    sc.peer_port = static_cast<std::uint16_t>(cfg_.base_port + neighbors_[e]);
    sc.hb_interval_ms = cfg_.hb_interval_ms;
    sc.liveness_timeout_ms = cfg_.liveness_timeout_ms;
    sc.degraded_timeout_ms = cfg_.degraded_timeout_ms;
    sc.backoff_initial_ms = cfg_.backoff_initial_ms;
    sc.backoff_max_ms = cfg_.backoff_max_ms;
    sc.reconnect_attempts = cfg_.reconnect_attempts;
    sc.faults = cfg_.faults;
    sessions_.push_back(
        std::make_unique<LinkSession>(std::move(sc), loop_, spill));
    if (cfg_.resume) sessions_[e]->restore(restored_.links[e]);
    link_idx[e] = fed_->interconnector().attach_external_link(
        e, sessions_[e].get());
  }
  // Every external link of this node shares the one IS-process, which is
  // exactly what makes the tree work: a pair arriving on link L is applied
  // locally and forwarded to every other link (split horizon).
  isc::IsProcess* isp =
      n_links > 0 ? &fed_->interconnector().external_isp(0) : nullptr;

  wl::UniformConfig wc;
  wc.ops_per_process = cfg_.ops;
  wc.seed = cfg_.seed * 2 + cfg_.node_id;
  // Each generation writes a disjoint value range (header comment): the
  // checker's value-identifies-write premise survives restarts.
  wc.value_base = static_cast<Value>(cfg_.node_id) * 1'000'000 +
                  static_cast<Value>(generation_) * 200'000;
  auto runners = wl::install_uniform(*fed_, wc);

  rt::Runtime rt(*fed_);

  std::vector<std::atomic<bool>> peer_done(n_links);
  std::vector<std::atomic<bool>> peer_bye(n_links);
  std::vector<std::atomic<std::uint64_t>> peer_pairs(n_links);
  // Pairs applied on the engine thread per link, across generations: the
  // restored delivery cursor seeds it, so a resumed node's drained()
  // comparison counts the crashed generation's applies too.
  std::vector<std::atomic<std::uint64_t>> applied_pairs(n_links);
  for (std::size_t e = 0; e < n_links; ++e) {
    const SpillLinkState* r = cfg_.resume ? &restored_.links[e] : nullptr;
    peer_done[e] = r != nullptr && r->peer_done;
    peer_bye[e] = r != nullptr && r->peer_bye;
    peer_pairs[e] = r != nullptr ? r->peer_pairs : 0;
    applied_pairs[e] = r != nullptr ? r->data_delivered : 0;
  }

  // ---- stats plane (docs/BRIDGE.md "Stats aggregation") --------------------
  // Frames from child subtrees are queued on the loop thread and forwarded
  // to the parent by the pump thread below — never sent from the loop thread
  // itself, where a journal-bound send() would deadlock against its own ACKs.
  FedAggregator agg;
  std::size_t stats_parent_e = isc::Topology::npos;
  if (cfg_.node_id != 0) {
    const std::size_t parent_node = stats_parent(cfg_.topo, cfg_.node_id);
    for (std::size_t e = 0; e < n_links; ++e)
      if (neighbors_[e] == parent_node) stats_parent_e = e;
  }
  std::mutex stats_mutex;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::deque<std::unique_ptr<net::wire::StatsFrame>> stats_relay;
  std::thread stats_thread;
  // Set once our last closing frame to the parent is sent (send_closing
  // below); the pump sends nothing to the parent after that.
  std::mutex parent_mutex;
  bool parent_closed = false;  // parent_mutex

  // The engine must accept posts before any transport can deliver: a fast
  // peer may flood pairs the moment its own join completes.
  rt.start();

  for (std::size_t e = 0; e < n_links; ++e) {
    isc::IsProcess* isp_ptr = isp;
    const std::size_t link = link_idx[e];
    auto* applied = &applied_pairs[e];
    sessions_[e]->start(
        cfg_.resume ? -1 : fds_[e],
        [&, isp_ptr, link, applied, e](net::MessagePtr msg) {
          // Loop thread. Control frames only touch atomics; pairs go to the
          // engine thread, where deliver_from_link runs protocol code and
          // may forward to sibling links.
          if (std::strcmp(msg->type_name(), "wire.ctrl") == 0) {
            auto& ctrl = static_cast<ControlMsg&>(*msg);
            if (ctrl.code == ControlMsg::kDone) {
              peer_pairs[e].store(ctrl.a, std::memory_order_relaxed);
              peer_done[e].store(true, std::memory_order_release);
            } else if (ctrl.code == ControlMsg::kBye) {
              peer_bye[e].store(true, std::memory_order_release);
            }
            return;
          }
          if (std::strcmp(msg->type_name(), "wire.stats") == 0) {
            auto frame = std::unique_ptr<net::wire::StatsFrame>(
                static_cast<net::wire::StatsFrame*>(msg.release()));
            if (cfg_.node_id == 0) {
              agg.fold(*frame);
            } else {
              std::lock_guard<std::mutex> lk(stats_mutex);
              // Bounded: a long parent outage drops the oldest snapshots,
              // never backpressures the loop thread.
              if (stats_relay.size() >= 64) stats_relay.pop_front();
              stats_relay.push_back(std::move(frame));
              stats_cv.notify_all();
            }
            return;
          }
          net::Message* raw = msg.release();
          rt.post([isp_ptr, link, raw, applied] {
            isp_ptr->deliver_from_link(link, net::MessagePtr(raw));
            applied->fetch_add(1, std::memory_order_release);
          });
        });
    fds_[e] = -1;  // the session's transport owns it now
  }

  // Rejoin service — started only after every session exists, so a crashed
  // dialer reconnecting the instant we come back finds its session.
  if (listener_ >= 0) {
    accept_wake_ = ::eventfd(0, EFD_CLOEXEC);
    CIM_CHECK_MSG(accept_wake_ >= 0,
                  "eventfd failed: " << std::strerror(errno));
    accept_thread_ = std::thread([this] { accept_main(); });
  }
  sessions_ready_.store(true, std::memory_order_release);

  // Snapshot of this node's thread-safe session/transport gauges, keyed
  // relative to the node (the aggregator prefixes fed.node.<origin>.).
  auto sample_stats = [&]() {
    auto f = std::make_unique<net::wire::StatsFrame>();
    f->origin = cfg_.node_id;
    f->t_ns = static_cast<std::uint64_t>(steady_ns());
    auto put = [&f](std::string key, std::int64_t v) {
      f->entries.emplace_back(std::move(key), v);
    };
    put("generation", generation_);
    std::int64_t bytes_out = 0;
    std::int64_t bytes_in = 0;
    for (std::size_t e = 0; e < n_links; ++e) {
      LinkSession& s = *sessions_[e];
      const std::string p = "peer." + std::to_string(neighbors_[e]) + ".";
      put(p + "down", s.down() ? 1 : 0);
      put(p + "journal_depth", static_cast<std::int64_t>(s.backlog()));
      put(p + "hb_miss", static_cast<std::int64_t>(s.hb_miss()));
      put(p + "resumes", static_cast<std::int64_t>(s.resumes()));
      put(p + "dup_drops", static_cast<std::int64_t>(s.dup_drops()));
      put(p + "pairs_sent", static_cast<std::int64_t>(s.data_sent()));
      put(p + "pairs_delivered", static_cast<std::int64_t>(s.data_delivered()));
      put(p + "queue_full_stalls",
          static_cast<std::int64_t>(s.queue_full_stalls()));
      put(p + "rtt_ns", s.best_rtt_ns());
      put(p + "offset_ns", s.clock_offset_ns());
      put(p + "rtt_count", static_cast<std::int64_t>(s.rtt_count()));
      bytes_out += static_cast<std::int64_t>(s.wire_bytes_out());
      bytes_in += static_cast<std::int64_t>(s.wire_bytes_in());
    }
    put("bytes_out", bytes_out);
    put("bytes_in", bytes_in);
    return f;
  };
  auto signal_stats_stop = [&] {
    {
      std::lock_guard<std::mutex> lk(stats_mutex);
      stats_stop = true;
    }
    stats_cv.notify_all();
  };
  if (cfg_.stats_interval_ms > 0) {
    stats_thread = std::thread([&] {
      const auto interval = std::chrono::milliseconds(cfg_.stats_interval_ms);
      auto next = Clock::now();  // first sample immediately: short runs and
                                 // slow cadences still cover every node
      std::unique_lock<std::mutex> lk(stats_mutex);
      while (!stats_stop) {
        stats_cv.wait_until(lk, next, [&] {
          return stats_stop || !stats_relay.empty();
        });
        if (stats_stop) break;
        std::vector<std::unique_ptr<net::wire::StatsFrame>> forward;
        while (!stats_relay.empty()) {
          forward.push_back(std::move(stats_relay.front()));
          stats_relay.pop_front();
        }
        const bool do_sample = Clock::now() >= next;
        if (do_sample) next = Clock::now() + interval;
        lk.unlock();
        if (do_sample && cfg_.trace) {
          // Pin a (virtual time, steady clock) correspondence on the engine
          // thread — both clocks read at the same instant — so cim_trace
          // merge can align this node's virtual timeline onto the shared
          // wall clock (trace schema v4, docs/TRACE_TOOLS.md "merge").
          rt.post([this] {
            obs::TraceSink& tr = fed_->observability().trace();
            CIM_TRACE(&tr, fed_->simulator().now(), obs::TraceCategory::kSim,
                      "clock_sample",
                      {{"steady_ns", steady_ns()},
                       {"node", static_cast<std::uint64_t>(cfg_.node_id)}});
          });
        }
        if (cfg_.node_id == 0) {
          if (do_sample) agg.fold(*sample_stats());
          if ((do_sample || !forward.empty()) &&
              !cfg_.fed_metrics_path.empty())
            agg.write_json(cfg_.fed_metrics_path);
        } else if (stats_parent_e != isc::Topology::npos) {
          // send() blocks against the journal bound while the parent link is
          // down — that is this thread's backpressure, and stop() unblocks
          // it. Own sample last: children's snapshots stay older than ours.
          std::lock_guard<std::mutex> parent_lock(parent_mutex);
          if (!parent_closed) {
            for (auto& fr : forward)
              sessions_[stats_parent_e]->send(std::move(fr));
            if (do_sample) sessions_[stats_parent_e]->send(sample_stats());
          }
        }
        lk.lock();
      }
    });
  }

  // Run `fn` on the engine thread and wait — the only way anything outside
  // the engine reads engine-owned state (IS counters, runner progress).
  auto on_engine = [&rt](auto&& fn) {
    std::promise<void> done;
    auto* fn_ptr = &fn;
    auto* done_ptr = &done;
    rt.post([fn_ptr, done_ptr] {
      (*fn_ptr)();
      done_ptr->set_value();
    });
    done.get_future().wait();
  };

  auto shut_down_everything = [&] {
    // Signal the stats pump before stopping the sessions (its forwarding
    // send() only unblocks when the parent session stops), join it before
    // rt.stop() (it posts clock_sample closures to rt).
    signal_stats_stop();
    // Sessions next: stop() closes the live transports, which unblocks an
    // accept thread stuck replaying into a stalled peer — only then is the
    // join below guaranteed to return.
    wake_accept_thread();
    for (auto& s : sessions_) s->stop();
    if (stats_thread.joinable()) stats_thread.join();
    if (accept_thread_.joinable()) accept_thread_.join();
    loop_.stop();  // before rt: a late delivery must not post to a dead rt
    rt.stop();
  };
  auto fail = [&](std::string why) {
    error_ = std::move(why);
    shut_down_everything();
  };

  std::vector<bool> done_sent(n_links, false);
  std::vector<bool> bye_sent(n_links, false);
  // done and bye are our last frames on a link: the peer closes once it
  // holds both and its own journal is empty, so a frame after them would
  // stay unacked in our journal and hold our drain open into the grace
  // window. Stats to the parent therefore end at the second of the two,
  // after the relayed frames still queued and a final own sample.
  auto send_closing = [&](std::size_t l, std::uint8_t code, std::uint64_t a) {
    const bool last = code == ControlMsg::kDone ? bye_sent[l] : done_sent[l];
    if (cfg_.stats_interval_ms > 0 && l == stats_parent_e && last) {
      std::lock_guard<std::mutex> parent_lock(parent_mutex);
      std::deque<std::unique_ptr<net::wire::StatsFrame>> relay;
      {
        std::lock_guard<std::mutex> lk(stats_mutex);
        relay.swap(stats_relay);
      }
      for (auto& fr : relay) sessions_[l]->send(std::move(fr));
      sessions_[l]->send(sample_stats());
      parent_closed = true;
    }
    auto msg = std::make_unique<ControlMsg>();
    msg->code = code;
    msg->a = a;
    sessions_[l]->send(std::move(msg));
  };

  // The done/bye convergecast (header comment + docs/BRIDGE.md). A dead
  // socket is *not* an exit condition any more — the session reconnects or
  // backpressures; only a permanent session failure aborts the node.
  while (true) {
    for (std::size_t e = 0; e < n_links; ++e) {
      if (sessions_[e]->error() != nullptr) {
        fail(std::string("link to node ") + std::to_string(neighbors_[e]) +
             ": " + sessions_[e]->error());
        return result;
      }
    }

    bool local_done = true;
    bool idle = false;
    on_engine([&] {
      for (const auto& r : runners)
        if (!r->done()) local_done = false;
      idle = fed_->simulator().empty();
    });

    // Drained: the peer's done announced its final count and we have applied
    // that many pairs. `>=` rather than `==`: a resumed peer's count starts
    // from its restored cursor, and replay duplicates never reach the engine.
    auto drained = [&](std::size_t e) {
      return peer_done[e].load(std::memory_order_acquire) &&
             applied_pairs[e].load(std::memory_order_acquire) >=
                 peer_pairs[e].load(std::memory_order_relaxed);
    };

    if (local_done && idle) {
      for (std::size_t l = 0; l < n_links; ++l) {
        if (done_sent[l]) continue;
        bool others_drained = true;
        for (std::size_t m = 0; m < n_links; ++m)
          if (m != l && !drained(m)) others_drained = false;
        if (others_drained) {
          // data_sent(l) is final: nothing local remains, and every other
          // link is drained, so no more forwards onto l can appear. The
          // session counts across generations, matching the peer's
          // cross-generation applied count.
          send_closing(l, ControlMsg::kDone, sessions_[l]->data_sent());
          done_sent[l] = true;
        }
      }
      for (std::size_t l = 0; l < n_links; ++l) {
        if (!bye_sent[l] && drained(l)) {
          send_closing(l, ControlMsg::kBye, 0);
          bye_sent[l] = true;
        }
      }
    }

    bool finished = local_done && idle;
    for (std::size_t e = 0; e < n_links; ++e) {
      if (!done_sent[e] || !bye_sent[e] ||
          !peer_bye[e].load(std::memory_order_acquire)) {
        finished = false;
      }
    }
    if (finished) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Final drain: the closing handshake of every link completes (the peer
  // acked our done/bye, and our acks of its done/bye are written —
  // LinkSession::drained), bounded by drain_timeout_ms. Both sides ack
  // done/bye on arrival, so a fault-free drain takes one round trip.
  //
  // The grace window below is the fallback for a real failure only. A peer
  // that already said bye and closed its socket while our bye is unacked is
  // *probably* done with us — but "probably" is a race: the same socket
  // death can mean our bye never arrived and the peer is mid-redial, and
  // abandoning it now strands it waiting for a bye that a dead listener
  // will never replay. So the escape only fires once the link has stayed
  // disconnected through a grace window sized to the peer's worst
  // rejoin-latency (its capped backoff plus detection); a rejoin inside the
  // window resets the clock and the journal replays normally. Each exit
  // through the window is counted (net.mesh.<peer>.grace_exits).
  for (auto& s : sessions_) s->begin_shutdown();
  const auto drain_deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.drain_timeout_ms);
  const auto rejoin_grace = std::chrono::milliseconds(
      2 * cfg_.backoff_max_ms + 2 * cfg_.hb_interval_ms);
  std::vector<Clock::time_point> dead_since(n_links, Clock::time_point{});
  std::vector<bool> grace_exit(n_links, false);
  while (Clock::now() < drain_deadline) {
    bool all = true;
    const auto now = Clock::now();
    for (std::size_t e = 0; e < n_links; ++e) {
      grace_exit[e] = false;
      if (sessions_[e]->drained()) continue;
      if (peer_bye[e].load(std::memory_order_acquire) &&
          !sessions_[e]->connected()) {
        if (dead_since[e] == Clock::time_point{}) dead_since[e] = now;
        if (now - dead_since[e] >= rejoin_grace) {
          grace_exit[e] = true;
          continue;
        }
      } else {
        dead_since[e] = Clock::time_point{};
      }
      all = false;
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  shut_down_everything();

  // Fold session/loop atomics into the registry now that every producer
  // thread is joined (obs cells are not thread-safe).
  obs::MetricsRegistry& m = fed_->observability().metrics();
  std::uint64_t bytes_out = 0, bytes_in = 0, sys_read = 0, sys_writev = 0;
  std::uint64_t coalesced = 0, stalls = 0;
  for (const auto& s : sessions_) {
    bytes_out += s->wire_bytes_out();
    bytes_in += s->wire_bytes_in();
    sys_read += s->syscalls_read();
    sys_writev += s->syscalls_write();
    coalesced += s->frames_coalesced();
    stalls += s->queue_full_stalls();
  }
  m.counter("net.wire.bytes_out").inc(bytes_out);
  m.counter("net.wire.bytes_in").inc(bytes_in);
  m.counter("net.mesh.syscalls_read").inc(sys_read);
  m.counter("net.mesh.syscalls_writev").inc(sys_writev);
  m.counter("net.mesh.frames_coalesced").inc(coalesced);
  m.counter("net.mesh.queue_full_stalls").inc(stalls);
  m.counter("net.mesh.epoll_waits").inc(loop_.epoll_waits());
  m.counter("net.mesh.wakeups").inc(loop_.wakeups());
  // Per-peer session gauges (docs/OBSERVABILITY.md, schema v4).
  for (std::size_t e = 0; e < n_links; ++e) {
    const std::string p =
        "net.mesh." + std::to_string(neighbors_[e]) + ".";
    m.gauge(p + "down").set(sessions_[e]->down() ? 1 : 0);
    m.gauge(p + "hb_miss").set(
        static_cast<std::int64_t>(sessions_[e]->hb_miss()));
    m.gauge(p + "resumes").set(
        static_cast<std::int64_t>(sessions_[e]->resumes()));
    m.gauge(p + "dup_drops").set(
        static_cast<std::int64_t>(sessions_[e]->dup_drops()));
    m.gauge(p + "grace_exits").set(grace_exit[e] ? 1 : 0);
    m.gauge(p + "pairs_sent").set(
        static_cast<std::int64_t>(sessions_[e]->data_sent()));
    m.gauge(p + "pairs_delivered").set(
        static_cast<std::int64_t>(sessions_[e]->data_delivered()));
    // Heartbeat-derived RTT/clock alignment (schema v5, docs/OBSERVABILITY.md
    // "Link RTT and clock offsets").
    auto& rtt = m.value_histogram(p + "rtt_ns");
    for (std::int64_t v : sessions_[e]->rtt_samples()) rtt.observe(v);
    m.gauge(p + "rtt_best_ns").set(sessions_[e]->best_rtt_ns());
    m.gauge(p + "offset_ns").set(sessions_[e]->clock_offset_ns());
    m.gauge(p + "rtt_count").set(
        static_cast<std::int64_t>(sessions_[e]->rtt_count()));
  }

  // Final federation snapshot: fold our own closing sample so the file node 0
  // leaves behind covers the full run even when the last cadence tick raced
  // shutdown.
  if (cfg_.stats_interval_ms > 0 && cfg_.node_id == 0 &&
      !cfg_.fed_metrics_path.empty()) {
    agg.fold(*sample_stats());
    agg.write_json(cfg_.fed_metrics_path);
  }

  for (const auto& r : runners) result.ops_done += r->steps_completed();
  if (isp != nullptr) {
    result.pairs_sent = isp->pairs_sent();
    result.pairs_received = isp->pairs_received();
  }
  result.violations =
      fed_->monitor() != nullptr ? fed_->monitor()->violation_count() : 0;
  result.ok = true;
  return result;
}

}  // namespace cim::mesh
