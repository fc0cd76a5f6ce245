// LinkSession: the crash-tolerant session layer between mesh::MeshNode and
// net::TcpLinkTransport (docs/BRIDGE.md "Failure behavior").
//
// PR 6 made each tree edge a raw TCP stream: reliable while both processes
// live, fatal the moment one hiccups. This layer gives every edge a
// *session* that outlives any one socket:
//
//  * Frames carry monotonically increasing sequence numbers plus a
//    piggybacked cumulative ACK — the same TransportFrame ARQ format the
//    in-sim ReliableTransport uses (net/reliable_transport.h), so the wire
//    is unchanged and a capture decodes with the same codec.
//  * Sent frames stay in a bounded replay journal until the peer's ACK
//    covers them. The journal is also the edge's only send queue: a single
//    flusher on the loop thread gathers writev batches straight from it,
//    and its bound is the only backpressure (senders block against it —
//    while a link is down too: degraded, not dead).
//  * A heartbeat tick on the shared EpollLoop sends pure-ACK frames and
//    watches the transport's last_rx_ns: a silent peer (SIGSTOP, stall)
//    flips the link to kDegraded (net.mesh.<peer>.{down,hb_miss} gauges)
//    instead of killing the node, and flips back when bytes flow again.
//  * done/bye control frames are acked the moment they are delivered, with
//    a pure-ACK frame: the closing handshake of a fault-free edge takes one
//    round trip, not a heartbeat interval (docs/BRIDGE.md "Termination").
//  * A dead socket (EOF, RST, write failure) retires the transport
//    incarnation; the dialer side re-dials with capped exponential backoff +
//    jitter and a kRejoin handshake (session id + last-delivered seq), the
//    acceptor side answers rejoins on the node's listener. The journal
//    replays everything past the peer's delivery cursor; the receive cursor
//    drops duplicates — no pair is delivered twice or lost.
//  * Every session event is spilled to the node's SpillJournal (mesh/spill.h)
//    so `cim_bridge --resume` restores the cursors and the replay window
//    after a kill -9.
//
// Threading: send() may be called from any non-loop thread (engine,
// convergecast) and blocks against the journal bound — the only blocking
// point; it stamps, encodes and journals the frame and posts one flush task
// per burst. on_frame, the heartbeat tick and the flusher run on the loop
// thread. The reconnect thread owns re-dials. Every frame reaches the wire
// through flush_locked(), in seq order, so concurrent senders and a rejoin
// replay cannot reorder the stream. The flusher holds the session mutex
// across its nonblocking writev: the iovecs point into journal entries,
// which an ack (a rejoin cursor on another thread, too) would otherwise pop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mesh/spill.h"
#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/link_transport.h"
#include "net/tcp_link.h"
#include "net/wire.h"

namespace cim::mesh {

enum class LinkState : int { kUp = 0, kDegraded = 1, kFailed = 2 };

struct SessionConfig {
  std::uint64_t session_id = 0;  // deterministic per (topology, seed, edge)
  std::uint64_t self_id = 0;     // our node id
  std::uint64_t peer_id = 0;     // neighbor node id
  std::size_t link_index = 0;    // slot in the node's spill journal
  /// True iff we dialed this edge at join time; the dialer re-dials after a
  /// socket death, the acceptor waits for a kRejoin on the node's listener.
  bool dialer = false;
  std::string host = "127.0.0.1";
  std::uint16_t peer_port = 0;
  int hb_interval_ms = 100;
  int liveness_timeout_ms = 2000;
  /// After this long continuously degraded the session fails (0 = never:
  /// degrade + backpressure forever, the default).
  int degraded_timeout_ms = 0;
  int backoff_initial_ms = 50;
  int backoff_max_ms = 1000;
  /// Dial attempts per outage before the session fails (<= 0: unbounded).
  int reconnect_attempts = 40;
  int handshake_timeout_ms = 2000;
  /// Borrowed chaos switchboard for every socket incarnation; null = none.
  net::FaultHooks* faults = nullptr;
};

class LinkSession final : public net::LinkTransport {
 public:
  /// The replay journal's bound: unacked frames a sender may run ahead of
  /// the peer before it blocks (docs/BRIDGE.md "Transport").
  static constexpr std::size_t kJournalMaxFrames = 4096;
  static constexpr std::size_t kJournalMaxBytes = std::size_t{4} << 20;

  /// Payload delivery (loop thread), exactly once per payload per session
  /// lifetime — crashes included, via the spill journal's receive cursor.
  using DeliverFn = std::function<void(net::MessagePtr)>;

  /// `journal` may be null (no crash spill — tests). The loop must outlive
  /// stop(); the session must be destroyed only after loop.stop().
  LinkSession(SessionConfig cfg, net::EpollLoop& loop, SpillJournal* journal);
  ~LinkSession() override;
  LinkSession(const LinkSession&) = delete;
  LinkSession& operator=(const LinkSession&) = delete;

  /// Restore cursors + replay window from a loaded spill journal. Must be
  /// called before start().
  void restore(const SpillLinkState& state);

  /// Start the session. `fd` is the connected socket from the join
  /// handshake, or -1 to start socketless (a resumed node: the dialer side
  /// re-dials immediately, the acceptor waits for the peer's rejoin).
  void start(int fd, DeliverFn deliver);

  /// Attach a fresh socket after a successful rejoin handshake: trims the
  /// journal to the peer's delivery cursor, replays the rest, flips to kUp.
  /// Called by the reconnect thread (dialer) or accept_rejoin (acceptor).
  void resume_with_socket(int fd, std::uint64_t peer_delivered);

  /// Final drain: EOF from here on is a normal goodbye, not an outage.
  void begin_shutdown();

  /// The closing handshake is complete on our side: every sent frame is
  /// acknowledged (the replay journal is empty) and every ack we owe the
  /// peer is written to the live socket. done/bye frames are acked the
  /// moment they are delivered, so a fault-free drain takes one round trip,
  /// not a heartbeat.
  bool drained() const;

  /// Join the reconnect thread. Call before the loop stops.
  void stop();

  // net::LinkTransport — the interconnector sends pairs through here.
  void send(net::MessagePtr msg) override;
  std::size_t backlog() const override;
  const char* kind() const override { return "session"; }
  bool serializing() const override { return true; }
  std::uint64_t wire_bytes_out() const override;
  std::uint64_t wire_bytes_in() const override;

  // ---- introspection (any thread) ------------------------------------------
  LinkState state() const;
  /// Static description of a permanent failure, or null.
  const char* error() const;
  std::uint64_t session_id() const { return cfg_.session_id; }
  std::uint64_t peer_id() const { return cfg_.peer_id; }
  std::uint64_t recv_expected() const;
  /// A live socket incarnation exists right now.
  bool connected() const;
  /// Non-ctrl payload frames sent / delivered this session (across crashes).
  std::uint64_t data_sent() const;
  std::uint64_t data_delivered() const;
  // net.mesh.<peer>.* gauge sources (docs/OBSERVABILITY.md, schema v4).
  std::uint64_t hb_miss() const;
  std::uint64_t resumes() const;
  std::uint64_t dup_drops() const;
  bool down() const;
  // ---- heartbeat RTT / clock offset (docs/OBSERVABILITY.md "RTT and
  // clock offset"). Every heartbeat completes an NTP-style four-timestamp
  // exchange; samples feed the net.mesh.<peer>.rtt_ns histogram and the
  // offset table in the federation snapshot.
  /// Bounded copy of the per-edge RTT samples (ns), oldest first.
  std::vector<std::int64_t> rtt_samples() const;
  /// Pairwise clock-offset estimate (peer steady clock minus local, ns),
  /// taken from the minimum-RTT exchange seen so far — queueing delay from
  /// stalls or backpressure widens RTT but cannot corrupt this estimate.
  std::int64_t clock_offset_ns() const;
  /// RTT (ns) of the exchange backing clock_offset_ns(); -1 until the first
  /// full exchange completes.
  std::int64_t best_rtt_ns() const;
  /// Completed exchanges (including samples dropped by the storage bound).
  std::uint64_t rtt_count() const;
  // Transport stats summed across every socket incarnation.
  std::uint64_t syscalls_read() const;
  std::uint64_t syscalls_write() const;
  std::uint64_t frames_coalesced() const;
  /// Times a sender stalled against the journal bound.
  std::uint64_t queue_full_stalls() const;

 private:
  struct Entry {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;  // full encoded frame
  };

  void on_frame(std::unique_ptr<net::TransportFrame> frame);
  /// Loop thread: write the owed control frame and the journal from
  /// wire_next_ on to the live socket, in kMaxIov batches, until everything
  /// is written or the socket is full (the EPOLLOUT edge or the next tick
  /// resumes it).
  void flush_locked();
  void flush();  // flush_locked() under the session mutex
  /// Any thread: make sure a flush runs on the loop thread soon — one task
  /// per burst, so frames journaled meanwhile share its writev batches.
  void post_flush_locked();
  void encode_ctl_locked();  // owed ack/heartbeat -> ctl_buf_
  void tick();
  void arm_tick();
  void handle_ack_locked(std::uint64_t ack);
  /// Pop acked journal entries, except one torn mid-write on the live
  /// socket: the rest of its bytes must still follow.
  void trim_locked();
  bool journal_full_locked() const {
    return journal_.size() >= kJournalMaxFrames ||
           journal_bytes_ >= kJournalMaxBytes;
  }
  void retire_locked();  // current transport died: degrade + wake the dialer
  void fail_locked(const char* why);
  void bury_locked();          // close the live transport, keep it for stats
  void attach_locked(int fd);  // new transport incarnation, registered
  void reconnect_main();
  int dial_and_rejoin(std::uint64_t delivered, std::uint64_t& peer_delivered,
                      bool& stale);

  SessionConfig cfg_;
  net::EpollLoop& loop_;
  SpillJournal* spill_;
  DeliverFn deliver_;

  mutable std::mutex mutex_;
  std::condition_variable journal_cv_;    // senders wait for journal room
  std::condition_variable reconnect_cv_;  // wakes/paces the dialer thread
  LinkState state_ = LinkState::kUp;
  const char* error_ = nullptr;
  bool shutdown_ = false;
  bool stopped_ = false;

  // Session cursors (mutex_). Persisted via spill_.
  std::uint64_t send_next_ = 0;      // next seq to stamp
  std::uint64_t acked_ = 0;          // peer's cumulative ack
  std::uint64_t recv_expected_ = 0;  // next inbound seq we accept
  std::uint64_t data_sent_ = 0;
  std::uint64_t data_delivered_ = 0;
  std::deque<Entry> journal_;        // unacked frames, seq ascending
  std::size_t journal_bytes_ = 0;
  std::int64_t degraded_since_ns_ = 0;

  // Flusher state (mutex_), per socket incarnation. At most one frame is
  // torn mid-write at a time, and it leads the next batch.
  /// Next seq to put on the wire. Reset to the journal front by a rejoin —
  /// that IS the replay.
  std::uint64_t wire_next_ = 0;
  std::size_t wire_off_ = 0;  // bytes of frame wire_next_ already written
  /// The owed pure-ACK/heartbeat frame (empty: none in progress), encoded
  /// once the slot is free. The tick replaces an unwritten pure ACK with a
  /// heartbeat, which carries the ack too.
  std::vector<std::uint8_t> ctl_buf_;
  std::size_t ctl_off_ = 0;
  bool ctl_hb_ = false;       // ctl_buf_ holds a heartbeat, not a pure ACK
  bool ack_owed_ = false;     // a delivered done/bye wants its ack now
  bool hb_owed_ = false;      // the tick wants a heartbeat on the wire
  bool flush_armed_ = false;  // a flush task, EPOLLOUT edge or tick will run

  // Gauges (mutex_).
  std::uint64_t hb_miss_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t dup_drops_ = 0;
  std::uint64_t queue_full_stalls_ = 0;

  // NTP four-timestamp state (mutex_). The peer's latest heartbeat send
  // time (peer clock) and our local receive time of it are echoed back on
  // our next heartbeat; a completed exchange yields one RTT/offset sample.
  static constexpr std::size_t kMaxRttSamples = 2048;
  std::uint64_t peer_hb_tx_ = 0;     // peer's latest ts_tx (peer clock)
  std::int64_t peer_hb_rx_ns_ = 0;   // local steady rx time of that
  std::vector<std::int64_t> rtt_samples_;
  std::uint64_t rtt_count_ = 0;
  std::int64_t best_rtt_ns_ = -1;
  std::int64_t offset_ns_ = 0;

  // Socket incarnations. `transport_` is the live one (null while down);
  // retired ones move to the graveyard and die with the session — an epoll
  // handler must outlive the loop's last dispatch (net/epoll_loop.h).
  std::unique_ptr<net::TcpLinkTransport> transport_;
  std::vector<std::unique_ptr<net::TcpLinkTransport>> graveyard_;

  std::thread reconnect_thread_;
  std::uint64_t jitter_state_;  // splitmix64, seeded deterministically
};

/// Acceptor-side rejoin: validate `msg` (a kRejoin read off a fresh
/// connection by the node's accept thread) against `session`, answer with
/// our own kRejoin carrying the local delivery cursor, and hand the socket
/// to the session. On a session-id mismatch (or null session) the join is
/// rejected with kRejectStaleSession and the fd closed. Returns success.
bool accept_rejoin(int fd, const net::wire::ControlMsg& msg,
                   std::uint64_t self_id, LinkSession* session);

}  // namespace cim::mesh
