#include "mesh/link_session.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "mesh/ctrl_io.h"

namespace cim::mesh {

namespace {

using net::wire::ControlMsg;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

LinkSession::LinkSession(SessionConfig cfg, net::EpollLoop& loop,
                         SpillJournal* journal)
    : cfg_(std::move(cfg)),
      loop_(loop),
      spill_(journal),
      jitter_state_(cfg_.session_id ^ (cfg_.self_id << 32) ^ 0xC1A05EEDULL) {}

LinkSession::~LinkSession() { stop(); }

void LinkSession::restore(const SpillLinkState& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  CIM_CHECK_MSG(!deliver_, "restore() must precede start()");
  acked_ = s.acked;
  send_next_ = s.send_next;
  data_sent_ = s.data_sent;
  recv_expected_ = s.recv_expected;
  data_delivered_ = s.data_delivered;
  journal_.clear();
  journal_bytes_ = 0;
  std::uint64_t seq = s.send_next - s.frames.size();
  for (const auto& f : s.frames) {
    journal_bytes_ += f.size();
    journal_.push_back(Entry{seq++, f});
  }
}

void LinkSession::attach_locked(int fd) {
  transport_ = std::make_unique<net::TcpLinkTransport>(fd, loop_, cfg_.faults);
  transport_->start(
      [this](std::unique_ptr<net::TransportFrame> f) { on_frame(std::move(f)); },
      [this] { flush(); });
  flush_armed_ = false;
  post_flush_locked();
}

void LinkSession::bury_locked() {
  if (transport_ == nullptr) return;
  transport_->close();
  graveyard_.push_back(std::move(transport_));
  // A new incarnation starts on a frame boundary; a torn frame is replayed
  // whole from the journal, a torn control frame is simply dropped.
  wire_off_ = 0;
  ctl_buf_.clear();
  ctl_off_ = 0;
}

void LinkSession::start(int fd, DeliverFn deliver) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deliver_ = std::move(deliver);
    if (fd >= 0) {
      attach_locked(fd);
      state_ = LinkState::kUp;
    } else {
      // Resumed node: no socket yet. The dialer re-dials below; the acceptor
      // degrades until the peer's rejoin lands on the node's listener.
      state_ = LinkState::kDegraded;
      degraded_since_ns_ = steady_ns();
    }
  }
  arm_tick();
  if (cfg_.dialer) reconnect_thread_ = std::thread([this] { reconnect_main(); });
}

void LinkSession::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    bury_locked();
    journal_cv_.notify_all();
    reconnect_cv_.notify_all();
  }
  if (reconnect_thread_.joinable()) reconnect_thread_.join();
}

void LinkSession::begin_shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
}

bool LinkSession::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Both halves of the closing handshake: the peer acked everything we sent
  // (journal empty), and the acks we owe it are written — so closing now
  // cannot strand a peer that waits on one. A dead stream owes nothing more.
  return journal_.empty() &&
         (transport_ == nullptr || transport_->peer_closed() ||
          (ctl_buf_.empty() && !ack_owed_ && !hb_owed_));
}

void LinkSession::handle_ack_locked(std::uint64_t ack) {
  if (ack <= acked_) return;
  if (ack > send_next_) {
    // Trusting it would pop unsent frames — pairs silently lost — and make
    // every later real ack look stale, so the drain could only time out.
    fail_locked("session: ack for a frame never sent");
    return;
  }
  acked_ = ack;
  if (spill_ != nullptr) spill_->record_acked(cfg_.link_index, acked_);
  trim_locked();
}

void LinkSession::trim_locked() {
  bool popped = false;
  while (!journal_.empty() && journal_.front().seq < acked_ &&
         (journal_.front().seq != wire_next_ || wire_off_ == 0)) {
    journal_bytes_ -= journal_.front().bytes.size();
    journal_.pop_front();
    popped = true;
  }
  if (popped) journal_cv_.notify_all();
}

void LinkSession::retire_locked() {
  bury_locked();
  if (state_ == LinkState::kUp) {
    state_ = LinkState::kDegraded;
    degraded_since_ns_ = steady_ns();
  }
  reconnect_cv_.notify_all();
}

void LinkSession::fail_locked(const char* why) {
  if (state_ == LinkState::kFailed) return;
  state_ = LinkState::kFailed;
  error_ = why;
  bury_locked();
  journal_cv_.notify_all();
  reconnect_cv_.notify_all();
}

void LinkSession::send(net::MessagePtr msg) {
  std::unique_lock<std::mutex> lock(mutex_);
  // The journal bound IS the backpressure: the sender (engine thread) blocks
  // here until the peer's ACKs make room again — bounded buffering, not
  // unbounded growth, not a dead node, however long the link is down.
  if (journal_full_locked()) {
    ++queue_full_stalls_;
    journal_cv_.wait(lock, [this] {
      return !journal_full_locked() || state_ == LinkState::kFailed ||
             stopped_;
    });
  }
  if (state_ == LinkState::kFailed || stopped_) return;

  const bool is_ctrl = std::strcmp(msg->type_name(), "wire.ctrl") == 0;
  // Stats frames ride the session like control traffic: journaled and
  // replayed for FIFO integrity, but excluded from the pair accounting the
  // done/bye convergecast drains against (docs/BRIDGE.md).
  const bool is_meta =
      is_ctrl || std::strcmp(msg->type_name(), "wire.stats") == 0;
  std::uint8_t ctrl_code = 0;
  if (is_ctrl) ctrl_code = static_cast<const ControlMsg&>(*msg).code;

  net::TransportFrame frame;
  frame.seq = send_next_++;
  frame.ack = recv_expected_;
  frame.payload = std::move(msg);
  journal_.push_back(Entry{frame.seq, {}});
  std::vector<std::uint8_t>& buf = journal_.back().bytes;
  net::wire::encode(frame, buf);

  if (!is_meta) ++data_sent_;
  journal_bytes_ += buf.size();
  if (spill_ != nullptr) {
    spill_->record_sent(cfg_.link_index, data_sent_, buf.data(), buf.size());
    if (is_ctrl && (ctrl_code == ControlMsg::kDone ||
                    ctrl_code == ControlMsg::kBye))
      spill_->record_ctrl_sent(cfg_.link_index, ctrl_code);
  }
  if (loop_.on_loop_thread()) {
    flush_locked();
  } else {
    post_flush_locked();
  }
}

void LinkSession::post_flush_locked() {
  if (flush_armed_ || transport_ == nullptr) return;
  flush_armed_ = true;
  loop_.post([this] { flush(); });
}

void LinkSession::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void LinkSession::encode_ctl_locked() {
  net::TransportFrame f;
  f.ack = recv_expected_;
  if (hb_owed_) {
    // NTP exchange (docs/OBSERVABILITY.md): echo the peer's latest heartbeat
    // send time and our receive time of it, stamp our own send time. Data
    // frames and done/bye acks never carry these, so only heartbeats pay
    // the 24-byte v2 tail.
    f.ts_orig = peer_hb_tx_;
    f.ts_rx = static_cast<std::uint64_t>(peer_hb_rx_ns_);
    f.ts_tx = static_cast<std::uint64_t>(steady_ns());
  }
  net::wire::encode(f, ctl_buf_);
  ctl_hb_ = hb_owed_;
  ack_owed_ = false;
  hb_owed_ = false;
}

void LinkSession::flush_locked() {
  flush_armed_ = false;
  net::TcpLinkTransport* t = transport_.get();
  // A dead stream takes no more bytes: the journal keeps everything unacked
  // and the next rejoin rewinds wire_next_.
  if (t == nullptr || t->peer_closed()) return;
  constexpr std::size_t kMaxIov = net::TcpLinkTransport::kMaxIov;
  while (true) {
    const std::uint64_t front =
        journal_.empty() ? send_next_ : journal_.front().seq;
    if (wire_next_ < front) wire_next_ = front;  // acked under our feet
    if (ctl_buf_.empty() && (ack_owed_ || hb_owed_)) encode_ctl_locked();

    // Batch order: the torn frame (if any), the control frame, then the
    // journal tail. A pure ACK carries no seq, so it may pass data frames.
    iovec iov[kMaxIov];
    std::size_t n = 0;
    std::size_t ctl_at = kMaxIov;  // batch slot of the control frame
    const auto add_ctl = [&] {
      iov[n].iov_base = ctl_buf_.data() + ctl_off_;
      iov[n].iov_len = ctl_buf_.size() - ctl_off_;
      ctl_at = n++;
    };
    if (!ctl_buf_.empty() && wire_off_ == 0) add_ctl();
    for (std::uint64_t seq = wire_next_; seq < send_next_ && n < kMaxIov;
         ++seq) {
      std::vector<std::uint8_t>& b = journal_[seq - front].bytes;
      const std::size_t off = seq == wire_next_ ? wire_off_ : 0;
      iov[n].iov_base = b.data() + off;
      iov[n].iov_len = b.size() - off;
      ++n;
      if (!ctl_buf_.empty() && ctl_at == kMaxIov && n < kMaxIov) add_ctl();
    }
    if (n == 0) return;

    const ssize_t written = t->write(iov, n);
    if (written < 0) return;  // stream failed: the tick retires it
    std::size_t left = static_cast<std::size_t>(written);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += iov[i].iov_len;
      const std::size_t took = std::min(left, iov[i].iov_len);
      left -= took;
      if (took == 0) continue;
      const bool whole = took == iov[i].iov_len;
      if (i == ctl_at) {
        ctl_off_ = whole ? 0 : ctl_off_ + took;
        if (whole) ctl_buf_.clear();
      } else if (whole) {
        ++wire_next_;
        wire_off_ = 0;
      } else {
        wire_off_ += took;
      }
    }
    // A torn frame the peer acked meanwhile is complete now: pop it.
    if (!journal_.empty() && journal_.front().seq < acked_) trim_locked();
    if (static_cast<std::size_t>(written) < total) {
      // Socket full (or an injected stall): the EPOLLOUT edge or the next
      // tick resumes us.
      flush_armed_ = true;
      return;
    }
  }
}

void LinkSession::on_frame(std::unique_ptr<net::TransportFrame> frame) {
  net::MessagePtr payload;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    handle_ack_locked(frame->ack);
    if (state_ == LinkState::kFailed) return;
    if (frame->ts_tx != 0) {
      // Heartbeat timestamps (wire transport v2). With the echo fields set
      // this frame completes an NTP four-timestamp exchange:
      //   t1 = our earlier send (local clock, echoed back)
      //   t2 = peer's receive of it, t3 = peer's send (peer clock)
      //   t4 = now (local clock)
      // rtt subtracts the peer's hold time, so it measures the path alone;
      // offset = ((t2-t1)+(t3-t4))/2 is peer-minus-local, and keeping the
      // minimum-RTT exchange bounds its error by rtt/2 — injected stalls
      // widen RTT but can only make us *keep* an older, tighter estimate.
      const std::int64_t t4 = steady_ns();
      if (frame->ts_orig != 0) {
        const auto t1 = static_cast<std::int64_t>(frame->ts_orig);
        const auto t2 = static_cast<std::int64_t>(frame->ts_rx);
        const auto t3 = static_cast<std::int64_t>(frame->ts_tx);
        const std::int64_t rtt = (t4 - t1) - (t3 - t2);
        if (rtt >= 0) {
          ++rtt_count_;
          if (rtt_samples_.size() < kMaxRttSamples)
            rtt_samples_.push_back(rtt);
          if (best_rtt_ns_ < 0 || rtt < best_rtt_ns_) {
            best_rtt_ns_ = rtt;
            offset_ns_ = ((t2 - t1) + (t3 - t4)) / 2;
          }
        }
      }
      peer_hb_tx_ = frame->ts_tx;
      peer_hb_rx_ns_ = t4;
    }
    if (!frame->payload) return;  // pure ACK / heartbeat
    if (frame->seq < recv_expected_) {
      // Replay overlap after a rejoin (or an in-flight frame racing one):
      // already delivered, drop — this is the zero-dup guarantee.
      ++dup_drops_;
      return;
    }
    if (frame->seq > recv_expected_) {
      fail_locked("session: sequence gap on an ordered stream");
      return;
    }
    ++recv_expected_;
    const bool is_ctrl =
        std::strcmp(frame->payload->type_name(), "wire.ctrl") == 0;
    const bool is_meta =
        is_ctrl ||
        std::strcmp(frame->payload->type_name(), "wire.stats") == 0;
    if (!is_meta) ++data_delivered_;
    const auto* ctrl =
        is_ctrl ? static_cast<const ControlMsg*>(frame->payload.get())
                : nullptr;
    const bool closing = ctrl != nullptr && (ctrl->code == ControlMsg::kDone ||
                                             ctrl->code == ControlMsg::kBye);
    if (spill_ != nullptr) {
      // Record-then-deliver: once the cursor is on disk the frame is
      // never accepted again, so a crash between the two leaves at most a
      // recorded-but-unapplied write — invisible, which causal memory
      // explicitly allows; a duplicate apply would not be.
      spill_->record_delivered(cfg_.link_index, recv_expected_,
                               data_delivered_);
      if (closing)
        spill_->record_ctrl_delivered(cfg_.link_index, ctrl->code, ctrl->a);
    }
    if (closing) {
      // Closing handshake (docs/BRIDGE.md "Termination"): ack done/bye now,
      // not on the next heartbeat — the peer's final drain waits on exactly
      // this ack. A pure-ACK frame without the heartbeat's timestamp tail.
      ack_owed_ = true;
      flush_locked();
    }
    payload = std::move(frame->payload);
  }
  deliver_(std::move(payload));
}

void LinkSession::arm_tick() {
  loop_.post_after(cfg_.hb_interval_ms, [this] { tick(); });
}

void LinkSession::tick() {
  bool rearm = true;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    const std::int64_t now = steady_ns();
    net::TcpLinkTransport* t = transport_.get();
    if (t != nullptr) {
      if (t->error() != nullptr || t->peer_closed()) {
        if (shutdown_ && journal_.empty()) {
          // Clean goodbye during the final drain: retire quietly, stay kUp.
          bury_locked();
        } else {
          retire_locked();
        }
      } else {
        const std::int64_t silence = now - t->last_rx_ns();
        if (silence > std::int64_t{cfg_.liveness_timeout_ms} * 1'000'000) {
          // Peer is silent (SIGSTOP, stall): degraded, not dead. Senders
          // keep blocking on the journal bound; delivery resumes the moment
          // bytes flow again.
          ++hb_miss_;
          if (state_ == LinkState::kUp) {
            state_ = LinkState::kDegraded;
            degraded_since_ns_ = now;
          }
        } else if (state_ == LinkState::kDegraded) {
          state_ = LinkState::kUp;
          ++resumes_;
        }
        // Heartbeat: a pure-ACK frame, the steady-state ack carrier when no
        // data frame flows back (done/bye are acked at once instead, see
        // on_frame). It supersedes a pure ACK still waiting unwritten (it
        // carries the ack too); a waiting heartbeat keeps its stamps, so a
        // stall shows as RTT. The flush doubles as the flusher's watchdog:
        // a cleared injected stall or a missed EPOLLOUT edge resumes here.
        if (ctl_off_ == 0 && !ctl_hb_) ctl_buf_.clear();
        if (ctl_buf_.empty()) hb_owed_ = true;
        flush_locked();
      }
    }
    if (state_ == LinkState::kDegraded && cfg_.degraded_timeout_ms > 0 &&
        now - degraded_since_ns_ >
            std::int64_t{cfg_.degraded_timeout_ms} * 1'000'000) {
      fail_locked("session: degraded past the failure budget");
    }
    if (state_ == LinkState::kFailed) rearm = false;
  }
  if (rearm) arm_tick();
}

int LinkSession::dial_and_rejoin(std::uint64_t delivered,
                                 std::uint64_t& peer_delivered, bool& stale) {
  // Time-bounded dial: a full or unserviced listener backlog must cost one
  // handshake budget, not minutes of kernel SYN retries.
  const int fd = net::tcp_connect_timeout(cfg_.host.c_str(), cfg_.peer_port,
                                          cfg_.handshake_timeout_ms);
  if (fd < 0) return -1;
  ControlMsg rejoin;
  rejoin.code = ControlMsg::kRejoin;
  rejoin.a = cfg_.self_id;
  rejoin.b = cfg_.session_id;
  rejoin.c = delivered;
  ControlMsg reply;
  if (!send_ctrl_fd(fd, rejoin) ||
      recv_ctrl_fd(fd, cfg_.handshake_timeout_ms, reply) != nullptr) {
    ::close(fd);
    return -1;
  }
  if (reply.code == ControlMsg::kJoinReject) {
    if (reply.b == kRejectStaleSession) stale = true;
    ::close(fd);
    return -1;
  }
  if (reply.code != ControlMsg::kRejoin || reply.b != cfg_.session_id) {
    ::close(fd);
    return -1;
  }
  peer_delivered = reply.c;
  return fd;
}

void LinkSession::reconnect_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopped_) {
    reconnect_cv_.wait(lock, [this] {
      return stopped_ ||
             (transport_ == nullptr && state_ != LinkState::kFailed &&
              (!shutdown_ || !journal_.empty()));
    });
    if (stopped_) break;
    int attempt = 0;
    while (!stopped_ && transport_ == nullptr &&
           state_ != LinkState::kFailed) {
      // Capped exponential backoff with deterministic jitter so two dialers
      // sharing a host never re-dial in lockstep.
      const int shift = std::min(attempt, 10);
      std::int64_t delay = std::int64_t{cfg_.backoff_initial_ms} << shift;
      delay = std::min<std::int64_t>(delay, cfg_.backoff_max_ms);
      delay += static_cast<std::int64_t>(splitmix64(jitter_state_) %
                                         (static_cast<std::uint64_t>(delay) / 2 + 1));
      reconnect_cv_.wait_for(lock, std::chrono::milliseconds(delay), [this] {
        return stopped_ || transport_ != nullptr;
      });
      // A final drain with nothing left to replay has no use for a socket.
      if (stopped_ || transport_ != nullptr || state_ == LinkState::kFailed ||
          (shutdown_ && journal_.empty()))
        break;
      const std::uint64_t delivered = recv_expected_;
      lock.unlock();
      std::uint64_t peer_delivered = 0;
      bool stale = false;
      const int fd = dial_and_rejoin(delivered, peer_delivered, stale);
      if (fd >= 0) {
        resume_with_socket(fd, peer_delivered);
        lock.lock();
        break;
      }
      lock.lock();
      if (stale) {
        // The peer runs a different session epoch (a whole-mesh restart
        // under our feet): replaying into it would corrupt causal order.
        fail_locked("rejoin rejected: stale session id");
        break;
      }
      ++attempt;
      if (cfg_.reconnect_attempts > 0 && attempt >= cfg_.reconnect_attempts) {
        fail_locked("session: reconnect attempts exhausted");
        break;
      }
    }
  }
}

void LinkSession::resume_with_socket(int fd, std::uint64_t peer_delivered) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_ || state_ == LinkState::kFailed) {
    ::close(fd);
    return;
  }
  if (transport_ != nullptr) retire_locked();  // superseded incarnation
  handle_ack_locked(peer_delivered);
  if (state_ == LinkState::kFailed) {
    ::close(fd);
    return;
  }
  // Rewind the wire cursor to the first unacked frame: the next flush IS the
  // replay, and because the flusher is the only path to the wire, no
  // concurrently-sent fresh frame can jump ahead of it. Duplicates (an ack
  // racing the replay) die at the peer's receive cursor.
  wire_next_ = journal_.empty() ? send_next_ : journal_.front().seq;
  attach_locked(fd);
  state_ = LinkState::kUp;
  ++resumes_;
  journal_cv_.notify_all();
  reconnect_cv_.notify_all();
}

std::size_t LinkSession::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_.size();
}

std::uint64_t LinkSession::wire_bytes_out() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = transport_ ? transport_->wire_bytes_out() : 0;
  for (const auto& g : graveyard_) n += g->wire_bytes_out();
  return n;
}

std::uint64_t LinkSession::wire_bytes_in() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = transport_ ? transport_->wire_bytes_in() : 0;
  for (const auto& g : graveyard_) n += g->wire_bytes_in();
  return n;
}

std::uint64_t LinkSession::syscalls_read() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = transport_ ? transport_->syscalls_read() : 0;
  for (const auto& g : graveyard_) n += g->syscalls_read();
  return n;
}

std::uint64_t LinkSession::syscalls_write() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = transport_ ? transport_->syscalls_write() : 0;
  for (const auto& g : graveyard_) n += g->syscalls_write();
  return n;
}

std::uint64_t LinkSession::frames_coalesced() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = transport_ ? transport_->frames_coalesced() : 0;
  for (const auto& g : graveyard_) n += g->frames_coalesced();
  return n;
}

std::uint64_t LinkSession::queue_full_stalls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_full_stalls_;
}

LinkState LinkSession::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const char* LinkSession::error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

std::uint64_t LinkSession::recv_expected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recv_expected_;
}

bool LinkSession::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transport_ != nullptr;
}

std::uint64_t LinkSession::data_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_sent_;
}

std::uint64_t LinkSession::data_delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_delivered_;
}

std::uint64_t LinkSession::hb_miss() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hb_miss_;
}

std::uint64_t LinkSession::resumes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resumes_;
}

std::uint64_t LinkSession::dup_drops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dup_drops_;
}

bool LinkSession::down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ != LinkState::kUp;
}

std::vector<std::int64_t> LinkSession::rtt_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rtt_samples_;
}

std::int64_t LinkSession::clock_offset_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return offset_ns_;
}

std::int64_t LinkSession::best_rtt_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return best_rtt_ns_;
}

std::uint64_t LinkSession::rtt_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rtt_count_;
}

bool accept_rejoin(int fd, const ControlMsg& msg, std::uint64_t self_id,
                   LinkSession* session) {
  if (session == nullptr || msg.b != session->session_id()) {
    send_ctrl_fd(fd, ControlMsg::kJoinReject, self_id, kRejectStaleSession);
    ::close(fd);
    return false;
  }
  ControlMsg reply;
  reply.code = ControlMsg::kRejoin;
  reply.a = self_id;
  reply.b = session->session_id();
  reply.c = session->recv_expected();
  // Reply before any replay frame can enter the stream: the dialer is
  // blocking on exactly one control frame, and TCP keeps the order.
  if (!send_ctrl_fd(fd, reply)) {
    ::close(fd);
    return false;
  }
  session->resume_with_socket(fd, msg.c);
  return true;
}

}  // namespace cim::mesh
