// One TCP socket incarnation of a mesh edge (tools/cim_bridge,
// docs/BRIDGE.md): the byte-stream half of mesh::LinkSession.
//
// Framing: the stream carries wire-encoded TransportFrames (docs/WIRE.md
// type 7) — the in-sim ARQ's frame format, so a capture of the socket
// decodes with the same codec. This class only moves bytes: it reads,
// reassembles and decodes inbound frames and hands each one (pure ACKs and
// heartbeats included) to the session's frame callback, and it offers the
// session's flusher a gathered write primitive. Sequencing, acks, dedup,
// the replay journal and backpressure are the session's (mesh/link_session.h);
// a socket that dies is simply retired and replaced by a fresh incarnation.
// The mesh join handshake exchanges *bare* ControlMsg frames on the raw fd
// before a transport takes over the stream (docs/BRIDGE.md).
//
// I/O model: nonblocking, driven by a shared net::EpollLoop — edge-triggered
// readiness, one loop thread serving every link of the mesh node. write()
// sends up to kMaxIov frames in one sendmsg (a burst of small frames shares
// one syscall); when the kernel buffer fills, the next EPOLLOUT edge fires
// the writable callback and the session's flusher resumes. Every FaultHooks
// hook lives in these two paths (docs/FAULTS.md "Socket-level chaos").
//
// Threading: the frame and writable callbacks and write() run on the loop
// thread. close() may run on any thread under the owner's lock. The
// counters are atomics, readable from any thread, that the embedder folds
// into the registry (obs cells are not thread-safe), e.g. into the
// net.mesh.* counters.
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/reliable_transport.h"

namespace cim::net {

/// Bind + listen on `port` (all interfaces) with the given backlog. Returns
/// the listener fd; throws InvariantViolation on socket errors. A mesh node
/// sizes the backlog to its higher-id neighbor count so concurrent dialers
/// are queued, not refused (docs/BRIDGE.md "Join").
int tcp_listen(std::uint16_t port, int backlog = 1);

/// Wait until `fd` is readable, at most `timeout_ms` (<0: forever), or until
/// `wake_fd` (if >= 0) turns readable. True iff `fd` is readable and the
/// wake fd is not; false on timeout or wake.
bool wait_readable(int fd, int timeout_ms, int wake_fd = -1);

/// Accept one connection from `listener_fd`, waiting at most `timeout_ms`
/// (<0: forever) or until `wake_fd` (if >= 0) turns readable — a stop signal
/// that needs no poll timeout. Returns the connected fd, or -1 on timeout,
/// on wake, or on a transient accept() failure (EINTR, ECONNABORTED, EAGAIN,
/// EMFILE, ENFILE and the like), after which the listener is still usable.
int tcp_accept(int listener_fd, int timeout_ms = -1, int wake_fd = -1);

/// Connect to host:port, retrying (100ms apart) while the peer is not yet
/// listening. Returns the connected fd; throws after `retries` failures.
int tcp_connect(const char* host, std::uint16_t port, int retries = 100);

/// One connect attempt bounded by `timeout_ms` (nonblocking connect +
/// poll; the returned fd is blocking again). Returns -1 on refusal or
/// timeout instead of throwing — a reconnecting session must never sit in
/// kernel SYN retries for minutes when the peer's listener backlog is full
/// (docs/BRIDGE.md "Failure behavior").
int tcp_connect_timeout(const char* host, std::uint16_t port, int timeout_ms);

class TcpLinkTransport final : private EpollLoop::FdHandler {
 public:
  /// Frames gathered into one write() call. Well below IOV_MAX everywhere;
  /// large enough that an IS fan-out burst or a forwarding storm shares one
  /// syscall.
  static constexpr std::size_t kMaxIov = 64;

  /// Every decoded TransportFrame, on the loop thread.
  using FrameFn = std::function<void(std::unique_ptr<TransportFrame>)>;
  /// The socket may take bytes again (an EPOLLOUT edge), on the loop thread.
  using WritableFn = std::function<void()>;

  /// Takes ownership of the connected socket `fd`. The loop is borrowed; the
  /// transport must be destroyed only after `loop.stop()` (see epoll_loop.h).
  /// `faults` is a borrowed chaos switchboard; null = no faults.
  TcpLinkTransport(int fd, EpollLoop& loop, FaultHooks* faults = nullptr);
  ~TcpLinkTransport() override;
  TcpLinkTransport(const TcpLinkTransport&) = delete;
  TcpLinkTransport& operator=(const TcpLinkTransport&) = delete;

  /// Switch the fd nonblocking and register it with the loop.
  void start(FrameFn on_frame, WritableFn on_writable);

  /// Gathered send of `iov[0..n)`, n <= kMaxIov, one buffer per frame (the
  /// first may be the tail of a frame torn by an earlier write). Returns the
  /// bytes the socket took. Fewer than offered means the kernel buffer is
  /// full (or an injected stall pretends so): the writable callback fires on
  /// the next EPOLLOUT edge. -1 means the stream failed (error() says why).
  /// Loop thread only.
  ssize_t write(const iovec* iov, std::size_t n);

  /// Unregister from the loop and shut the socket down. Idempotent; called
  /// by the destructor if needed.
  void close();

  // ---- introspection -------------------------------------------------------
  /// Peer closed the stream (EOF) or the stream failed.
  bool peer_closed() const {
    return peer_closed_.load(std::memory_order_acquire);
  }
  /// Static description of a stream/decode failure, or null.
  const char* error() const { return error_.load(std::memory_order_acquire); }
  /// Steady-clock nanosecond stamp of the last bytes read off the socket
  /// (start time until then). The session layer's liveness timeout reads
  /// this: a peer that has gone silent for longer than the budget is
  /// presumed stalled and the link degrades (docs/BRIDGE.md).
  std::int64_t last_rx_ns() const {
    return last_rx_ns_.load(std::memory_order_relaxed);
  }

  // ---- net.mesh.* accounting (docs/OBSERVABILITY.md) -----------------------
  std::uint64_t wire_bytes_out() const {
    return bytes_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t wire_bytes_in() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  /// read() syscalls issued by the receive path.
  std::uint64_t syscalls_read() const {
    return syscalls_read_.load(std::memory_order_relaxed);
  }
  /// sendmsg()/send() syscalls issued by write().
  std::uint64_t syscalls_write() const {
    return syscalls_write_.load(std::memory_order_relaxed);
  }
  /// Frames completed by a syscall that completed two or more.
  std::uint64_t frames_coalesced() const {
    return frames_coalesced_.load(std::memory_order_relaxed);
  }

 private:
  // EpollLoop::FdHandler.
  void on_ready(std::uint32_t events) override;

  void drain_input();
  bool parse_frames();  // false on a decode/protocol error
  void fail(const char* error);

  int fd_;
  EpollLoop& loop_;
  FaultHooks* faults_;
  FrameFn on_frame_;
  WritableFn on_writable_;
  std::atomic<bool> started_{false};
  bool closed_ = false;

  // ---- receive side (loop thread only) -------------------------------------
  std::vector<std::uint8_t> inbuf_;
  std::size_t in_off_ = 0;  // parse offset into inbuf_

  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> syscalls_read_{0};
  std::atomic<std::uint64_t> syscalls_write_{0};
  std::atomic<std::uint64_t> frames_coalesced_{0};
  std::atomic<std::int64_t> last_rx_ns_{0};
  std::atomic<bool> peer_closed_{false};
  std::atomic<const char*> error_{nullptr};
};

}  // namespace cim::net
