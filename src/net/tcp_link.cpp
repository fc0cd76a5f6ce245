#include "net/tcp_link.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/reliable_transport.h"
#include "net/wire.h"

namespace cim::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nodelay(int fd) {
  // Mesh frames are small and latency-bound; Nagle would double-batch what
  // the session's flusher already coalesces.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CIM_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot set O_NONBLOCK: " << std::strerror(errno));
}

}  // namespace

int tcp_listen(std::uint16_t port, int backlog) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  CIM_CHECK_MSG(listener >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listener);
    CIM_CHECK_MSG(false, "bind(:" << port << ") failed: "
                                  << std::strerror(err));
  }
  if (::listen(listener, backlog) != 0) {
    const int err = errno;
    ::close(listener);
    CIM_CHECK_MSG(false, "listen() failed: " << std::strerror(err));
  }
  return listener;
}

bool wait_readable(int fd, int timeout_ms, int wake_fd) {
  pollfd pfd[2] = {{fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
  const nfds_t n_fds = wake_fd >= 0 ? 2 : 1;
  int n;
  do {
    n = ::poll(pfd, n_fds, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return false;  // timeout
  CIM_CHECK_MSG(n > 0, "poll() failed: " << std::strerror(errno));
  if (n_fds == 2 && pfd[1].revents != 0) return false;  // woken
  return pfd[0].revents != 0;
}

int tcp_accept(int listener_fd, int timeout_ms, int wake_fd) {
  if ((timeout_ms >= 0 || wake_fd >= 0) &&
      !wait_readable(listener_fd, timeout_ms, wake_fd))
    return -1;
  const int fd = ::accept(listener_fd, nullptr, nullptr);
  if (fd < 0) {
    // Transient: the connection died in the backlog, a signal landed, the
    // process or system is out of descriptors or buffers, or a pending
    // network error surfaced (accept(2) says to retry those). The listener
    // is intact and the caller polls again. Only a broken listener throws.
    CIM_CHECK_MSG(errno != EBADF && errno != ENOTSOCK && errno != EINVAL &&
                      errno != EFAULT,
                  "accept() failed: " << std::strerror(errno));
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

int tcp_connect(const char* host, std::uint16_t port, int retries) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  CIM_CHECK_MSG(::getaddrinfo(host, port_str.c_str(), &hints, &res) == 0,
                "cannot resolve " << host);

  int fd = -1;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    CIM_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
    if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
    // The peer may simply not be listening yet (the mesh launches every
    // node concurrently); back off and retry.
    ::usleep(100 * 1000);
  }
  ::freeaddrinfo(res);
  CIM_CHECK_MSG(fd >= 0, "cannot connect to " << host << ":" << port);
  set_nodelay(fd);
  return fd;
}

int tcp_connect_timeout(const char* host, std::uint16_t port, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host, port_str.c_str(), &hints, &res) != 0) return -1;

  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    if (::poll(&p, 1, timeout_ms) != 1) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // the rejoin handshake wants blocking I/O
  set_nodelay(fd);
  return fd;
}

TcpLinkTransport::TcpLinkTransport(int fd, EpollLoop& loop, FaultHooks* faults)
    : fd_(fd), loop_(loop), faults_(faults) {
  CIM_CHECK(fd >= 0);
}

TcpLinkTransport::~TcpLinkTransport() {
  close();
  ::close(fd_);
}

void TcpLinkTransport::close() {
  if (closed_) return;
  closed_ = true;
  if (started_.load(std::memory_order_acquire)) loop_.remove(fd_);
  ::shutdown(fd_, SHUT_RDWR);
  // The fd is unregistered, so the EOF that would normally set peer_closed_
  // will never be read — mark the stream dead here.
  peer_closed_.store(true, std::memory_order_release);
}

void TcpLinkTransport::start(FrameFn on_frame, WritableFn on_writable) {
  CIM_CHECK_MSG(!started_.load(std::memory_order_acquire),
                "start() called twice");
  on_frame_ = std::move(on_frame);
  on_writable_ = std::move(on_writable);
  set_nonblocking(fd_);
  last_rx_ns_.store(wall_ns(), std::memory_order_relaxed);
  started_.store(true, std::memory_order_release);
  loop_.add(fd_, this);
}

void TcpLinkTransport::fail(const char* error) {
  error_.store(error, std::memory_order_release);
  peer_closed_.store(true, std::memory_order_release);
}

ssize_t TcpLinkTransport::write(const iovec* in, std::size_t n) {
  CIM_CHECK(n <= kMaxIov);
  iovec iov[kMaxIov];
  std::copy(in, in + n, iov);
  std::size_t first = 0;  // first buffer not yet fully written
  std::size_t written = 0;
  while (first < n) {
    if (faults_ != nullptr) {
      // Injected stall: behave exactly like a full kernel buffer. The
      // session's heartbeat tick re-runs the flusher once it is cleared.
      if (faults_->stall_writes.load(std::memory_order_relaxed))
        return static_cast<ssize_t>(written);
      // Loop thread only, so a plain load/store countdown is race-free.
      const int left = faults_->fail_writes_after.load(std::memory_order_relaxed);
      if (left == 0) {
        fail("tcp link: injected write failure");
        return -1;
      }
      if (left > 0)
        faults_->fail_writes_after.store(left - 1, std::memory_order_relaxed);
    }
    const std::size_t write_cap =
        faults_ != nullptr
            ? faults_->max_write_bytes.load(std::memory_order_relaxed)
            : 0;
    ssize_t w;
    if (write_cap > 0) {
      // Clamped partial write: at most `write_cap` bytes of the front
      // buffer go out, tearing frames across syscalls.
      const std::size_t len = std::min(write_cap, iov[first].iov_len);
      w = ::send(fd_, iov[first].iov_base, len, MSG_NOSIGNAL);
    } else {
      // sendmsg, not writev: the gathered write needs MSG_NOSIGNAL too — a
      // kill -9'd peer must surface as EPIPE here, not as a SIGPIPE that
      // silently takes down the whole node (the read side racing to notice
      // the EOF first is what made this *intermittent*).
      msghdr mh{};
      mh.msg_iov = iov + first;
      mh.msg_iovlen = n - first;
      w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    }
    syscalls_write_.fetch_add(1, std::memory_order_relaxed);
    if (w < 0) {
      if (errno == EINTR) continue;
      // Kernel buffer full: the EPOLLOUT edge resumes the flusher.
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return static_cast<ssize_t>(written);
      fail("tcp link: write failed");
      return -1;
    }
    bytes_out_.fetch_add(static_cast<std::uint64_t>(w),
                         std::memory_order_relaxed);
    written += static_cast<std::size_t>(w);
    std::size_t left = static_cast<std::size_t>(w);
    std::size_t completed = 0;
    while (left > 0) {
      iovec& front = iov[first];
      if (left < front.iov_len) {
        front.iov_base = static_cast<std::uint8_t*>(front.iov_base) + left;
        front.iov_len -= left;
        break;
      }
      left -= front.iov_len;
      ++first;
      ++completed;
    }
    if (completed >= 2)
      frames_coalesced_.fetch_add(completed, std::memory_order_relaxed);
    // Short write: the kernel buffer is full even though sendmsg did not
    // say EAGAIN outright; wait for the EPOLLOUT edge. A clamp is not a full
    // buffer: keep going.
    if (first < n && write_cap == 0) break;
  }
  return static_cast<ssize_t>(written);
}

void TcpLinkTransport::on_ready(std::uint32_t events) {
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) drain_input();
  if ((events & EPOLLOUT) != 0) on_writable_();
}

void TcpLinkTransport::drain_input() {
  // Loop thread only. Edge-triggered: read until EAGAIN (or EOF/error).
  while (true) {
    if (faults_ != nullptr) {
      const int left = faults_->fail_reads_after.load(std::memory_order_relaxed);
      if (left == 0) {
        fail("tcp link: injected read failure");
        return;
      }
      if (left > 0)
        faults_->fail_reads_after.store(left - 1, std::memory_order_relaxed);
    }
    const std::size_t old_size = inbuf_.size();
    inbuf_.resize(old_size + kReadChunk);
    const ssize_t n = ::read(fd_, inbuf_.data() + old_size, kReadChunk);
    syscalls_read_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      inbuf_.resize(old_size);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail("tcp link: read failed");
      return;
    }
    if (n == 0) {
      inbuf_.resize(old_size);
      peer_closed_.store(true, std::memory_order_release);
      return;
    }
    inbuf_.resize(old_size + static_cast<std::size_t>(n));
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    last_rx_ns_.store(wall_ns(), std::memory_order_relaxed);
    if (!parse_frames()) return;
  }
}

bool TcpLinkTransport::parse_frames() {
  while (inbuf_.size() - in_off_ >= 4) {
    const std::uint8_t* p = inbuf_.data() + in_off_;
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i)
      body_len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    if (body_len > wire::kMaxBodyBytes) {
      fail("tcp link: oversized frame");
      return false;
    }
    const std::size_t frame_len = std::size_t{4} + body_len;
    if (inbuf_.size() - in_off_ < frame_len) break;

    wire::DecodeResult res = wire::decode(p, frame_len);
    if (!res.ok()) {
      fail(res.error);
      return false;
    }
    in_off_ += res.consumed;
    auto* frame = dynamic_cast<TransportFrame*>(res.msg.get());
    if (frame == nullptr) {
      fail("tcp link: stream message is not a transport frame");
      return false;
    }
    res.msg.release();
    on_frame_(std::unique_ptr<TransportFrame>(frame));
  }
  if (in_off_ == inbuf_.size()) {
    inbuf_.clear();
    in_off_ = 0;
  } else if (in_off_ >= kReadChunk) {
    inbuf_.erase(inbuf_.begin(),
                 inbuf_.begin() + static_cast<std::ptrdiff_t>(in_off_));
    in_off_ = 0;
  }
  return true;
}

}  // namespace cim::net
