// The session layer alone (src/mesh/link_session.h), with no MeshNode: two
// LinkSessions over a socketpair, each on its own EpollLoop like two
// cim_bridge processes. Covers the ordering contract the whole-mesh tests
// only reach indirectly — concurrent senders, frames torn across syscalls
// and a manual rejoin onto a fresh socket mid-stream still deliver every
// sender's payloads exactly once, in order — and the session's refusal of
// acks for frames it never sent.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "interconnect/pair_msg.h"
#include "mesh/link_session.h"
#include "net/epoll_loop.h"
#include "net/fault_inject.h"
#include "net/wire.h"

namespace cim {
namespace {

using mesh::LinkSession;
using mesh::LinkState;

constexpr const char* kAckNeverSent = "session: ack for a frame never sent";

mesh::SessionConfig session_config(std::uint64_t self, std::uint64_t peer,
                                   net::FaultHooks* faults) {
  mesh::SessionConfig c;
  c.session_id = 0x5E55;
  c.self_id = self;
  c.peer_id = peer;
  c.dialer = false;  // no reconnect thread: the test moves the sockets
  c.hb_interval_ms = 10;
  c.liveness_timeout_ms = 10'000;
  c.faults = faults;
  return c;
}

net::MessagePtr pair(std::uint16_t sender, std::uint32_t i) {
  auto msg = std::make_unique<isc::PairMsg>();
  msg->var = VarId{sender};
  msg->value = Value{i};
  msg->write_id = WriteId::make(ProcId{SystemId{0}, sender}, i);
  return msg;
}

template <typename Pred>
bool spin_until(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(20'000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Every payload one session delivered, in delivery order (loop thread).
struct Inbox {
  std::mutex mutex;
  std::vector<std::pair<std::uint32_t, Value>> got;

  LinkSession::DeliverFn fn() {
    return [this](net::MessagePtr msg) {
      const auto& p = static_cast<const isc::PairMsg&>(*msg);
      std::lock_guard<std::mutex> lock(mutex);
      got.emplace_back(p.var.value, p.value);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex);
    return got.size();
  }
};

void write_frame(int fd, const net::TransportFrame& frame) {
  std::vector<std::uint8_t> buf;
  net::wire::encode(frame, buf);
  ASSERT_EQ(::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(buf.size()));
}

TEST(LinkSession, ConcurrentSendersTornWritesAndARejoinKeepFifoExactlyOnce) {
  constexpr int kSenders = 4;  // two per direction
  // More per direction than the journal bound holds, so the senders block
  // on it and are provably still sending when the rejoin below happens.
  constexpr std::uint32_t kPerSender = 4000;
  static_assert(2 * kPerSender * 2 / 3 > LinkSession::kJournalMaxFrames);
  net::FaultHooks hooks[2];
  for (auto& h : hooks) h.max_write_bytes.store(7);  // every frame tears
  net::EpollLoop loop0;
  net::EpollLoop loop1;
  loop0.start();
  loop1.start();
  LinkSession s0(session_config(0, 1, &hooks[0]), loop0, nullptr);
  LinkSession s1(session_config(1, 0, &hooks[1]), loop1, nullptr);
  LinkSession* sessions[2] = {&s0, &s1};
  Inbox inbox[2];

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  s0.start(fds[0], inbox[0].fn());
  s1.start(fds[1], inbox[1].fn());

  std::vector<std::thread> senders;
  for (int k = 0; k < kSenders; ++k) {
    senders.emplace_back([&, k] {
      LinkSession& out = *sessions[k % 2];
      for (std::uint32_t i = 0; i < kPerSender; ++i)
        out.send(pair(static_cast<std::uint16_t>(k), i));
    });
  }

  // Mid-stream, kill session 1's socket from its receive side — whatever
  // is in flight or half-read is lost — then move both ends onto a fresh
  // socketpair, the way a rejoin handshake would: each side trims to the
  // peer's delivery cursor and replays the rest while the senders keep
  // going.
  constexpr std::size_t kPerInbox = kPerSender * kSenders / 2;
  EXPECT_TRUE(spin_until([&] { return inbox[1].size() >= kPerInbox / 3; }));
  hooks[1].fail_reads_after.store(0);
  EXPECT_TRUE(spin_until([&] { return !s1.connected(); }));
  hooks[1].fail_reads_after.store(-1);
  int fresh[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fresh), 0);
  s0.resume_with_socket(fresh[0], s1.recv_expected());
  s1.resume_with_socket(fresh[1], s0.recv_expected());

  const bool all_in = spin_until([&] {
    return inbox[0].size() >= kPerInbox && inbox[1].size() >= kPerInbox;
  });
  s0.stop();  // also releases senders still blocked on a journal bound
  s1.stop();
  for (auto& t : senders) t.join();
  loop0.stop();
  loop1.stop();
  ASSERT_TRUE(all_in) << inbox[0].size() << " / " << inbox[1].size()
                      << " of " << kPerInbox << " delivered";

  for (int side = 0; side < 2; ++side) {
    EXPECT_NE(sessions[side]->state(), LinkState::kFailed)
        << "session " << side << ": " << sessions[side]->error();
    // Inbox `side` holds what the other session's senders sent.
    std::vector<std::uint32_t> next(kSenders, 0);
    for (const auto& [sender, value] : inbox[side].got) {
      ASSERT_EQ(static_cast<int>(sender % 2), 1 - side);
      ASSERT_EQ(value, Value{next[sender]})
          << "sender " << sender << " out of order or duplicated";
      ++next[sender];
    }
    for (int k = 1 - side; k < kSenders; k += 2) EXPECT_EQ(next[k], kPerSender);
    EXPECT_EQ(sessions[side]->data_sent(),
              sessions[1 - side]->data_delivered());
  }
  EXPECT_GE(s0.resumes(), 1u);
  EXPECT_GE(s1.resumes(), 1u);
}

TEST(LinkSession, AckForAFrameNeverSentFailsTheSession) {
  net::EpollLoop loop;
  loop.start();
  LinkSession s(session_config(0, 1, nullptr), loop, nullptr);
  Inbox inbox;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  s.start(fds[0], inbox.fn());
  s.send(pair(0, 0));
  s.send(pair(0, 1));

  // Acking exactly what was sent is fine and empties the journal.
  net::TransportFrame ack;
  ack.ack = 2;
  write_frame(fds[1], ack);
  EXPECT_TRUE(spin_until([&] { return s.backlog() == 0; }));
  EXPECT_EQ(s.state(), LinkState::kUp);

  // One past it is a lie: the session fails by name instead of trimming.
  s.send(pair(0, 2));
  ack.ack = 4;
  write_frame(fds[1], ack);
  EXPECT_TRUE(spin_until([&] { return s.state() == LinkState::kFailed; }));
  EXPECT_STREQ(s.error(), kAckNeverSent);
  EXPECT_EQ(s.backlog(), 1u);  // the unacked pair was not popped
  s.stop();
  loop.stop();
  ::close(fds[1]);
}

TEST(LinkSession, RejoinCursorBeyondWhatWasSentFailsTheSession) {
  net::EpollLoop loop;
  loop.start();
  LinkSession s(session_config(0, 1, nullptr), loop, nullptr);
  Inbox inbox;
  s.start(-1, inbox.fn());  // socketless, as after a restart
  s.send(pair(0, 0));
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  s.resume_with_socket(fds[0], /*peer_delivered=*/9);
  EXPECT_EQ(s.state(), LinkState::kFailed);
  EXPECT_STREQ(s.error(), kAckNeverSent);
  EXPECT_EQ(s.backlog(), 1u);
  EXPECT_FALSE(s.connected());
  s.stop();
  loop.stop();
  ::close(fds[1]);
}

}  // namespace
}  // namespace cim
