// Socket-runtime tests: wire framing and reassembly over real byte streams
// (including pathological split points), two in-process SocketBackends
// exchanging protocol messages over genuine TCP loopback, and transport-
// level reconnect — a killed connection redials and the reliable layer's
// existing per-channel seq state retransmits and dedups across it, so
// delivery stays exactly-once in order.
//
// The multi-process (fork/exec) path is exercised by CI's socket-smoke job
// through paris_sim; spawning children from a gtest binary would re-exec
// the test runner, so these tests stay in-process by design.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/reliable_transport.h"
#include "runtime/socket_runtime.h"

namespace paris::test {
namespace {

using runtime::ReliableConfig;
using runtime::ReliableTransport;
using runtime::SocketBackend;
using namespace runtime::sockdetail;

// ---------------------------------------------------------------------------
// Framing + reassembly.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(seed + i);
  return p;
}

TEST(SocketFraming, RoundTripsSingleFrame) {
  const auto payload = payload_of(37, 3);
  std::vector<std::uint8_t> wire;
  append_frame(wire, /*from=*/7, /*to=*/11, payload.data(), payload.size());
  ASSERT_EQ(wire.size(), 4u + 8u + payload.size());

  FrameReassembler ra;
  ASSERT_TRUE(ra.feed(wire.data(), wire.size()));
  Frame f;
  ASSERT_TRUE(ra.next(f));
  EXPECT_EQ(f.from, 7u);
  EXPECT_EQ(f.to, 11u);
  EXPECT_EQ(f.bytes, payload);
  EXPECT_FALSE(ra.next(f));
  EXPECT_EQ(ra.buffered(), 0u);
}

TEST(SocketFraming, ReassemblesAcrossArbitrarySplits) {
  // Many frames of varying sizes, fed in chunks of every awkward size
  // (1..13 bytes): every split point inside headers and payloads occurs.
  std::vector<std::uint8_t> wire;
  const int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    const auto p = payload_of(static_cast<std::size_t>(1 + (i * 37) % 300),
                              static_cast<std::uint8_t>(i));
    append_frame(wire, static_cast<NodeId>(i), static_cast<NodeId>(i + 1), p.data(),
                 p.size());
  }

  FrameReassembler ra;
  std::vector<Frame> got;
  std::size_t off = 0;
  int chunk = 1;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(chunk),
                                                wire.size() - off);
    ASSERT_TRUE(ra.feed(wire.data() + off, n));
    off += n;
    chunk = chunk % 13 + 1;
    Frame f;
    while (ra.next(f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].from, static_cast<NodeId>(i));
    EXPECT_EQ(got[i].to, static_cast<NodeId>(i + 1));
    EXPECT_EQ(got[i].bytes,
              payload_of(static_cast<std::size_t>(1 + (i * 37) % 300),
                         static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(ra.buffered(), 0u);
}

TEST(SocketFraming, RejectsCorruptLengthPrefix) {
  std::vector<std::uint8_t> wire;
  const auto p = payload_of(8, 1);
  append_frame(wire, 1, 2, p.data(), p.size());
  wire[0] = 0xff;  // length explodes past kMaxFrame
  wire[1] = 0xff;
  wire[2] = 0xff;
  wire[3] = 0xff;
  FrameReassembler ra;
  ra.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(ra.next(f));
  EXPECT_FALSE(ra.feed(wire.data(), 1)) << "a corrupt stream must stay rejected";

  // A frame claiming to be shorter than its own from/to header is equally
  // corrupt (len < 8).
  std::vector<std::uint8_t> runt = {4, 0, 0, 0, 1, 2, 3, 4};
  FrameReassembler rb;
  rb.feed(runt.data(), runt.size());
  EXPECT_FALSE(rb.next(f));
  EXPECT_FALSE(rb.feed(runt.data(), 1));
}

TEST(SocketFraming, SurvivesShortWritesAndPartialReadsOverASocketpair) {
  // A real kernel byte stream: write the encoded frames in deliberately
  // tiny bursts, read in odd-sized sips, reassemble on the far end.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::vector<std::uint8_t> wire;
  const int kFrames = 32;
  for (int i = 0; i < kFrames; ++i) {
    const auto p = payload_of(static_cast<std::size_t>(11 + 61 * i % 500),
                              static_cast<std::uint8_t>(i * 3));
    append_frame(wire, static_cast<NodeId>(100 + i), static_cast<NodeId>(200 + i),
                 p.data(), p.size());
  }

  std::size_t woff = 0;
  int wchunk = 1;
  FrameReassembler ra;
  std::vector<Frame> got;
  std::uint8_t buf[97];  // deliberately not a power of two
  while (woff < wire.size() || true) {
    if (woff < wire.size()) {
      const std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(wchunk),
                                                  wire.size() - woff);
      ASSERT_EQ(write(sv[0], wire.data() + woff, n), static_cast<ssize_t>(n));
      woff += n;
      wchunk = wchunk % 7 + 1;
      if (woff == wire.size()) close(sv[0]);
    }
    const ssize_t r = read(sv[1], buf, sizeof(buf));
    if (r == 0) break;  // EOF after the writer closed
    ASSERT_GT(r, 0);
    ASSERT_TRUE(ra.feed(buf, static_cast<std::size_t>(r)));
    Frame f;
    while (ra.next(f)) got.push_back(f);
  }
  close(sv[1]);

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].from, static_cast<NodeId>(100 + i));
    EXPECT_EQ(got[i].to, static_cast<NodeId>(200 + i));
  }
}

// ---------------------------------------------------------------------------
// Two in-process backends over real TCP loopback.
// ---------------------------------------------------------------------------

/// Records delivered Commit2pc payloads. The vectors are read only after
/// stop() (the join gives happens-before); live progress is polled through
/// the atomic counter, so the main thread's spin loops race nothing.
class SinkActor : public runtime::Actor {
 public:
  void on_message(NodeId from, const wire::Message& m) override {
    ASSERT_EQ(m.type(), wire::MsgType::kCommit2pc);
    values.push_back(static_cast<const wire::Commit2pc&>(m).tx.raw);
    froms.push_back(from);
    delivered.store(values.size(), std::memory_order_release);
  }
  std::vector<std::uint64_t> values;
  std::vector<NodeId> froms;
  std::atomic<std::size_t> delivered{0};
};

class NullActor : public runtime::Actor {
 public:
  void on_message(NodeId, const wire::Message&) override {
    FAIL() << "a remote node's actor must never run locally";
  }
};

wire::MessagePtr numbered(std::uint64_t i) {
  auto m = wire::make_message<wire::Commit2pc>();
  m->tx = TxId{i};
  return m;
}

/// One half of a 2-process cluster living in this test process: rank owns
/// DC == rank (nprocs 2). Node 0 lives on rank 0, node 1 on rank 1; both
/// backends register both nodes in the same order.
struct Half {
  explicit Half(std::uint32_t rank, std::uint16_t base_port,
                std::uint64_t outbound_budget = 4u << 20)
      : be(SocketBackend::Options{.rank = rank,
                                  .nprocs = 2,
                                  .hosts = runtime::loopback_host_list(2, base_port),
                                  .workers = 1,
                                  .seed = 1,
                                  .connect_timeout_ms = 10'000,
                                  .outbound_budget = outbound_budget}) {
    n0 = be.add_node(rank == 0 ? static_cast<runtime::Actor*>(&sink) : &null_, /*dc=*/0,
                     nullptr);
    n1 = be.add_node(rank == 1 ? static_cast<runtime::Actor*>(&sink) : &null_, /*dc=*/1,
                     nullptr);
  }
  SocketBackend be;
  SinkActor sink;
  NullActor null_;
  NodeId n0 = kInvalidNode, n1 = kInvalidNode;
};

// Nothing below the launcher falls back to a default host list, so a bad
// list must abort with the reason it was refused.
TEST(SocketBackendOptions, BadHostListAbortsWithTheReason) {
  EXPECT_DEATH(SocketBackend(SocketBackend::Options{.rank = 0, .nprocs = 2, .hosts = {}}),
               "bad host list: host list names 0 endpoints but the cluster runs 2");
  const runtime::Endpoint ep{"127.0.0.1", 7601};
  EXPECT_DEATH(SocketBackend(SocketBackend::Options{.rank = 0, .nprocs = 2, .hosts = {ep, ep}}),
               "bad host list: duplicate endpoint");
}

TEST(SocketBackendPair, DeliversAcrossRealTcpInOrder) {
  Half a(0, 7601), b(1, 7601);
  // start() blocks until the mesh is up; run b's in a thread so both halves
  // can rendezvous.
  std::thread tb([&] { b.be.start(); });
  a.be.start();
  tb.join();

  const std::uint64_t kMsgs = 200;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    a.be.transport().send(a.n0, a.n1, numbered(i));  // cross-process
  }
  // Wait for delivery on the remote half.
  for (int spin = 0; spin < 100 && b.sink.delivered.load() < kMsgs; ++spin) {
    b.be.run_for(20'000);
  }
  a.be.stop();
  b.be.stop();

  ASSERT_EQ(b.sink.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.sink.values[i], i) << "TCP per-channel FIFO must hold";
    EXPECT_EQ(b.sink.froms[i], a.n0) << "the wire frame must carry the true sender";
  }
  EXPECT_EQ(a.sink.values.size(), 0u);
  // Epoch beacons (DESIGN §11) ride the same frame path as data, so the
  // counters are a floor, not an exact match.
  EXPECT_GE(a.be.stats().frames_out, kMsgs);
  EXPECT_GE(b.be.stats().frames_in, kMsgs);
}

/// Reliable endpoints over the socket pair: built like Half, but the sink
/// actors are wrapped by a per-half ReliableTransport before registration.
struct ReliableHalf {
  explicit ReliableHalf(std::uint32_t rank, std::uint16_t base_port, ReliableConfig cfg)
      : be(SocketBackend::Options{.rank = rank,
                                  .nprocs = 2,
                                  .hosts = runtime::loopback_host_list(2, base_port),
                                  .workers = 1,
                                  .seed = 1,
                                  .connect_timeout_ms = 10'000}),
        rt(be.transport(), be.exec(), cfg) {
    runtime::Actor* a0 = rank == 0 ? rt.wrap(&sink) : rt.wrap(&null_);
    runtime::Actor* a1 = rank == 1 ? rt.wrap(&sink) : rt.wrap(&null_);
    n0 = be.add_node(a0, /*dc=*/0, nullptr);
    n1 = be.add_node(a1, /*dc=*/1, nullptr);
    rt.attach(a0, n0);
    rt.attach(a1, n1);
  }
  SocketBackend be;
  ReliableTransport rt;
  SinkActor sink;
  NullActor null_;
  NodeId n0 = kInvalidNode, n1 = kInvalidNode;
};

TEST(SocketBackendPair, ReliableRetransmitsAcrossReconnectExactlyOnce) {
  // Kill the TCP connection mid-stream: the original dialer redials, RTO
  // retransmission replays the unacked window over the fresh connection,
  // and the receiver's EXISTING per-channel seq state dedups anything that
  // had already been delivered — exactly-once, in order, across a
  // transport-level restart.
  ReliableConfig cfg;
  cfg.rto_us = 40'000;
  cfg.max_rto_us = 300'000;
  ReliableHalf a(0, 7621, cfg), b(1, 7621, cfg);

  // Sends are paced by a timer on the owning worker — endpoint window
  // state must never be touched from a foreign thread once workers run.
  const std::uint64_t kFirst = 30, kSecond = 30;
  std::atomic<std::uint64_t> limit{kFirst};
  std::atomic<std::uint64_t> sent{0};
  runtime::TimerHandle pump = a.be.exec().every(a.n0, 2'000, 0, [&] {
    while (sent.load() < limit.load()) {
      a.rt.send(a.n0, a.n1, numbered(sent.load()));
      sent.fetch_add(1);
    }
  });

  std::thread tb([&] { b.be.start(); });
  a.be.start();
  tb.join();

  // First burst delivers and acks over the original connection.
  for (int spin = 0; spin < 200 && b.sink.delivered.load() < kFirst; ++spin) {
    b.be.run_for(10'000);
  }
  ASSERT_EQ(b.sink.delivered.load(), kFirst);

  // Kill the link from the receiver side, then release a second burst:
  // those frames hit a dead (or reborn) connection, get dropped at the
  // transport, and must be recovered purely by RTO retransmission over the
  // redialed connection — deduped by b's existing RecvChannel state.
  b.be.debug_kill_connection(0);
  limit.store(kFirst + kSecond);
  for (int spin = 0; spin < 300 && b.sink.delivered.load() < kFirst + kSecond; ++spin) {
    b.be.run_for(20'000);
  }
  a.be.stop();
  b.be.stop();

  ASSERT_EQ(b.sink.values.size(), kFirst + kSecond)
      << "retransmission must recover everything the dead link ate";
  for (std::uint64_t i = 0; i < kFirst + kSecond; ++i) {
    EXPECT_EQ(b.sink.values[i], i) << "exactly-once, in order, across the reconnect";
  }
  const auto sa = a.be.stats();
  const auto sb = b.be.stats();
  EXPECT_GE(sa.reconnects + sb.reconnects, 1u) << "the link must actually have died";
  EXPECT_GT(a.rt.stats().retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Batched write path (DESIGN §12).
// ---------------------------------------------------------------------------

TEST(SocketFraming, CursorResumesShortWritesMidIovecOverASocketpair) {
  // The pump's batched write path under maximum kernel hostility: a tiny
  // send buffer forces sendmsg to accept only part of an iovec chain, so
  // the cursor must resume mid-frame (possibly mid-iovec) on every flush.
  // The reader sips 1..13-byte reads, so reassembly sees every split point
  // the cursor can produce.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  const int wflags = fcntl(sv[0], F_GETFL, 0);
  ASSERT_EQ(fcntl(sv[0], F_SETFL, wflags | O_NONBLOCK), 0);

  const int kFrames = 41;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < kFrames; ++i) {
    const auto p = payload_of(static_cast<std::size_t>(1 + (i * 977) % 3000),
                              static_cast<std::uint8_t>(i * 5 + 1));
    payloads.push_back(p);
    std::vector<std::uint8_t> f;
    append_frame(f, static_cast<NodeId>(i), static_cast<NodeId>(1000 + i), p.data(),
                 p.size());
    frames.push_back(std::move(f));
  }

  FrameQueueCursor cur;
  FrameReassembler ra;
  std::vector<Frame> got;
  std::uint64_t short_writes = 0;
  std::uint8_t sip[13];
  int sipn = 1;
  while (!cur.done(frames) || got.size() < static_cast<std::size_t>(kFrames)) {
    if (!cur.done(frames)) {
      struct iovec iov[kMaxWritevIovecs];
      const std::size_t cnt = cur.build(frames, iov, kMaxWritevIovecs, kMaxWritevBytes);
      std::size_t total = 0;
      for (std::size_t k = 0; k < cnt; ++k) total += iov[k].iov_len;
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = cnt;
      const ssize_t n = sendmsg(sv[0], &mh, MSG_NOSIGNAL);
      if (n > 0) {
        cur.advance(frames, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < total) ++short_writes;
      } else {
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
    const ssize_t r = read(sv[1], sip, static_cast<std::size_t>(sipn));
    sipn = sipn % 13 + 1;
    if (r > 0) {
      ASSERT_TRUE(ra.feed(sip, static_cast<std::size_t>(r)));
      Frame f;
      while (ra.next(f)) got.push_back(f);
    }
  }
  close(sv[0]);
  close(sv[1]);

  EXPECT_GT(short_writes, 0u) << "the tiny SNDBUF must actually have split a batch";
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].from, static_cast<NodeId>(i));
    EXPECT_EQ(got[i].to, static_cast<NodeId>(1000 + i));
    EXPECT_EQ(got[i].bytes, payloads[i]) << "frame " << i << " must survive byte-exact";
  }
}

TEST(SocketBackendPair, WakeFloodLosesNoWakeups) {
  // Hammer the pump's wake path: a flood of single sends, each a potential
  // empty->non-empty ring transition racing the pump's "drain pipe, clear
  // armed flag, rescan" sequence. A lost wakeup would strand the last
  // frame(s) in the ring until the next beacon; losing NONE of 3000 proves
  // the clear-before-scan ordering.
  Half a(0, 7641), b(1, 7641);
  std::thread tb([&] { b.be.start(); });
  a.be.start();
  tb.join();

  const std::uint64_t kMsgs = 3000;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    a.be.transport().send(a.n0, a.n1, numbered(i));
  }
  for (int spin = 0; spin < 300 && b.sink.delivered.load() < kMsgs; ++spin) {
    b.be.run_for(20'000);
  }
  a.be.stop();
  b.be.stop();

  ASSERT_EQ(b.sink.values.size(), kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.sink.values[i], i) << "flood must deliver in order with no loss";
  }
  // The whole point of batching: far fewer write syscalls than frames.
  const auto sa = a.be.stats();
  EXPECT_LT(sa.write_syscalls, sa.frames_out)
      << "coalescing must beat one write per frame on a flood";
}

TEST(SocketBackendPair, BackpressureBoundsOutboundAndConvergesAfterHeal) {
  // A stalled peer (pump ignores its socket entirely — a slow consumer
  // taken to the limit) must NOT let the sender queue grow without bound:
  // the ring fills to its byte budget, forward() refuses, and the sending
  // worker parks envelopes (counted as backpressure stalls). Healing the
  // peer drains the ring and the parked queue in order — backpressure is
  // deferral, never loss.
  const std::uint64_t kBudget = 4096;
  Half a(0, 7661, kBudget), b(1, 7661, kBudget);
  std::thread tb([&] { b.be.start(); });
  a.be.start();
  tb.join();

  a.be.debug_stall_peer(1, true);
  const std::uint64_t kMsgs = 2000;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    a.be.transport().send(a.n0, a.n1, numbered(i));
  }
  // Give the sending worker time to hit the budget and start parking.
  for (int spin = 0; spin < 50 && a.be.stats().backpressure_stalls == 0; ++spin) {
    a.be.run_for(10'000);
  }
  const auto stalled = a.be.stats();
  EXPECT_GT(stalled.backpressure_stalls, 0u)
      << "a full ring must park senders, not grow";
  // Bounded memory: the ring never exceeds its budget plus the epoch
  // beacons that bypass it (16 wire bytes per 50ms — a rounding error).
  EXPECT_LE(a.be.debug_outbound_queued(1), kBudget + 2048)
      << "the outbound ring must respect its byte budget while stalled";

  a.be.debug_stall_peer(1, false);
  for (int spin = 0; spin < 500 && b.sink.delivered.load() < kMsgs; ++spin) {
    b.be.run_for(20'000);
  }
  a.be.stop();
  b.be.stop();

  ASSERT_EQ(b.sink.values.size(), kMsgs)
      << "every parked envelope must deliver after the heal";
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.sink.values[i], i) << "parked envelopes must preserve FIFO";
  }
  EXPECT_EQ(a.be.stats().backpressure_drops, 0u)
      << "2000 small envelopes sit far under the parked-bytes cap";
}

}  // namespace
}  // namespace paris::test
