// Self-healing cluster tests (DESIGN §11): snapshot state transfer +
// catch-up onto a recovering replica, 2PC fencing of dead coordinators,
// epoch fencing of stale incarnations at the socket layer, byte-level
// mutation of inbound frames against the wire validator, and the
// end-to-end kill-under-load proof: a 3-process socket run SIGKILLs a rank
// mid-load, the supervisor respawns it with a bumped epoch, the respawn
// streams donor state, and the merged-history checkers come back clean.
//
// Unlike the other socket tests this binary defines its own main(): the
// e2e tests re-exec it as socket children, which the
// maybe_run_socket_child() hook intercepts before gtest ever runs.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "proto/paris_server.h"
#include "runtime/socket_runtime.h"
#include "test_util.h"
#include "wire/messages.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::test {
namespace {

// ---------------------------------------------------------------------------
// Byte-level mutation of inbound frames (the socket pump runs every inbound
// payload through wire::validate_encoded_message before pooled decode).
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encoded(const wire::Message& m) {
  std::vector<std::uint8_t> bytes;
  wire::encode_message(m, bytes);
  return bytes;
}

void mutate_and_validate(const std::vector<std::uint8_t>& pristine) {
  ASSERT_TRUE(wire::validate_encoded_message(pristine.data(), pristine.size()));
  std::vector<std::uint8_t> buf;
  // Every single-byte corruption, three patterns per position: the
  // validator must classify (accept or reject) without crashing, asserting
  // or allocating absurdly — it parse-skips, never materializes.
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (const std::uint8_t mask : {0xFFu, 0x01u, 0x80u}) {
      buf = pristine;
      buf[i] ^= static_cast<std::uint8_t>(mask);
      (void)wire::validate_encoded_message(buf.data(), buf.size());
    }
  }
  // Every truncation point.
  for (std::size_t n = 0; n < pristine.size(); ++n) {
    (void)wire::validate_encoded_message(pristine.data(), n);
  }
}

TEST(FrameMutation, ValidatorSurvivesEveryByteFlipAndTruncation) {
  wire::PrepareReq prep;
  prep.tx = TxId::make(42, 7);
  prep.partition = 3;
  prep.snapshot = Timestamp{1'000'000};
  prep.ht = Timestamp{1'000'500};
  prep.writes = {{11, "hello"}, {12, "recovery"}};
  mutate_and_validate(encoded(prep));

  wire::SnapshotChunk chunk;
  chunk.partition = 1;
  chunk.seq = 0;
  chunk.last = 1;
  chunk.payload.assign(300, 0x5A);
  mutate_and_validate(encoded(chunk));

  wire::CatchUpRequest creq;
  creq.partition = 2;
  creq.epoch = 1;
  creq.vv = {5, 6, 7};
  mutate_and_validate(encoded(creq));
}

TEST(FrameMutation, ValidatorRejectsEveryUnknownTypeId) {
  // Past the last known id (the retired ids included) the type byte alone
  // must decide: a bare tag, and a tag in front of a well-formed body.
  wire::Heartbeat hb;
  hb.partition = 2;
  hb.t = Timestamp{1'000'000};
  std::vector<std::uint8_t> frame = encoded(hb);
  ASSERT_TRUE(wire::validate_encoded_message(frame.data(), frame.size()));
  for (int t = wire::kNumMsgTypes; t <= 255; ++t) {
    SCOPED_TRACE(t);
    frame[0] = static_cast<std::uint8_t>(t);
    EXPECT_FALSE(wire::validate_encoded_message(frame.data(), 1));
    EXPECT_FALSE(wire::validate_encoded_message(frame.data(), frame.size()));
  }
}

// ---------------------------------------------------------------------------
// TxId epoch salting.
// ---------------------------------------------------------------------------

TEST(Recovery, IncarnationEpochSaltsCoordinatorTxIds) {
  Deployment dep(small_config(System::kParis, 1, 1, 1, /*seed=*/11));
  dep.start();
  const PartitionId p = dep.topo().partitions_at(0)[0];
  dep.server(0, p).set_incarnation(3);
  settle(dep);

  auto& c = dep.add_client(0, p);
  SyncClient sc(sim_of(dep), c);
  const Key k = dep.topo().make_key(p, 9);
  sc.put({{k, "salted"}});
  settle(dep);

  // The committed version's TxId sequence must live in incarnation 3's
  // namespace: a respawned coordinator can never re-mint a TxId its dead
  // predecessor already used.
  bool found = false;
  dep.server(0, p).kvstore().for_each_chain(
      [&](Key key, const std::vector<store::Version>& chain) {
        if (key != k) return;
        for (const auto& v : chain) {
          EXPECT_GE(v.tx.seq(), 3u << 24);
          found = true;
        }
      });
  EXPECT_TRUE(found) << "write never applied";
}

// ---------------------------------------------------------------------------
// 2PC fencing: a prepared entry whose coordinator died must not pin the
// apply fence (and through it the cluster UST) forever.
// ---------------------------------------------------------------------------

TEST(Recovery, PreparedEntryOfDeadCoordinatorIsFenced) {
  Deployment dep(small_config(System::kParis, 2, 2, 2, /*seed=*/23));
  dep.start();
  settle(dep);
  const PartitionId p0 = dep.topo().partitions_at(0)[0];
  auto& victim = dep.server(0, p0);
  auto& coord = dep.server(1, dep.topo().partitions_at(1)[1]);

  // A coordinator prepares a write on the victim cohort ... and dies before
  // ever sending the decision. (The PrepareResp goes back to a server that
  // never coordinated this tx — which must tolerate it as an orphan.)
  wire::PrepareReq prep;
  prep.tx = TxId::make(coord.node(), 1);
  prep.partition = p0;
  prep.snapshot = victim.stable_snapshot();
  prep.ht = victim.hlc_value();
  prep.writes = {{dep.topo().make_key(p0, 4), "never-decided"}};
  victim.on_message(coord.node(), prep);

  // The undecided prepare pins the victim's apply fence: its installed
  // snapshot freezes while the rest of the run moves on.
  dep.run_for(400'000);
  const Timestamp pinned = victim.min_vv();
  dep.run_for(400'000);
  EXPECT_LE(victim.min_vv().physical_us(), pinned.physical_us() + 50'000)
      << "a prepared entry with no decision must freeze the apply fence";
  EXPECT_GE(coord.stats().orphan_prepare_resps, 1u)
      << "the non-coordinator must tolerate the stray PrepareResp";

  // Epoch fence: the deployment learned the coordinator's process died.
  victim.fence_lost_coordinators({coord.node()});
  EXPECT_EQ(victim.stats().prepared_fenced, 1u);
  dep.run_for(600'000);
  EXPECT_GT(victim.min_vv().physical_us(), pinned.physical_us() + 300'000)
      << "fencing must un-pin the apply fence";
}

// ---------------------------------------------------------------------------
// Snapshot + catch-up state transfer.
// ---------------------------------------------------------------------------

using VersionKey = std::tuple<Key, std::uint64_t, std::uint64_t, DcId>;
using VersionVal = std::pair<std::uint8_t, Value>;

/// Newest version per key, with its full identity (ut, tx, sr) and payload.
std::map<Key, std::pair<VersionKey, VersionVal>> newest_versions(
    const store::MvStore& s) {
  std::map<Key, std::pair<VersionKey, VersionVal>> out;
  s.for_each_chain([&](Key k, const std::vector<store::Version>& chain) {
    const auto& v = chain.back();
    out[k] = {{k, v.ut.raw, v.tx.raw, v.sr}, {v.kind, v.v}};
  });
  return out;
}

TEST(Recovery, SnapshotStreamAndCatchupRebuildReplica) {
  // Partition 0 is replicated at all three DCs: A (dc0) donates the
  // snapshot, C (dc2) supplies the catch-up delta, B (dc1) recovers.
  Deployment dep(small_config(System::kParis, 3, 3, 3, /*seed=*/31));
  dep.start();
  settle(dep);
  const PartitionId p = dep.topo().partitions_at(0)[0];
  auto& A = dep.server(0, p);
  auto& B = dep.server(1, p);
  auto& C = dep.server(2, p);

  auto& c0 = dep.add_client(0, p);
  SyncClient sc0(sim_of(dep), c0);
  for (int i = 0; i < 8; ++i) {
    sc0.put({{dep.topo().make_key(p, static_cast<std::uint64_t>(i)), "v" + std::to_string(i)}});
  }
  settle(dep);

  bool done = false;
  B.start_recovery(A.node(), {C.node()}, [&] { done = true; });
  ASSERT_TRUE(B.recovering());
  // Traffic arriving mid-recovery (replication of this fresh commit, ΔR
  // heartbeats, gossip) is buffered and replayed, not lost.
  sc0.put({{dep.topo().make_key(p, 77), "written-during-recovery"}});
  run_until_flag(sim_of(dep), done);

  EXPECT_FALSE(B.recovering());
  EXPECT_EQ(A.stats().snapshots_served, 1u);
  EXPECT_EQ(C.stats().catchups_served, 1u);
  EXPECT_GT(B.stats().recovery_buffered, 0u);

  // Equivalence: B holds every donor/peer version bit-exactly — same update
  // timestamp, creating tx, source replica and payload, so the total
  // version order (ut, tx, sr) is preserved across the transfer.
  settle(dep);
  const auto got = newest_versions(B.kvstore());
  for (const auto* src : {&A, &C}) {
    for (const auto& [k, want] : newest_versions(src->kvstore())) {
      const auto it = got.find(k);
      ASSERT_NE(it, got.end()) << "key " << k << " missing after recovery";
      EXPECT_EQ(it->second.first, want.first) << "version identity differs for key " << k;
      EXPECT_EQ(it->second.second, want.second) << "payload differs for key " << k;
    }
  }
  const auto it77 = got.find(dep.topo().make_key(p, 77));
  ASSERT_NE(it77, got.end()) << "commit during recovery lost";
  EXPECT_EQ(it77->second.second.second, "written-during-recovery");
}

// ---------------------------------------------------------------------------
// Socket-layer epoch fencing (unit; the in-process half of DESIGN §11's
// membership story — the fork/exec half is the e2e test below).
// ---------------------------------------------------------------------------

int dial_loopback(std::uint16_t port) {
  for (int tries = 0; tries < 400; ++tries) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    ::usleep(10'000);
  }
  return -1;
}

void send_hello(int fd, std::uint32_t rank, std::uint64_t token, std::uint32_t epoch) {
  std::uint8_t h[runtime::sockdetail::kHelloSize];
  const std::uint32_t magic = runtime::sockdetail::kHelloMagic;
  const std::uint32_t reserved = 0;
  std::memcpy(h, &magic, 4);
  std::memcpy(h + 4, &rank, 4);
  std::memcpy(h + 8, &token, 8);
  std::memcpy(h + 16, &epoch, 4);
  std::memcpy(h + 20, &reserved, 4);
  ASSERT_EQ(::write(fd, h, sizeof(h)), static_cast<ssize_t>(sizeof(h)));
}

struct NullActor : runtime::Actor {
  void on_message(NodeId, const wire::Message&) override {}
};

TEST(SocketEpochFence, StaleIncarnationHelloIsFencedAndListenerFires) {
  runtime::SocketBackend::Options opt;
  opt.rank = 0;
  opt.nprocs = 2;
  opt.hosts = runtime::loopback_host_list(2, 7721);
  opt.workers = 1;
  opt.seed = 9;
  opt.connect_timeout_ms = 10'000;
  opt.mesh_token = 0xFEED'FACE'CAFE'BEEFull;
  runtime::SocketBackend be(opt);
  NullActor n0, n1;
  be.add_node(&n0, /*dc=*/0, nullptr);
  be.add_node(&n1, /*dc=*/1, nullptr);

  std::mutex mu;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fired;
  be.set_epoch_listener([&](std::uint32_t rank, std::uint32_t epoch) {
    std::lock_guard<std::mutex> lk(mu);
    fired.emplace_back(rank, epoch);
  });

  // "Rank 1, incarnation 2" rendezvouses while start() waits for the mesh.
  int fd_live = -1;
  std::thread fake([&] {
    fd_live = dial_loopback(7721);
    ASSERT_GE(fd_live, 0);
    send_hello(fd_live, /*rank=*/1, opt.mesh_token, /*epoch=*/2);
  });
  be.start();
  fake.join();
  EXPECT_EQ(be.peer_epoch(1), 2u);
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(fired.size(), 1u) << "listener must fire on the 0 -> 2 increase";
    EXPECT_EQ(fired[0], (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
  }

  // A zombie of the dead incarnation (epoch 1 < 2) redials in: fenced —
  // the connection is closed without ever joining the mesh.
  const int fd_stale = dial_loopback(7721);
  ASSERT_GE(fd_stale, 0);
  send_hello(fd_stale, /*rank=*/1, opt.mesh_token, /*epoch=*/1);
  std::uint64_t fenced = 0;
  for (int spin = 0; spin < 400 && fenced == 0; ++spin) {
    fenced = be.stats().fenced_stale_epoch;
    ::usleep(10'000);
  }
  EXPECT_EQ(fenced, 1u);
  std::uint8_t byte;
  EXPECT_EQ(::read(fd_stale, &byte, 1), 0) << "fenced connection must be closed";
  EXPECT_EQ(be.peer_epoch(1), 2u) << "a stale hello must not regress the lease";

  // The NEXT incarnation (epoch 3) replaces the live connection and fires
  // the listener again.
  const int fd_next = dial_loopback(7721);
  ASSERT_GE(fd_next, 0);
  send_hello(fd_next, /*rank=*/1, opt.mesh_token, /*epoch=*/3);
  for (int spin = 0; spin < 400 && be.peer_epoch(1) != 3; ++spin) ::usleep(10'000);
  EXPECT_EQ(be.peer_epoch(1), 3u);
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], (std::pair<std::uint32_t, std::uint32_t>{1, 3}));
  }

  ::close(fd_live);
  ::close(fd_stale);
  ::close(fd_next);
  be.stop();
}

// ---------------------------------------------------------------------------
// End-to-end: SIGKILL a rank under load; the supervisor respawns it with a
// bumped epoch, the respawn streams donor state, and the merged-history
// checkers accept the full cross-process execution.
// ---------------------------------------------------------------------------

workload::ExperimentConfig kill_under_load_config(System sys, std::uint16_t base_port,
                                                  std::uint32_t replication,
                                                  std::uint64_t seed) {
  workload::ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.num_dcs = 3;
  cfg.num_partitions = 3;
  cfg.replication = replication;
  cfg.socket.processes = 3;
  cfg.socket.hosts = runtime::loopback_host_list(3, base_port);
  cfg.socket.supervise = true;
  cfg.socket.max_respawns = 2;
  cfg.socket.kill_rank = 1;
  cfg.socket.kill_after_ms = 1'000;
  cfg.threads_per_process = 2;
  cfg.workload.ops_per_tx = 6;
  cfg.workload.writes_per_tx = 2;
  cfg.workload.partitions_per_tx = 2;
  // DESIGN §11: a SIGKILL can separate a multi-DC transaction's coordinator
  // from its replicated writes mid-2PC; the recovery acceptance runs
  // single-DC transactions so every commit is atomic w.r.t. the crash.
  cfg.workload.multi_dc_ratio = 0.0;
  cfg.workload.keys_per_partition = 200;
  cfg.warmup_us = 200'000;
  cfg.measure_us = 2'500'000;
  cfg.reliable = true;
  cfg.reliable_cfg.rto_us = 50'000;
  cfg.check_consistency = true;
  cfg.aws_latency = false;
  cfg.seed = seed;
  return cfg;
}

void expect_healed(const workload::ExperimentResult& res) {
  for (const auto& v : res.violations) ADD_FAILURE() << "violation: " << v;
  EXPECT_GE(res.respawns, 1u) << "the killed rank was never respawned";
  EXPECT_GE(res.snapshots_served, 1u) << "the respawn never streamed donor state";
  EXPECT_GT(res.committed, 0u);
}

TEST(RecoveryE2E, ParisKillUnderLoadHealsCheckerClean) {
  expect_healed(workload::run_experiment(
      kill_under_load_config(System::kParis, 7701, /*replication=*/3, /*seed=*/101)));
}

TEST(RecoveryE2E, BprKillUnderLoadHealsCheckerClean) {
  expect_healed(workload::run_experiment(
      kill_under_load_config(System::kBpr, 7711, /*replication=*/2, /*seed=*/103)));
}

}  // namespace
}  // namespace paris::test

// The e2e tests above re-exec this binary as socket children; the hook must
// intercept them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
