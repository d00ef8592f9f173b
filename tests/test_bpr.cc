// BPR baseline tests: fresh snapshots, read blocking (duration bounded by
// replication lag), drain order, and the freshness-vs-latency trade against
// PaRiS that motivates the paper.

#include <gtest/gtest.h>

#include "proto/bpr_server.h"
#include "test_util.h"

namespace paris::test {
namespace {

TEST(Bpr, FreshSnapshotReadsBlockForRoughlyOneWayDelay) {
  // Uniform 20ms one-way: a read at a just-assigned snapshot must wait for
  // the peer replica's version vector entry (heartbeat lag ~ one-way + ΔR).
  Deployment dep(small_config(System::kBpr, 3, 6, 2, /*seed=*/3, /*inter_dc=*/20'000));
  dep.start();
  settle(dep);

  auto& c = dep.add_client(0, dep.topo().partitions_at(0)[0]);
  SyncClient sc(sim_of(dep), c);
  const sim::SimTime t0 = sim_of(dep).now();
  sc.start();
  sc.read({dep.topo().make_key(dep.topo().partitions_at(0)[0], 1)});
  const sim::SimTime elapsed = sim_of(dep).now() - t0;
  sc.commit();

  EXPECT_GT(elapsed, 12'000u) << "BPR local read should block ~ one-way delay";
  EXPECT_LT(elapsed, 60'000u);
  EXPECT_GT(dep.total_server_stats().reads_blocked, 0u);
}

TEST(Bpr, EquivalentParisReadDoesNotBlock) {
  Deployment dep(small_config(System::kParis, 3, 6, 2, /*seed=*/3, /*inter_dc=*/20'000));
  dep.start();
  settle(dep);

  auto& c = dep.add_client(0, dep.topo().partitions_at(0)[0]);
  SyncClient sc(sim_of(dep), c);
  const sim::SimTime t0 = sim_of(dep).now();
  sc.start();
  sc.read({dep.topo().make_key(dep.topo().partitions_at(0)[0], 1)});
  const sim::SimTime elapsed = sim_of(dep).now() - t0;
  sc.commit();

  EXPECT_LT(elapsed, 2'000u) << "PaRiS local reads are non-blocking";
  EXPECT_EQ(dep.total_server_stats().reads_blocked, 0u);
}

TEST(Bpr, BlockedReadReturnsCorrectFreshValue) {
  Deployment dep(small_config(System::kBpr, 3, 6, 2, /*seed=*/5));
  dep.start();
  settle(dep);
  const auto& topo = dep.topo();
  const PartitionId p = 0;  // replicas {0, 1}
  const Key k = topo.make_key(p, 9);

  auto& wc = dep.add_client(topo.replicas(p)[0], p);
  SyncClient w(sim_of(dep), wc);
  const Timestamp ct = w.put({{k, "fresh"}});

  // Reader in the peer DC with a snapshot >= ct (folding its own clock):
  // must block until replication catches up, then see the fresh value.
  auto& rc = dep.add_client(topo.replicas(p)[1], p);
  SyncClient r(sim_of(dep), rc);
  const Timestamp snap = r.start();
  if (snap >= ct) {
    EXPECT_EQ(r.read1(k).v, "fresh")
        << "BPR snapshot covers the commit; blocking must surface it";
  }
  r.commit();
}

TEST(Bpr, FresherThanParisRightAfterCommit) {
  // The paper's trade-off: BPR sees recent writes sooner (blocking buys
  // freshness), PaRiS returns in the past until the UST catches up.
  // With 40ms one-way delays, replication lands ~42ms after commit while
  // the UST needs at least replication + a leaf round + root exchange +
  // UstDown (~90ms+); a probe at 55ms therefore splits the two systems.
  const Key probe_rank = 31;
  auto freshness = [&](System sys) {
    Deployment dep(small_config(sys, 3, 6, 2, /*seed=*/7, /*inter_dc=*/40'000));
    dep.start();
    settle(dep);
    const auto& topo = dep.topo();
    const PartitionId p = 0;
    const Key k = topo.make_key(p, probe_rank);
    auto& wc = dep.add_client(topo.replicas(p)[0], p);
    SyncClient w(sim_of(dep), wc);
    w.put({{k, "new"}});
    dep.run_for(55'000);
    auto& rc = dep.add_client(topo.replicas(p)[1], p);
    SyncClient r(sim_of(dep), rc);
    r.start();
    const std::string got = r.read1(k).v;
    r.commit();
    return got;
  };
  EXPECT_EQ(freshness(System::kBpr), "new");
  EXPECT_EQ(freshness(System::kParis), "") << "PaRiS still serves the stale snapshot";
}

TEST(Bpr, ManyBlockedReadsAllDrain) {
  Deployment dep(small_config(System::kBpr, 3, 6, 2, /*seed=*/9));
  dep.start();
  settle(dep);
  const auto& topo = dep.topo();

  // Fire a burst of transactions from several clients; every read
  // eventually completes (no lost wakeups) and blocked stats accumulate.
  std::vector<std::unique_ptr<SyncClient>> clients;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    auto& c = dep.add_client(i % 3, topo.partitions_at(i % 3)[i % 2]);
    c.start_tx([&, i, cp = &c](TxId, Timestamp) {
      cp->read({topo.make_key(i % 6, i), topo.make_key((i + 1) % 6, i)},
               [&, cp](std::vector<Item>) { cp->commit([&](Timestamp) { ++completed; }); });
    });
  }
  dep.run_for(1'000'000);
  EXPECT_EQ(completed, 8);
  const auto st = dep.total_server_stats();
  EXPECT_GT(st.reads_blocked, 0u);
  EXPECT_GT(st.blocked_time_us, 0u);
  for (const auto& s : dep.servers()) {
    auto* b = dynamic_cast<proto::BprServer*>(s.get());
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->blocked_reads_pending(), 0u) << "no read left parked";
  }
}

TEST(Bpr, LocalStableTracksMinVv) {
  Deployment dep(small_config(System::kBpr, 3, 6, 2));
  dep.start();
  dep.run_for(200'000);
  for (const auto& s : dep.servers()) {
    auto* b = dynamic_cast<proto::BprServer*>(s.get());
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->local_stable(), b->min_vv());
    EXPECT_EQ(b->stable_snapshot(), b->min_vv());
  }
}

}  // namespace
}  // namespace paris::test
