// Workload-aware placement (DESIGN §14).
//
// Unit half: the Space-Saving access sketch, the NuCut-style assignment
// scores, and the migration-target chooser.
//
// E2E half: PaRiS and BPR clusters under open-loop hot-spot load migrate
// their 10 hottest keys mid-run — on the thread runtime and on 3 real
// processes over TCP — and the exactness/causality/session checkers stay
// green through fence, flush, drain, chain transfer and cutover. A seeded
// fault (migrate_fault_skip_copy: the chain transfer ships an empty chain)
// must surface as checker violations, proving the checkers actually watch
// the migration path.
//
// This binary defines its own main(): the socket e2e tests re-exec it as
// children, which maybe_run_socket_child() intercepts before gtest runs.

#include <gtest/gtest.h>

#include <functional>

#include "cluster/membership.h"
#include "placement/placement.h"
#include "runtime/endpoint.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::placement {
namespace {

std::uint32_t bit(DcId d) { return 1u << d; }

// ---------------------------------------------------------------------------
// Space-Saving sketch.
// ---------------------------------------------------------------------------

TEST(Sketch, CountsMasksAndDeterministicTop) {
  AccessSketch s(4);
  for (int i = 0; i < 3; ++i) s.note(/*k=*/11, /*dc=*/0);
  for (int i = 0; i < 5; ++i) s.note(22, 1);
  s.note(33, 0);
  s.note(33, 2);

  EXPECT_EQ(s.total(), 10u);
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 22u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].dc_mask, bit(1));
  EXPECT_EQ(top[1].key, 11u);
  EXPECT_EQ(top[1].dc_mask, bit(0));
  // 33 saw two DCs.
  EXPECT_EQ(s.top(3)[2].dc_mask, bit(0) | bit(2));
}

TEST(Sketch, TopBreaksCountTiesByKeyAscending) {
  AccessSketch s(8);
  s.note(7, 0);
  s.note(3, 0);
  s.note(5, 0);
  const auto top = s.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 3u);
  EXPECT_EQ(top[1].key, 5u);
  EXPECT_EQ(top[2].key, 7u);
}

TEST(Sketch, EvictionHandsVictimCountToNewcomer) {
  AccessSketch s(2);
  for (int i = 0; i < 5; ++i) s.note(1, 0);
  for (int i = 0; i < 2; ++i) s.note(2, 1);
  s.note(3, 2);  // full: evicts key 2 (min count 2); newcomer inherits 2+1
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[1].key, 3u);
  EXPECT_EQ(top[1].count, 3u) << "Space-Saving: victim count + 1 is the error bound";
  EXPECT_EQ(top[1].dc_mask, bit(2)) << "the mask does NOT carry over";
}

TEST(Sketch, MergeFoldsReportedEntries) {
  AccessSketch s(8);
  s.note(1, 0);
  s.merge({{1, 9, bit(2)}, {2, 4, bit(1)}});
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[0].count, 10u);
  EXPECT_EQ(top[0].dc_mask, bit(0) | bit(2));
  EXPECT_EQ(top[1].count, 4u);
  EXPECT_EQ(s.total(), 14u);
}

// ---------------------------------------------------------------------------
// Assignment scoring and target choice.
// ---------------------------------------------------------------------------

TEST(Score, ReplicateFactorCountsAccessAndStorageDcs) {
  const cluster::Topology topo({/*dcs=*/2, /*partitions=*/2, /*replication=*/1});
  const DcId dc_of_p1 = topo.replicas(1)[0];
  // One key, accessed ONLY from partition 1's replica DC.
  const std::vector<AccessSketch::Entry> keys = {{/*key=*/100, /*count=*/10, bit(dc_of_p1)}};

  // Assigned to partition 0: the accessing DC and the storing DC differ.
  const auto misplaced = score_assignment(topo, keys, [](Key) { return PartitionId{0}; });
  EXPECT_DOUBLE_EQ(misplaced.replicate_factor, 2.0);
  // Assigned to partition 1: access is fully local.
  const auto placed = score_assignment(topo, keys, [](Key) { return PartitionId{1}; });
  EXPECT_DOUBLE_EQ(placed.replicate_factor, 1.0);
  // All load on one of two partitions: relative stddev is exactly 1.
  EXPECT_DOUBLE_EQ(placed.load_relative_stddev, 1.0);

  // Balanced: equal counts on both partitions.
  const std::vector<AccessSketch::Entry> two = {{100, 10, bit(dc_of_p1)}, {101, 10, bit(dc_of_p1)}};
  const auto balanced =
      score_assignment(topo, two, [](Key k) { return static_cast<PartitionId>(k % 2); });
  EXPECT_DOUBLE_EQ(balanced.load_relative_stddev, 0.0);
}

TEST(Choose, PrefersReplicaCoverageThenLoadThenId) {
  const cluster::Topology topo({/*dcs=*/3, /*partitions=*/3, /*replication=*/1});
  // Find the partition stored in DC 2: coverage beats any load imbalance.
  PartitionId in_dc2 = 0;
  for (PartitionId p = 0; p < 3; ++p)
    if (topo.replicas(p)[0] == 2) in_dc2 = p;
  AccessSketch::Entry from_dc2{/*key=*/5, /*count=*/100, bit(2)};
  EXPECT_EQ(choose_partition(topo, from_dc2, {1000, 1000, 1000}), in_dc2);

  // Accessed from everywhere, R=1: every partition covers exactly one DC —
  // a full tie, so the least-loaded partition wins...
  AccessSketch::Entry everywhere{5, 100, bit(0) | bit(1) | bit(2)};
  EXPECT_EQ(choose_partition(topo, everywhere, {5, 1, 7}), PartitionId{1});
  // ...and equal loads fall back to the lowest partition id (deterministic).
  EXPECT_EQ(choose_partition(topo, everywhere, {4, 4, 4}), PartitionId{0});
}

// ---------------------------------------------------------------------------
// E2E: online migration of the 10 hottest keys under open-loop load.
// ---------------------------------------------------------------------------

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::run_experiment;

ExperimentConfig migration_config(proto::System sys, runtime::Kind rt, std::uint16_t base_port,
                                  std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = rt;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 4;
  if (rt == runtime::Kind::kSockets) {
    cfg.socket.processes = 3;
    cfg.socket.hosts = runtime::loopback_host_list(3, base_port);
  }
  // Hot-spot skew accessed from every DC: each hot key's current partition
  // carries its (large) sketched load, so the balance tie-break always finds
  // a better home and all top-k moves are real.
  cfg.workload.key_dist = workload::KeyDistKind::kHotspot;
  cfg.workload.keys_per_partition = 1000;
  cfg.workload.multi_dc_ratio = 1.0;
  cfg.openloop.enabled = true;
  cfg.openloop.arrival_rate = 2500;
  cfg.protocol.placement_policy = static_cast<std::uint8_t>(Policy::kWorkloadAware);
  cfg.protocol.migrate_top_k = 10;
  cfg.protocol.migrate_at_us = 400'000;
  cfg.warmup_us = 300'000;
  cfg.measure_us = 2'200'000;
  cfg.check_consistency = true;
  cfg.aws_latency = false;
  cfg.seed = seed;
  return cfg;
}

void expect_migrated_clean(const ExperimentResult& res) {
  for (const auto& v : res.violations) ADD_FAILURE() << "violation: " << v;
  EXPECT_GT(res.committed, 0u);
  // The controller queues the top-10 hottest; a key already sitting on its
  // best partition (greedy load bookkeeping) legitimately stays, but under
  // this all-DCs hot-spot load at least 8 always have a strictly better home.
  EXPECT_GE(res.keys_migrated, 8u) << "the hottest keys must complete their moves";
  EXPECT_LE(res.keys_migrated, 10u);
  EXPECT_GT(res.migrate_chains_sent, 0u);
  EXPECT_EQ(res.migrate_chains_installed, res.migrate_chains_sent)
      << "every shipped chain must be installed at a destination replica";
  EXPECT_GT(res.sketch_reports, 0u);
  // Before/after scores were computed (fixed-point shipped across children).
  EXPECT_GT(res.replicate_factor_before, 0.0);
  EXPECT_GT(res.replicate_factor_after, 0.0);
  EXPECT_GT(res.load_rel_stddev_before, 0.0);
  EXPECT_GT(res.load_rel_stddev_after, 0.0);
}

TEST(PlacementE2E, ParisThreadsMigratesHotKeysCheckerClean) {
  expect_migrated_clean(
      run_experiment(migration_config(proto::System::kParis, runtime::Kind::kThreads, 0, 71)));
}

TEST(PlacementE2E, BprThreadsMigratesHotKeysCheckerClean) {
  expect_migrated_clean(
      run_experiment(migration_config(proto::System::kBpr, runtime::Kind::kThreads, 0, 72)));
}

TEST(PlacementE2E, ParisSocketsMigratesHotKeysCheckerClean) {
  expect_migrated_clean(
      run_experiment(migration_config(proto::System::kParis, runtime::Kind::kSockets, 7891, 73)));
}

TEST(PlacementE2E, BprSocketsMigratesHotKeysCheckerClean) {
  expect_migrated_clean(
      run_experiment(migration_config(proto::System::kBpr, runtime::Kind::kSockets, 7895, 74)));
}

// Teeth check: a migration that "completes" without copying the chain MUST
// be caught. The seeded fault ships an empty chain to the destination, so
// post-cutover snapshot reads of the hottest keys see a hole in history.
TEST(PlacementE2E, SkipCopyFaultIsCaughtByCheckers) {
  auto cfg = migration_config(proto::System::kParis, runtime::Kind::kSim, 0, 75);
  cfg.measure_us = 3'000'000;
  cfg.protocol.migrate_fault_skip_copy = true;
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.keys_migrated, 0u) << "the faulty migration must still cut over";
  EXPECT_FALSE(res.violations.empty())
      << "an uncopied chain went unnoticed: the checkers have no teeth";
}

}  // namespace
}  // namespace paris::placement

// The e2e tests above re-exec this binary as socket children; the hook must
// intercept them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
