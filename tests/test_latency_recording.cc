// Coordinated-omission-safe latency recording (DESIGN §14).
//
// Unit half: LatencyRecorder window/overdue/merge semantics.
//
// E2E half — the regression Tene's "how NOT to measure latency" warns about:
// a 2-process socket cluster stalls one pump direction for 500ms mid-run.
//  - The OPEN-loop run charges every queued arrival its wait from the
//    SCHEDULED instant, so intended p99 jumps to stall scale, while service
//    p99 (finish - actual start) stays flat: only the handful of in-flight
//    transactions ever observe the stall from the inside.
//  - The CLOSED-loop driver — the old recorder — issues the next request
//    only after the previous finishes, so the stall suppresses the very
//    samples that would have shown it and its p99 stays flat. Running both
//    against the identical fault pins the difference.
//
// This binary defines its own main(): the e2e tests re-exec it as socket
// children, which maybe_run_socket_child() intercepts before gtest runs.

#include <gtest/gtest.h>

#include "runtime/endpoint.h"
#include "stats/latency_recorder.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::workload {
namespace {

using stats::LatencyRecorder;

// ---------------------------------------------------------------------------
// Recorder unit semantics.
// ---------------------------------------------------------------------------

TEST(Recorder, WindowsByFinishTimeAndCountsScheduledAtScheduleTime) {
  LatencyRecorder r;
  r.set_window(1000, 2000);

  r.note_scheduled(999);   // before the window: not counted
  r.note_scheduled(1000);  // in
  r.note_scheduled(1999);  // in
  r.note_scheduled(2000);  // after: not counted
  EXPECT_EQ(r.scheduled(), 2u);

  // Scheduled pre-window but FINISHED inside: the completion counts (same
  // finish-time convention as the closed-loop Collector).
  r.record(/*scheduled=*/900, /*started=*/905, /*finished=*/1100);
  // Finished outside the window: dropped entirely.
  r.record(1500, 1505, 2100);
  r.record(100, 105, 900);
  EXPECT_EQ(r.completed(), 1u);
  EXPECT_EQ(r.intended().count(), 1u);
  // The histogram is log-bucketed (<= ~3.1% relative error).
  EXPECT_NEAR(static_cast<double>(r.intended().percentile(0.5)), 200.0, 7.0);  // 1100 - 900
  EXPECT_NEAR(static_cast<double>(r.service().percentile(0.5)), 195.0, 7.0);   // 1100 - 905
}

TEST(Recorder, OverdueRequiresWaitBeyondReleaseGrace) {
  LatencyRecorder r;
  r.set_window(0, 1'000'000);
  // Started a hair late (wake-up jitter): NOT overdue.
  r.record(1000, 1000 + LatencyRecorder::kOverdueGraceUs, 5000);
  EXPECT_EQ(r.overdue(), 0u);
  // Queued behind a busy channel for 2ms: overdue.
  r.record(1000, 3001, 9000);
  EXPECT_EQ(r.overdue(), 1u);
}

TEST(Recorder, IntendedChargesQueueingThatServiceNeverSees) {
  LatencyRecorder r;
  r.set_window(0, 1'000'000);
  // Scheduled at t=0, couldn't start until 500ms, served in 1ms: the user
  // waited 501ms even though the server only "worked" 1ms.
  r.record(0, 500'000, 501'000);
  EXPECT_EQ(r.intended().percentile(0.99), 501'000u);
  EXPECT_EQ(r.service().percentile(0.99), 1'000u);
}

TEST(Recorder, MergeSumsCountsAndAdoptsWindow) {
  LatencyRecorder a, b;
  a.set_window(0, 2'000'000);
  b.set_window(0, 2'000'000);
  a.note_scheduled(10);
  a.record(10, 20, 100);
  b.note_scheduled(30);
  b.note_scheduled(40);
  b.record(30, 5000, 6000);
  b.note_backlog(7);

  LatencyRecorder merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.scheduled(), 3u);
  EXPECT_EQ(merged.completed(), 2u);
  EXPECT_EQ(merged.overdue(), 1u);
  EXPECT_EQ(merged.max_backlog(), 7u);
  EXPECT_DOUBLE_EQ(merged.intended_rate(), 3.0 / 2.0);
  EXPECT_DOUBLE_EQ(merged.achieved_rate(), 2.0 / 2.0);
}

// ---------------------------------------------------------------------------
// E2E: 500ms pump stall, open loop vs closed loop.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kStallMs = 500;

ExperimentConfig stall_config(std::uint16_t base_port, bool open_loop) {
  ExperimentConfig cfg;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.num_dcs = 2;
  cfg.num_partitions = 2;
  cfg.replication = 1;
  cfg.threads_per_process = 2;
  cfg.socket.processes = 2;
  cfg.socket.hosts = runtime::loopback_host_list(2, base_port);
  // Every transaction spans both partitions so the stalled direction gates
  // all traffic (replication=1: each partition lives in exactly one DC).
  cfg.workload.ops_per_tx = 4;
  cfg.workload.writes_per_tx = 1;
  cfg.workload.partitions_per_tx = 2;
  cfg.workload.multi_dc_ratio = 1.0;
  cfg.workload.keys_per_partition = 1000;
  cfg.openloop.enabled = open_loop;
  cfg.openloop.arrival_rate = 1500;
  cfg.warmup_us = 300'000;
  cfg.measure_us = 2'200'000;
  // Rank 0 stops draining frames toward rank 1 from 800ms to 1300ms of run
  // time — inside the measurement window with room to drain afterwards.
  cfg.socket.stall_rank = 0;
  cfg.socket.stall_peer = 1;
  cfg.socket.stall_at_ms = 800;
  cfg.socket.stall_len_ms = kStallMs;
  cfg.check_consistency = true;
  cfg.aws_latency = false;
  cfg.seed = 2024;
  return cfg;
}

TEST(CoordinatedOmission, OpenLoopIntendedP99SeesTheStallServiceP99DoesNot) {
  const auto res = run_experiment(stall_config(7885, /*open_loop=*/true));
  for (const auto& v : res.violations) ADD_FAILURE() << "violation: " << v;
  ASSERT_GT(res.committed, 0u);
  EXPECT_GT(res.scheduled, 0u);

  const double intended_p99_ms = static_cast<double>(res.intended_hist.percentile(0.99)) / 1e3;
  const double service_p99_ms = static_cast<double>(res.service_hist.percentile(0.99)) / 1e3;

  // ~750 arrivals queue during the 500ms stall (~23% of the window's
  // completions), so intended p99 must reach stall scale...
  EXPECT_GT(intended_p99_ms, 250.0) << "intended p99 missed the stall";
  // ...while only the few in-flight transactions (client pool width, <1% of
  // samples) ever see it from the inside: service p99 stays flat.
  EXPECT_LT(service_p99_ms, intended_p99_ms - 150.0)
      << "service p99 " << service_p99_ms << "ms vs intended " << intended_p99_ms << "ms";
  // The queue is visible in the overdue/backlog accounting too.
  EXPECT_GT(res.overdue, 100u);
  EXPECT_GT(res.max_backlog, 10u);
}

TEST(CoordinatedOmission, ClosedLoopRecorderHidesTheIdenticalStall) {
  // The exact same cluster, fault schedule and seed — measured the old way.
  const auto closed = run_experiment(stall_config(7888, /*open_loop=*/false));
  for (const auto& v : closed.violations) ADD_FAILURE() << "violation: " << v;
  ASSERT_GT(closed.committed, 0u);

  // Each blocked session contributes ONE stall-length sample and then
  // resumes; with thousands of fast samples around it the stall vanishes
  // from p99 — the coordinated-omission lie this PR's recorder fixes.
  const double closed_p99_ms = static_cast<double>(closed.latency_hist.percentile(0.99)) / 1e3;
  EXPECT_LT(closed_p99_ms, 100.0)
      << "closed-loop p99 unexpectedly saw the stall; the CO regression "
         "baseline assumption broke";
}

}  // namespace
}  // namespace paris::workload

// The e2e tests above re-exec this binary as socket children; the hook must
// intercept them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
