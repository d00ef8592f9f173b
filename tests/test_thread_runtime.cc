// ThreadBackend unit tests (mailbox delivery, per-channel FIFO, deferred
// and one-shot timed tasks, periodic timers + cancellation), the sim
// backend's one-shot timed task, and the cross-runtime smoke test:
// the same small cluster and workload run on both the SimRuntime and the
// ThreadRuntime and both pass the exactness checker.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"
#include "workload/experiment.h"

namespace paris::test {
namespace {

using runtime::ThreadBackend;

/// Records every received heartbeat's `t` payload (single-worker access).
class RecordingActor : public runtime::Actor {
 public:
  void on_message(NodeId from, const wire::Message& m) override {
    ASSERT_EQ(m.type(), wire::MsgType::kHeartbeat);
    froms.push_back(from);
    values.push_back(static_cast<const wire::Heartbeat&>(m).t.raw);
  }
  std::vector<NodeId> froms;
  std::vector<std::uint64_t> values;
};

wire::MessagePtr heartbeat(std::uint64_t t) {
  auto hb = wire::make_message<wire::Heartbeat>();
  hb->t = Timestamp{t};
  return hb;
}

TEST(ThreadRuntime, MailboxDeliversAndPreservesPerChannelFifo) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  RecordingActor a, b;
  const NodeId na = be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  ASSERT_NE(be.worker_of(na), be.worker_of(nb));  // round-robin across workers

  // Sends enqueued before the workers spawn drain on the first run.
  const int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) be.send(na, nb, heartbeat(static_cast<std::uint64_t>(i)));
  be.run_for(50'000);
  be.stop();

  ASSERT_EQ(b.values.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(b.froms[i], na);
    EXPECT_EQ(b.values[i], static_cast<std::uint64_t>(i));  // FIFO per channel
  }
  EXPECT_TRUE(a.values.empty());
  EXPECT_GE(be.events_executed(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_GT(be.transport().total_bytes_sent(), 0u);
}

TEST(ThreadRuntime, ColocatedNodesShareAWorker) {
  ThreadBackend be(ThreadBackend::Options{4, 1});
  RecordingActor s, c;
  const NodeId ns = be.add_node(&s, 0, nullptr);
  const NodeId nc = be.add_node(&c, 0, nullptr, /*colocate_with=*/ns);
  EXPECT_EQ(be.worker_of(ns), be.worker_of(nc));
}

TEST(ThreadRuntime, DeferredTasksRunOnTheOwningWorker) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  RecordingActor a;
  const NodeId na = be.add_node(&a, 0, nullptr);

  std::atomic<int> ran{0};
  std::thread::id task_thread;
  be.exec().defer(na, [&] {
    task_thread = std::this_thread::get_id();
    ran.fetch_add(1);
  });
  be.exec().post(na, [&] { ran.fetch_add(1); });
  be.run_for(50'000);
  be.stop();

  EXPECT_EQ(ran.load(), 2);
  EXPECT_NE(task_thread, std::this_thread::get_id());
}

TEST(ThreadRuntime, PeriodicTimerFiresAndCancelStops) {
  ThreadBackend be(ThreadBackend::Options{1, 1});
  RecordingActor a;
  const NodeId na = be.add_node(&a, 0, nullptr);

  std::atomic<int> fires{0};
  std::atomic<int> cancelled_fires{0};
  runtime::TimerHandle keep =
      be.exec().every(na, /*period=*/5'000, /*phase=*/0, [&] { fires.fetch_add(1); });
  {
    runtime::TimerHandle dropped =
        be.exec().every(na, 5'000, 0, [&] { cancelled_fires.fetch_add(1); });
    // RAII-cancelled before the workers ever start.
  }
  be.run_for(60'000);
  be.stop();

  // ~12 periods in 60ms; generous bounds absorb scheduler noise in CI.
  EXPECT_GE(fires.load(), 3);
  EXPECT_LE(fires.load(), 40);
  EXPECT_EQ(cancelled_fires.load(), 0);
  keep.cancel();  // cancel after stop must be safe
}

TEST(ThreadRuntime, DeferAtNeverRunsEarlyAndRunsOnTheActorsWorker) {
  ThreadBackend be(ThreadBackend::Options{2, 1});
  RecordingActor a, b;
  be.add_node(&a, 0, nullptr);
  const NodeId nb = be.add_node(&b, 1, nullptr);
  ASSERT_EQ(be.worker_of(nb), 1u);

  // Armed before start(): the deadlines are absolute executor times.
  constexpr int kTasks = 8;
  std::atomic<int> ran{0};
  std::vector<std::uint64_t> due(kTasks), fired_at(kTasks);
  std::vector<std::thread::id> ran_on(kTasks);
  std::thread::id owner;
  be.exec().defer(nb, [&] { owner = std::this_thread::get_id(); });
  const std::uint64_t base = be.exec().now_us();
  for (int i = 0; i < kTasks; ++i) {
    // Out of order on purpose: the held heap, not arrival order, decides.
    due[i] = base + 5'000 + static_cast<std::uint64_t>((i * 7) % kTasks) * 2'000;
    be.exec().defer_at(nb, due[i], [&, i] {
      fired_at[i] = be.exec().now_us();
      ran_on[i] = std::this_thread::get_id();
      ran.fetch_add(1);
    });
  }
  be.run_for(60'000);
  be.stop();

  ASSERT_EQ(ran.load(), kTasks);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_GE(fired_at[i], due[i]) << "task " << i << " ran before its deadline";
    EXPECT_EQ(ran_on[i], owner) << "task " << i << " ran off the actor's worker";
  }
}

TEST(ThreadRuntime, DeferAtPastDeadlineRunsPromptlyFromAForeignThread) {
  ThreadBackend be(ThreadBackend::Options{1, 1});
  RecordingActor a;
  const NodeId na = be.add_node(&a, 0, nullptr);
  be.start();

  // After start(), from a thread that is neither a worker nor the one that
  // started the backend: the MPSC mailbox carries the task.
  std::atomic<std::uint64_t> lag_us{~0ull};
  std::thread foreign([&] {
    const std::uint64_t armed = be.exec().now_us();
    be.exec().defer_at(na, armed > 1'000 ? armed - 1'000 : 0, [&, armed] {
      lag_us.store(be.exec().now_us() - armed);
    });
  });
  foreign.join();
  be.run_for(50'000);
  be.stop();

  ASSERT_NE(lag_us.load(), ~0ull) << "past-deadline task never ran";
  // A past deadline means "now": no timer wait, just the mailbox hop. The
  // bound is loose for loaded CI hosts; the point is it is not deferred.
  EXPECT_LT(lag_us.load(), 20'000u);
}

TEST(SimRuntime, DeferAtFiresAtExactlyItsDeadline) {
  runtime::SimBackend be(1, sim::LatencyModel::uniform(1, 1000, 100));
  RecordingActor a;
  const NodeId na = be.add_node(&a, 0, nullptr);
  std::vector<std::uint64_t> fired;
  be.exec().defer_at(na, 1'234, [&] { fired.push_back(be.exec().now_us()); });
  be.exec().defer_at(na, 777, [&] {
    fired.push_back(be.exec().now_us());
    // A deadline already past from inside the loop runs at the current time.
    be.exec().defer_at(na, 5, [&] { fired.push_back(be.exec().now_us()); });
  });
  be.run_for(10'000);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{777, 777, 1'234}));
}

TEST(ThreadRuntime, NowAdvancesMonotonically) {
  ThreadBackend be(ThreadBackend::Options{1, 1});
  const std::uint64_t t0 = be.exec().now_us();
  be.run_for(10'000);
  const std::uint64_t t1 = be.exec().now_us();
  be.stop();
  EXPECT_GE(t1, t0 + 9'000);
}

/// Cross-runtime smoke: identical cluster + workload on both backends; the
/// exactness checker (order-independent) must pass on each, proving the
/// protocol layer truly runs unchanged on either runtime.
TEST(CrossRuntime, SameClusterPassesExactnessOnBothBackends) {
  for (const auto kind : {runtime::Kind::kSim, runtime::Kind::kThreads}) {
    workload::ExperimentConfig cfg;
    cfg.runtime = kind;
    cfg.system = proto::System::kParis;
    cfg.num_dcs = 2;
    cfg.num_partitions = 4;
    cfg.replication = 2;
    cfg.threads_per_process = 1;
    cfg.workload.ops_per_tx = 8;
    cfg.workload.writes_per_tx = 2;
    cfg.workload.keys_per_partition = 100;
    cfg.warmup_us = 50'000;
    cfg.measure_us = 150'000;
    cfg.aws_latency = false;
    cfg.codec = sim::CodecMode::kBytes;
    cfg.check_consistency = true;
    cfg.seed = 11;

    const auto res = workload::run_experiment(cfg);
    SCOPED_TRACE(runtime::kind_name(kind));
    EXPECT_GT(res.committed, 0u);
    for (const auto& v : res.violations) ADD_FAILURE() << v;
  }
}

TEST(CrossRuntime, BprPassesExactnessOnThreads) {
  workload::ExperimentConfig cfg;
  cfg.runtime = runtime::Kind::kThreads;
  cfg.system = proto::System::kBpr;
  cfg.num_dcs = 2;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 1;
  cfg.workload.ops_per_tx = 8;
  cfg.workload.writes_per_tx = 2;
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = 50'000;
  cfg.measure_us = 150'000;
  cfg.check_consistency = true;
  cfg.seed = 12;

  const auto res = workload::run_experiment(cfg);
  EXPECT_GT(res.committed, 0u);
  for (const auto& v : res.violations) ADD_FAILURE() << v;
}

}  // namespace
}  // namespace paris::test
