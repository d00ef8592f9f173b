#include "workload/experiment.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/assert.h"
#include "stats/latency_recorder.h"
#include "verify/history.h"
#include "workload/driver.h"
#include "workload/openloop.h"
#include "workload/socket_runner.h"

namespace paris::workload {

namespace {

/// Tracer used by experiments: optional full-history recording (for the
/// exactness checker) plus sampled update-visibility measurement. Hooks
/// fire from every worker thread of a ThreadBackend, so mutations are
/// mutex-guarded (uncontended on the single-threaded sim backend).
class ExperimentTracer : public proto::Tracer {
 public:
  ExperimentTracer(bool check, bool visibility, std::uint32_t sample_shift)
      : check_(check), visibility_(visibility), sample_mask_((1u << sample_shift) - 1) {
    if (check_) history_ = std::make_unique<verify::HistoryRecorder>();
  }

  bool sampled(TxId tx) const {
    return (splitmix64(tx.raw) & sample_mask_) == 0;
  }

  void on_tx_started(NodeId client, TxId tx, Timestamp snapshot,
                     sim::SimTime now) override {
    if (history_) history_->on_tx_started(client, tx, snapshot, now);
  }

  void on_commit_writes(TxId tx, DcId origin,
                        const std::vector<wire::WriteKV>& writes) override {
    if (history_) history_->on_commit_writes(tx, origin, writes);
  }

  void on_commit_decided(TxId tx, Timestamp ct, DcId origin, sim::SimTime now) override {
    if (history_) history_->on_commit_decided(tx, ct, origin, now);
    if (visibility_ && sampled(tx)) {
      std::lock_guard<std::mutex> lk(mu_);
      commit_wall_[tx] = now;
    }
  }

  void on_replica_commit(TxId tx, Timestamp ct, DcId origin,
                         const wire::ReplicateTxn& txn) override {
    if (history_) history_->on_replica_commit(tx, ct, origin, txn);
  }

  void on_slice_served(DcId dc, PartitionId p, TxId tx, Timestamp snapshot,
                       std::uint8_t mode, const std::vector<wire::Item>& items,
                       sim::SimTime now) override {
    if (history_) history_->on_slice_served(dc, p, tx, snapshot, mode, items, now);
  }

  bool want_visibility(TxId tx) const override { return visibility_ && sampled(tx); }

  void on_visible(DcId, PartitionId, TxId tx, Timestamp, sim::SimTime now) override {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = commit_wall_.find(tx);
    // An apply can race ahead of the commit_wall_ record only if the tx was
    // not sampled; sampled() gates both sides, so a miss means the commit
    // happened before tracing was relevant (e.g. warmup overlap) — skip.
    if (it == commit_wall_.end()) return;
    visibility_hist_.record(now >= it->second ? now - it->second : 0);
  }

  verify::HistoryRecorder* history() { return history_.get(); }
  const stats::Histogram& visibility() const { return visibility_hist_; }

 private:
  bool check_;
  bool visibility_;
  std::uint64_t sample_mask_;
  std::mutex mu_;
  std::unique_ptr<verify::HistoryRecorder> history_;
  std::unordered_map<TxId, sim::SimTime> commit_wall_;
  stats::Histogram visibility_hist_;
};

}  // namespace

namespace detail {

ExperimentResult run_local_experiment(const ExperimentConfig& cfg,
                                      std::vector<std::uint8_t>* history_out) {
  const auto wall_start = std::chrono::steady_clock::now();

  proto::DeploymentConfig dc;
  dc.system = cfg.system;
  dc.runtime = cfg.runtime;
  dc.worker_threads = cfg.worker_threads;
  dc.socket = cfg.socket;
  dc.topo = {cfg.num_dcs, cfg.num_partitions, cfg.replication};
  dc.protocol = cfg.protocol;
  dc.cost = cfg.cost;
  dc.codec = cfg.codec;
  dc.aws_latency = cfg.aws_latency;
  dc.uniform_inter_dc_us = cfg.uniform_inter_dc_us;
  dc.uniform_intra_dc_us = cfg.uniform_intra_dc_us;
  dc.latency_model = cfg.latency_model;
  dc.chaos = cfg.chaos;
  dc.reliable = cfg.reliable;
  dc.reliable_cfg = cfg.reliable_cfg;
  dc.partitions = cfg.partitions;
  dc.wan = cfg.wan;
  dc.fuzz = cfg.fuzz;
  dc.membership = cfg.membership;
  dc.seed = cfg.seed;

  // Per-DC membership windows (offsets from run start, matching the
  // deployment's schedule timers): clients of a joining DC only start at its
  // join time; a leaving DC's clients stop at its leave time. An event's
  // rank expands to the DCs that rank owns, exactly as the deployment does.
  std::vector<std::uint64_t> join_at_us(cfg.num_dcs, 0);
  std::vector<std::uint64_t> leave_at_us(cfg.num_dcs, ~0ull);
  {
    const std::uint32_t nprocs = cfg.runtime == runtime::Kind::kSockets
                                     ? cfg.socket.resolve_processes(cfg.num_dcs)
                                     : cfg.num_dcs;
    for (const proto::MembershipEvent& ev : cfg.membership.events) {
      for (DcId d = 0; d < cfg.num_dcs; ++d) {
        if (d % nprocs != ev.rank) continue;
        (ev.join ? join_at_us : leave_at_us)[d] = ev.at_ms * 1000;
      }
    }
  }

  ExperimentTracer tracer(cfg.check_consistency, cfg.measure_visibility,
                          cfg.visibility_sample_shift);
  proto::Deployment dep(dc, &tracer);
  dep.start();

  // One client process per partition per DC, threads_per_process sessions
  // each, collocated with their coordinator (§V-A). EVERY process of a
  // socket deployment registers EVERY client — node ids must agree across
  // processes — but only builds sessions for the clients it hosts.
  //
  // Open-loop mode replaces the closed-loop sessions with one engine per
  // (DC, partition), multiplexing cfg.openloop.sessions logical sessions
  // onto a threads_per_process-wide client pool. Engine indices enumerate
  // the same (d, p) loop in every process so pre-drawn schedules (and the
  // cross-runtime workload digest) agree regardless of which process hosts
  // which engine.
  const bool open_loop = cfg.openloop.enabled;
  const std::uint64_t horizon_us = cfg.warmup_us + cfg.measure_us;
  std::vector<TraceEntry> trace;
  if (open_loop && !cfg.openloop.trace_path.empty()) {
    std::string err;
    const bool ok = load_trace(cfg.openloop.trace_path, &trace, &err);
    PARIS_CHECK_MSG(ok, err.c_str());
  }
  Collector collector;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<NodeId> session_nodes;
  std::vector<DcId> session_dcs;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;
  const std::uint32_t num_engines = cfg.num_partitions * cfg.replication;
  std::uint32_t engine_index = 0;
  for (DcId d = 0; d < dep.topo().num_dcs(); ++d) {
    for (PartitionId p : dep.topo().partitions_at(d)) {
      if (open_loop) {
        std::vector<proto::Client*> pool;
        bool local = true;
        for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
          auto& client = dep.add_client(d, p);
          if (!dep.backend().local(client.node())) {
            local = false;
            continue;
          }
          pool.push_back(&client);
        }
        if (local && !pool.empty()) {
          const std::uint64_t eseed =
              splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                         (static_cast<std::uint64_t>(p) << 20) ^ 0xA5A5ULL);
          auto eng = std::make_unique<OpenLoopEngine>(
              dep.topo(), cfg.workload, cfg.openloop, d, p, engine_index, num_engines,
              horizon_us, eseed, trace.empty() ? nullptr : &trace);
          for (proto::Client* c : pool) eng->add_client(c);
          eng->set_active_window(join_at_us[d], leave_at_us[d]);
          engines.push_back(std::move(eng));
        }
        ++engine_index;
        continue;
      }
      for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
        auto& client = dep.add_client(d, p);
        if (!dep.backend().local(client.node())) continue;
        const std::uint64_t seed =
            splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                       (static_cast<std::uint64_t>(p) << 20) ^ t);
        sessions.push_back(std::make_unique<Session>(
            dep.exec(), client, TxGenerator(dep.topo(), cfg.workload, d, seed), collector));
        session_nodes.push_back(client.node());
        session_dcs.push_back(d);
      }
    }
  }

  // A respawned socket child (epoch > 0) streams donor state + catch-up
  // before it may serve: this starts the backend (all actors are registered
  // by now) and blocks until the transfer completes, so the t0 anchor below
  // never covers transactions run against a half-recovered store. Trivially
  // true for every other runtime.
  const auto recover_start = std::chrono::steady_clock::now();
  PARIS_CHECK_MSG(dep.wait_recovered(cfg.socket.connect_timeout_ms + 30'000),
                  "socket child: state transfer did not complete in time");
  const std::uint64_t recovery_ms =
      cfg.socket.epoch > 0
          ? static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                           std::chrono::steady_clock::now() - recover_start)
                                           .count())
          : 0;

  // The measurement window is anchored at the current runtime time: zero
  // for the sim backend (as before), the setup-elapsed steady-clock offset
  // for the threads backend.
  const sim::SimTime t0 = dep.exec().now_us();
  collector.set_window(t0 + cfg.warmup_us, t0 + cfg.warmup_us + cfg.measure_us);
  for (auto& eng : engines) {
    eng->recorder().set_window(t0 + cfg.warmup_us, t0 + cfg.warmup_us + cfg.measure_us);
    eng->start(dep.exec(), t0);
  }

  // Kick each closed loop on its client's execution context: inline for the
  // sim backend (the historical behavior), a mailbox task for threads. A
  // leaving DC's sessions drain at the leave time; a joining DC's sessions
  // are kicked by a one-shot task at the join time instead of now. Sessions
  // outlive dep.stop(), after which a still-pending kick never runs.
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Session* s = sessions[i].get();
    const DcId d = session_dcs[i];
    if (leave_at_us[d] != ~0ull) s->set_deadline(t0 + leave_at_us[d]);
    if (join_at_us[d] == 0) {
      dep.exec().post(session_nodes[i], [s] { s->run(); });
    } else {
      dep.exec().defer_at(session_nodes[i], t0 + join_at_us[d], [s] { s->run(); });
    }
  }

  // Scheduled stall (CO regression tests): a helper thread flips the socket
  // pump's outbound stall toward one peer mid-run, then releases it.
  std::thread staller;
  if (cfg.runtime == runtime::Kind::kSockets && cfg.socket.rank >= 0 &&
      cfg.socket.rank == cfg.socket.stall_rank && cfg.socket.stall_len_ms > 0) {
    auto* sb = dep.socket_backend();
    PARIS_CHECK(sb != nullptr);
    const auto peer = cfg.socket.stall_peer;
    const auto at_ms = cfg.socket.stall_at_ms;
    const auto len_ms = cfg.socket.stall_len_ms;
    staller = std::thread([sb, peer, at_ms, len_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(at_ms));
      sb->debug_stall_peer(peer, true);
      std::this_thread::sleep_for(std::chrono::milliseconds(len_ms));
      sb->debug_stall_peer(peer, false);
    });
  }

  dep.run_for(cfg.warmup_us + cfg.measure_us);
  if (staller.joinable()) staller.join();
  dep.stop();  // quiesce thread workers before reading state (sim: no-op)
  for (auto& eng : engines) eng->finalize();
  // A scheduled join must have completed inside the run: every joining
  // server finished its snapshot + catch-up and started serving.
  if (cfg.membership.enabled()) {
    PARIS_CHECK_MSG(dep.recovering_servers() == 0,
                    "membership join did not complete: servers still in state "
                    "transfer at run end (lengthen the run or move the join earlier)");
  }

  ExperimentResult res;
  res.throughput_tx_s = collector.throughput_tx_s();
  res.committed = collector.committed();
  res.latency_hist = collector.latency();
  res.latency_local_hist = collector.latency_local();
  res.latency_multi_hist = collector.latency_multi();
  res.latency_us = stats::Summary::of(res.latency_hist);

  if (open_loop) {
    stats::LatencyRecorder rec;
    for (const auto& eng : engines) {
      rec.merge(eng->recorder());
      res.workload_digest ^= eng->digest();
    }
    res.intended_rate_tx_s = rec.intended_rate();
    res.achieved_rate_tx_s = rec.achieved_rate();
    res.scheduled = rec.scheduled();
    res.overdue = rec.overdue();
    res.max_backlog = rec.max_backlog();
    res.intended_hist = rec.intended();
    res.service_hist = rec.service();
    res.intended_us = stats::Summary::of(res.intended_hist);
    res.service_us = stats::Summary::of(res.service_hist);
    // The generic throughput fields report the open-loop equivalents so
    // shared tooling (bench JSON, guard floors) keeps working.
    res.throughput_tx_s = res.achieved_rate_tx_s;
    res.committed = rec.completed();
  }

  const auto server_stats = dep.total_server_stats();
  res.blocked_reads = server_stats.reads_blocked;
  res.avg_block_ms = server_stats.reads_blocked
                         ? static_cast<double>(server_stats.blocked_time_us) /
                               static_cast<double>(server_stats.reads_blocked) / 1000.0
                         : 0.0;

  res.gossip_msgs = server_stats.gossip_msgs_sent;
  res.snapshots_served = server_stats.snapshots_served;
  res.catchups_served = server_stats.catchups_served;
  res.prepared_fenced = server_stats.prepared_fenced;
  res.recovery_ms = recovery_ms;
  for (const auto& c : dep.clients()) {
    res.max_client_cache = std::max(res.max_client_cache, c->stats().max_cache_size);
    res.keys_read += c->stats().keys_read;
    res.local_hits += c->stats().local_hits;
  }
  res.local_hit_rate =
      res.keys_read ? static_cast<double>(res.local_hits) / static_cast<double>(res.keys_read)
                    : 0;

  res.visibility_hist = tracer.visibility();
  res.sim_events = dep.backend().events_executed();
  res.bytes_sent = dep.transport().total_bytes_sent();
  if (dep.chaos_transport() != nullptr) res.chaos = dep.chaos_transport()->stats();
  if (dep.reliable_transport() != nullptr) res.reliable = dep.reliable_transport()->stats();
  if (dep.partition_transport() != nullptr) res.partition = dep.partition_transport()->stats();
  if (dep.wan_transport() != nullptr) res.wan = dep.wan_transport()->stats();
  if (dep.fuzz_transport() != nullptr) res.fuzz = dep.fuzz_transport()->stats();
  if (dep.socket_backend() != nullptr) res.socket = dep.socket_backend()->stats();
  if (tracer.history() != nullptr) {
    if (history_out != nullptr) {
      // Socket child: this process saw only its share of the execution —
      // checking it alone would report false phantoms for remote commits.
      // Ship the history; the launcher merges and checks.
      tracer.history()->serialize(*history_out);
    } else {
      res.violations = tracer.history()->check();
    }
  }

  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return res;
}

}  // namespace detail

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  if (cfg.runtime == runtime::Kind::kSockets && cfg.socket.rank < 0) {
    return detail::run_socket_parent(cfg);
  }
  return detail::run_local_experiment(cfg, nullptr);
}

}  // namespace paris::workload
