#pragma once
// End-to-end experiment runner: builds a deployment, populates it with
// closed-loop client sessions (one client process per partition per DC,
// `threads_per_process` sessions each, as in §V-A), runs warmup +
// measurement, and returns aggregate results. Every figure benchmark in
// bench/ is a parameter sweep over run_experiment().

#include <string>
#include <vector>

#include "proto/deployment.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "workload/openloop.h"
#include "workload/spec.h"

namespace paris::workload {

struct ExperimentConfig {
  proto::System system = proto::System::kParis;

  /// Runtime backend: deterministic simulator (default), real worker
  /// threads (`worker_threads` workers; 0 = one per server), or real OS
  /// processes over TCP loopback (kSockets: run_experiment spawns
  /// `socket.processes` children of the CURRENT binary — which must call
  /// maybe_run_socket_child() first thing in main() — waits, merges their
  /// stats and runs the checker over the merged history).
  runtime::Kind runtime = runtime::Kind::kSim;
  std::uint32_t worker_threads = 0;
  runtime::SocketConfig socket;
  /// Elastic membership schedule (DESIGN §11): scheduled DC join/leave view
  /// changes, measured from the post-warmup t0. A joining DC's clients only
  /// start at the join time; a leaving DC's clients stop at the leave time.
  proto::MembershipSchedule membership;

  // Cluster shape.
  std::uint32_t num_dcs = 5;
  std::uint32_t num_partitions = 45;
  std::uint32_t replication = 2;

  WorkloadSpec workload;
  /// Open-loop mode (DESIGN §14): when enabled, the closed-loop sessions are
  /// replaced by one OpenLoopEngine per (DC, partition replicated there)
  /// releasing a pre-drawn arrival schedule; threads_per_process sizes each
  /// engine's client pool instead of its session count.
  OpenLoopSpec openloop;
  /// Client threads per (DC, partition) client process; the load knob the
  /// paper sweeps to trace the throughput/latency curves.
  std::uint32_t threads_per_process = 4;

  sim::SimTime warmup_us = 300'000;
  sim::SimTime measure_us = 1'000'000;
  std::uint64_t seed = 1;

  /// Record every slice and run the offline exactness checker afterwards
  /// (memory-heavy; tests and small runs only).
  bool check_consistency = false;
  /// Track update visibility latency (Fig. 4); transactions are sampled at
  /// 1 / (1 << visibility_sample_shift).
  bool measure_visibility = false;
  std::uint32_t visibility_sample_shift = 4;

  proto::ProtocolConfig protocol;
  proto::CostModel cost;
  bool aws_latency = true;
  std::uint64_t uniform_inter_dc_us = 40'000;
  std::uint64_t uniform_intra_dc_us = 150;
  /// Threads runtime: latency-injecting transport decorator (the sim
  /// backend models latency itself) and optional fault injection — both
  /// draw from the aws/uniform latency settings above.
  runtime::LatencyModelKind latency_model = runtime::LatencyModelKind::kNone;
  runtime::ChaosConfig chaos;
  /// Threads runtime: at-least-once reliable delivery (chaos drops of any
  /// class and partitions still converge) and scheduled inter-DC blackouts.
  bool reliable = false;
  runtime::ReliableConfig reliable_cfg;
  runtime::PartitionSpec partitions;
  /// Threads/sockets: WAN-realism link episodes and live channel fuzzing
  /// (the scenario engine's knobs; both off by default).
  runtime::WanConfig wan;
  runtime::FuzzConfig fuzz;
  /// Benchmarks default to size-only codec accounting; tests use kBytes to
  /// exercise the serialization on every delivery.
  sim::CodecMode codec = sim::CodecMode::kSizeOnly;

  /// machines per DC for this config (each machine hosts one partition
  /// replica): N * R / M.
  double machines_per_dc() const {
    return static_cast<double>(num_partitions) * replication / num_dcs;
  }
};

struct ExperimentResult {
  double throughput_tx_s = 0;
  std::uint64_t committed = 0;
  stats::Summary latency_us;
  stats::Histogram latency_hist;        // µs
  stats::Histogram latency_local_hist;  // µs
  stats::Histogram latency_multi_hist;  // µs

  // BPR read blocking (whole run, §V-B "Blocking time").
  std::uint64_t blocked_reads = 0;
  double avg_block_ms = 0;

  // Update visibility latency (µs), all replicas of sampled transactions.
  stats::Histogram visibility_hist;

  // Stabilization / client-cache footprint (ablations). The raw hit-rate
  // numerator/denominator ride along so multi-process runs can merge the
  // ratio exactly.
  std::uint64_t gossip_msgs = 0;
  std::size_t max_client_cache = 0;
  double local_hit_rate = 0;
  std::uint64_t keys_read = 0;
  std::uint64_t local_hits = 0;

  // Run health / cost.
  std::uint64_t sim_events = 0;
  std::uint64_t bytes_sent = 0;
  double wall_seconds = 0;
  /// Fault-injection tallies (all zero unless cfg.chaos enabled).
  runtime::ChaosTransport::Stats chaos;
  /// Reliable-delivery tallies (all zero unless cfg.reliable).
  runtime::ReliableTransport::Stats reliable;
  /// Blackout tallies (all zero unless cfg.partitions configured).
  runtime::PartitionTransport::Stats partition;
  /// WAN link-shaping tallies (all zero unless cfg.wan configured).
  runtime::WanTransport::Stats wan;
  /// Channel-fuzzing tallies (all zero unless cfg.fuzz enabled).
  runtime::FuzzTransport::Stats fuzz;
  /// Socket-runtime tallies, summed across children (zero otherwise).
  runtime::SocketStats socket;
  /// Self-healing tallies (supervised socket runs; zero otherwise).
  std::uint64_t respawns = 0;          ///< launcher: dead ranks respawned
  std::uint64_t snapshots_served = 0;  ///< donor-side state transfers
  std::uint64_t catchups_served = 0;   ///< catch-up delta streams served
  std::uint64_t prepared_fenced = 0;   ///< 2PC entries fenced after a crash
  /// Slowest child's mesh-join + state-transfer time (ms): ~0 for a cold
  /// start, the time-to-rejoin for a respawned rank.
  std::uint64_t recovery_ms = 0;

  // --- Open-loop engine results (all zero/empty unless cfg.openloop.enabled;
  // DESIGN §14). Intended latency is measured from each request's SCHEDULED
  // arrival, service latency from its actual start — coordinated-omission-
  // safe, so a stalled server shows up in intended p99 instead of vanishing.
  double intended_rate_tx_s = 0;   ///< what the arrival process asked for
  double achieved_rate_tx_s = 0;   ///< what the system completed
  std::uint64_t scheduled = 0;     ///< arrivals scheduled inside the window
  std::uint64_t overdue = 0;       ///< arrivals that had to queue for a client
  std::uint64_t max_backlog = 0;   ///< deepest release backlog observed
  stats::Histogram intended_hist;  ///< µs, finished - scheduled
  stats::Histogram service_hist;   ///< µs, finished - started
  stats::Summary intended_us;
  stats::Summary service_us;
  /// XOR of per-engine FNV-1a schedule digests: equal across the sim, thread
  /// and socket runtimes for the same (config, seed).
  std::uint64_t workload_digest = 0;

  std::vector<std::string> violations;  // non-empty => consistency bug
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace paris::workload
