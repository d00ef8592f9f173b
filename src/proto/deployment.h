#pragma once
// Deployment: builds a complete cluster — runtime backend, one server per
// (DC, partition) replica, physical clocks, timers — for either system
// (PaRiS or BPR), and hands out client sessions. This is the top-level
// entry point of the library; see examples/quickstart.cc for usage.
//
// The deployment programs only against the runtime abstraction: with
// runtime::Kind::kSim it runs inside the deterministic discrete-event
// simulator (byte-identical per seed), with runtime::Kind::kThreads the
// same protocol code runs on real worker threads. Sim-specific access
// (fault injection, stepping) lives in proto/sim_access.h.

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/membership.h"
#include "proto/bpr_server.h"
#include "proto/client.h"
#include "proto/paris_server.h"
#include "proto/runtime.h"
#include "runtime/backend.h"
#include "runtime/fuzz_transport.h"
#include "runtime/latency_transport.h"
#include "runtime/partition_transport.h"
#include "runtime/reliable_transport.h"
#include "runtime/wan_transport.h"
#include "runtime/socket_runtime.h"
#include "sim/codec_mode.h"

namespace paris::proto {

enum class System { kParis, kBpr };

inline const char* system_name(System s) { return s == System::kParis ? "PaRiS" : "BPR"; }

/// Elastic membership schedule (DESIGN §11): at `at_ms` of run time, the DCs
/// owned by process rank `rank` join (start inactive, snapshot + catch-up in,
/// then serve) or leave (drain: peers stop fanning out / routing to them).
/// On the threads/sim backends "rank" addresses DC `rank` directly.
struct MembershipEvent {
  bool join = true;
  std::uint32_t rank = 0;
  std::uint64_t at_ms = 0;
};

struct MembershipSchedule {
  std::vector<MembershipEvent> events;
  bool enabled() const { return !events.empty(); }
};

struct DeploymentConfig {
  System system = System::kParis;
  cluster::TopologyConfig topo;
  ProtocolConfig protocol;
  CostModel cost;
  /// Backend: deterministic simulator (default), real worker threads, or
  /// real OS processes connected over TCP (kSockets; see socket below).
  runtime::Kind runtime = runtime::Kind::kSim;
  /// Threads/sockets backend: worker thread count (per process for
  /// sockets); 0 = one per server node hosted by this process.
  std::uint32_t worker_threads = 0;
  /// Sockets backend: this process's rank + cluster wiring. A deployment is
  /// only ever built INSIDE a child process (rank >= 0); the launcher side
  /// lives in workload::run_experiment, which spawns children and merges.
  runtime::SocketConfig socket;
  /// Scheduled DC join/leave view changes (empty = static membership).
  MembershipSchedule membership;
  sim::CodecMode codec = sim::CodecMode::kBytes;
  /// true: AWS-calibrated inter-DC latencies (first M of the paper's ten
  /// regions); false: uniform latencies (unit tests).
  bool aws_latency = true;
  std::uint64_t uniform_inter_dc_us = 40'000;
  std::uint64_t uniform_intra_dc_us = 150;
  double jitter = 0.05;
  /// Threads backend only: wrap the transport in a LatencyTransport drawing
  /// from the same matrix/jitter settings above, so a threads run models
  /// WAN delay like the simulator does. kNone = instant delivery.
  runtime::LatencyModelKind latency_model = runtime::LatencyModelKind::kNone;
  /// Threads backend only: fault-injection decorator (off by default).
  runtime::ChaosConfig chaos;
  /// Threads backend only: at-least-once reliable delivery. Wraps every
  /// protocol message in a sequenced frame with retransmission + dedup, so
  /// chaos drops and partitions of ANY message class still converge
  /// (DESIGN.md §9). Off by default: the undecorated path pays nothing.
  bool reliable = false;
  runtime::ReliableConfig reliable_cfg;
  /// Threads backend only: scheduled inter-DC blackouts (messages crossing
  /// an active window are dropped; heals at the window deadline).
  runtime::PartitionSpec partitions;
  /// Threads/sockets: WAN-realism link episodes (asymmetric delay ramps,
  /// bandwidth caps, Gilbert–Elliott burst loss). Off when empty.
  runtime::WanConfig wan;
  /// Threads/sockets: live channel fuzzing (mutate-then-drop + replay),
  /// below the reliable layer. Off by default.
  runtime::FuzzConfig fuzz;
  std::uint64_t seed = 1;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& cfg, Tracer* tracer = nullptr);
  ~Deployment();

  /// Starts all server timers (apply/replicate, gossip, GC). Call once
  /// before running the deployment.
  ///
  /// Socket children additionally get the self-healing wiring (DESIGN §11):
  /// every local server learns its incarnation epoch, an epoch listener
  /// fences stale reliable channels / 2PC state when a peer rank respawns,
  /// and — when this child IS the respawn (epoch > 0) — local servers defer
  /// their timers until donor state transfer + catch-up completes.
  void start();

  /// Sockets, epoch > 0: number of local servers still streaming donor
  /// state. Reaches 0 once every local server has rejoined.
  std::uint32_t recovering_servers() const {
    return recovering_.load(std::memory_order_acquire);
  }
  /// Polls until every local server finished recovery or `timeout_ms`
  /// elapsed; returns true on success. Trivially true when no recovery was
  /// armed. Starts the backend workers if start() left them cold.
  bool wait_recovered(std::uint64_t timeout_ms);

  /// Creates a client session collocated with the given coordinator
  /// partition server in `dc` (the paper collocates one client process per
  /// partition per DC). The deployment owns the client. Clients must be
  /// added before the first run_for().
  Client& add_client(DcId dc, PartitionId coordinator_partition);

  // --- accessors ---
  runtime::Backend& backend() { return *backend_; }
  runtime::Executor& exec() { return backend_->exec(); }
  /// The transport the protocol layer sends through: the backend's own, or
  /// the outermost decorator when a latency model / chaos is configured.
  runtime::Transport& transport() { return rt_.net; }
  /// Non-null when the deployment injects latency (threads backend with
  /// latency_model != kNone).
  runtime::LatencyTransport* latency_transport() { return latency_tp_.get(); }
  /// Non-null when fault injection is on (chaos.enabled()).
  runtime::ChaosTransport* chaos_transport() { return chaos_tp_.get(); }
  /// Non-null when at-least-once delivery is on (cfg.reliable, threads).
  runtime::ReliableTransport* reliable_transport() { return reliable_tp_.get(); }
  /// Non-null when scheduled blackouts are configured (cfg.partitions).
  runtime::PartitionTransport* partition_transport() { return partition_tp_.get(); }
  /// Non-null when WAN link episodes are configured (cfg.wan.enabled()).
  runtime::WanTransport* wan_transport() { return wan_tp_.get(); }
  /// Non-null when channel fuzzing is on (cfg.fuzz.enabled()).
  runtime::FuzzTransport* fuzz_transport() { return fuzz_tp_.get(); }
  /// Non-null when this deployment runs the socket backend (child process).
  runtime::SocketBackend* socket_backend() {
    return cfg_.runtime == runtime::Kind::kSockets
               ? static_cast<runtime::SocketBackend*>(backend_.get())
               : nullptr;
  }
  const cluster::Topology& topo() const { return topo_; }
  Runtime& runtime() { return rt_; }
  const DeploymentConfig& config() const { return cfg_; }

  ServerBase& server(DcId dc, PartitionId p);
  /// Null if the deployment runs the other system.
  ParisServer* paris_server(DcId dc, PartitionId p);
  BprServer* bpr_server(DcId dc, PartitionId p);
  const std::vector<std::unique_ptr<ServerBase>>& servers() const { return servers_; }
  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }

  /// Advances the deployment by `us` microseconds (simulated or wall time).
  void run_for(std::uint64_t us) { backend_->run_for(us); }
  /// Stops worker threads (threads backend; no-op for sim). Call before
  /// inspecting server/client state of a threads run; also runs on
  /// destruction.
  void stop() { backend_->stop(); }

  /// Aggregated server stats across the cluster, accumulated in NodeId
  /// order so the output is deterministic regardless of container order.
  ServerBase::Stats total_server_stats() const;

 private:
  /// Registers an actor with the backend, interposing the reliable-delivery
  /// endpoint when cfg.reliable is on.
  NodeId register_actor(runtime::Actor* real, DcId dc, runtime::ServiceFn service,
                        NodeId colocate_with = kInvalidNode);

  /// Installs the epoch listener: when a peer rank's epoch rises (it was
  /// respawned), every local server resets its reliable channels to the
  /// reincarnated nodes, fences prepared 2PC entries of the dead
  /// coordinators, and offers anti-entropy catch-up.
  void wire_epoch_fencing(runtime::SocketBackend& sb);
  /// Epoch > 0 child: posts start_recovery on every local server that has a
  /// surviving remote replica (donor + peers), deferring its timers to the
  /// recovery-done callback. Servers with no surviving replica start cold.
  void arm_socket_recovery(runtime::SocketBackend& sb);
  /// Elastic membership (DESIGN §11): parks the servers of later-joining
  /// DCs, schedules the local join/leave view installs, wires the beacon
  /// view listener (sockets) and the catch-up gate, and arms the join-time
  /// state transfer for the local DCs that join late (their timers are
  /// deferred to the join-done callback).
  void arm_membership(Rng& phase_rng);
  /// DCs this process hosts (all of them off the socket backend).
  bool hosts_dc(DcId d) const;
  void install_view_local(std::uint32_t view_id);
  void begin_join(DcId d, std::uint32_t view_id);

  DeploymentConfig cfg_;
  cluster::Topology topo_;
  cluster::Directory dir_;
  /// Built before rt_ (which carries the pointer); views precomputed from
  /// cfg_.membership so every process derives the identical sequence.
  std::unique_ptr<cluster::Membership> membership_;
  std::unique_ptr<runtime::Backend> backend_;
  // Transport decorator chain (threads/sockets backends only); the protocol
  // sends through reliable -> fuzz -> chaos -> partition -> wan -> latency
  // -> backend (each layer optional). Fuzz sits just below reliable so it
  // sees — and may corrupt/replay — the sequenced frames the reliable layer
  // must recover from; wan shapes links next to the latency model it
  // perturbs. Declared innermost-first and before rt_, which binds a
  // reference to the outermost transport.
  std::unique_ptr<runtime::LatencyTransport> latency_tp_;
  std::unique_ptr<runtime::WanTransport> wan_tp_;
  std::unique_ptr<runtime::PartitionTransport> partition_tp_;
  std::unique_ptr<runtime::ChaosTransport> chaos_tp_;
  std::unique_ptr<runtime::FuzzTransport> fuzz_tp_;
  std::unique_ptr<runtime::ReliableTransport> reliable_tp_;
  Runtime rt_;
  std::vector<std::unique_ptr<ServerBase>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool started_ = false;
  /// Local servers whose recovery is still in flight (sockets epoch > 0
  /// respawn, or an elastic join's state transfer).
  std::atomic<std::uint32_t> recovering_{0};
  /// Catch-up gate pollers of in-progress joins (sockets).
  std::vector<runtime::TimerHandle> gate_pollers_;
  /// Actor hosting the membership schedule tasks and gate pollers: periodic
  /// timers may only be created pre-start or from this actor's own worker
  /// (the schedule tasks that start joins).
  NodeId memb_timer_node_ = kInvalidNode;

 public:
  /// The membership view machinery (null when no schedule is configured).
  cluster::Membership* membership() { return membership_.get(); }
};

}  // namespace paris::proto
