#include "proto/deployment.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <mutex>
#include <thread>

#include "common/assert.h"
#include "common/rng.h"
#include "runtime/endpoint.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"

namespace paris::proto {

namespace {
/// How often a joining server polls peer view advertisements (sockets).
constexpr std::uint64_t kGatePollPeriodUs = 10'000;

/// Join-time catch-up gate (sockets): phase 2 of a joining server's state
/// transfer holds until every peer rank has advertised the join view — from
/// then on peers include the joiner in their replication fan-out, so the
/// per-source catch-up watermarks cover the cutover with no gap.
struct JoinGate {
  std::mutex mu;
  bool open = false;
  std::function<void()> resume;
};

std::unique_ptr<cluster::Membership> build_membership(const DeploymentConfig& cfg,
                                                      const cluster::Topology& topo) {
  if (!cfg.membership.enabled()) return nullptr;
  const bool sockets = cfg.runtime == runtime::Kind::kSockets;
  const std::uint32_t nprocs =
      sockets ? cfg.socket.resolve_processes(cfg.topo.num_dcs) : 0;
  std::vector<cluster::Member> members;
  if (sockets) {
    const auto& hosts = cfg.socket.hosts;
    for (std::uint32_t r = 0; r < hosts.size(); ++r)
      members.push_back({r, hosts[r], static_cast<std::uint32_t>(cfg.socket.epoch)});
  }
  // A schedule event names a process rank; it expands to every DC that rank
  // owns (sockets) or to DC `rank` directly (threads/sim), so each change
  // moves whole failure domains at once.
  std::vector<cluster::ViewChange> changes;
  for (const MembershipEvent& ev : cfg.membership.events) {
    cluster::ViewChange c;
    c.join = ev.join;
    c.at_us = ev.at_ms * 1000;
    if (sockets) {
      PARIS_CHECK_MSG(ev.rank < nprocs, "membership event names a rank outside the cluster");
      for (DcId d = 0; d < cfg.topo.num_dcs; ++d)
        if (d % nprocs == ev.rank) c.dcs.push_back(d);
    } else {
      PARIS_CHECK_MSG(ev.rank < cfg.topo.num_dcs,
                      "membership event names a DC outside the topology");
      c.dcs.push_back(static_cast<DcId>(ev.rank));
    }
    changes.push_back(std::move(c));
  }
  std::stable_sort(changes.begin(), changes.end(),
                   [](const cluster::ViewChange& a, const cluster::ViewChange& b) {
                     return a.at_us < b.at_us;
                   });
  return std::make_unique<cluster::Membership>(topo, std::move(members), std::move(changes));
}

sim::LatencyModel build_latency(const DeploymentConfig& cfg) {
  auto m = cfg.aws_latency
               ? sim::LatencyModel::aws(cfg.topo.num_dcs)
               : sim::LatencyModel::uniform(cfg.topo.num_dcs, cfg.uniform_inter_dc_us,
                                            cfg.uniform_intra_dc_us);
  m.set_jitter(cfg.jitter);
  return m;
}

std::unique_ptr<runtime::Backend> build_backend(const DeploymentConfig& cfg,
                                                const cluster::Topology& topo) {
  if (cfg.runtime == runtime::Kind::kThreads) {
    runtime::ThreadBackend::Options opt;
    opt.workers = cfg.worker_threads != 0 ? cfg.worker_threads : topo.total_servers();
    opt.seed = cfg.seed;
    return std::make_unique<runtime::ThreadBackend>(opt);
  }
  if (cfg.runtime == runtime::Kind::kSockets) {
    PARIS_CHECK_MSG(cfg.socket.rank >= 0,
                    "socket deployments are built inside child processes only "
                    "(run_experiment spawns them)");
    runtime::SocketBackend::Options opt;
    opt.rank = static_cast<std::uint32_t>(cfg.socket.rank);
    opt.nprocs = cfg.socket.resolve_processes(cfg.topo.num_dcs);
    opt.hosts = cfg.socket.hosts;
    opt.seed = cfg.seed;
    opt.connect_timeout_ms = cfg.socket.connect_timeout_ms;
    opt.mesh_token = cfg.socket.mesh_token;
    opt.epoch = cfg.socket.epoch;
    opt.outbound_budget = cfg.socket.outbound_budget;
    if (cfg.worker_threads != 0) {
      opt.workers = cfg.worker_threads;
    } else {
      // One worker per LOCAL server node (dc % nprocs == rank owns the DC).
      std::uint32_t local_servers = 0;
      for (DcId dc = 0; dc < topo.num_dcs(); ++dc) {
        if (dc % opt.nprocs == opt.rank) {
          local_servers += static_cast<std::uint32_t>(topo.partitions_at(dc).size());
        }
      }
      opt.workers = local_servers != 0 ? local_servers : 1;
    }
    return std::make_unique<runtime::SocketBackend>(opt);
  }
  return std::make_unique<runtime::SimBackend>(cfg.seed, build_latency(cfg), cfg.codec);
}

std::unique_ptr<runtime::LatencyTransport> build_latency_tp(const DeploymentConfig& cfg,
                                                            runtime::Backend& be) {
  // The sim network models latency itself; decorating it would double-count.
  if (cfg.runtime == runtime::Kind::kSim ||
      cfg.latency_model == runtime::LatencyModelKind::kNone) {
    return nullptr;
  }
  auto model = build_latency(cfg);
  if (cfg.latency_model == runtime::LatencyModelKind::kMatrix) model.set_jitter(0);
  return std::make_unique<runtime::LatencyTransport>(be.transport(), be.exec(),
                                                     std::move(model), cfg.seed);
}

std::unique_ptr<runtime::WanTransport> build_wan_tp(const DeploymentConfig& cfg,
                                                    runtime::Backend& be,
                                                    runtime::Transport* below) {
  if (cfg.runtime == runtime::Kind::kSim || !cfg.wan.enabled()) return nullptr;
  runtime::WanConfig wan = cfg.wan;
  if (wan.seed == 0) wan.seed = cfg.seed;
  return std::make_unique<runtime::WanTransport>(
      below != nullptr ? *below : be.transport(), be.exec(), std::move(wan));
}

std::unique_ptr<runtime::PartitionTransport> build_partition_tp(const DeploymentConfig& cfg,
                                                                runtime::Backend& be,
                                                                runtime::Transport* below) {
  if (cfg.runtime == runtime::Kind::kSim || !cfg.partitions.enabled()) return nullptr;
  return std::make_unique<runtime::PartitionTransport>(
      below != nullptr ? *below : be.transport(), be.exec(), cfg.partitions);
}

std::unique_ptr<runtime::ChaosTransport> build_chaos_tp(const DeploymentConfig& cfg,
                                                        runtime::Backend& be,
                                                        runtime::Transport* below) {
  if (cfg.runtime == runtime::Kind::kSim || !cfg.chaos.enabled()) return nullptr;
  runtime::ChaosConfig chaos = cfg.chaos;
  if (chaos.seed == 0) chaos.seed = cfg.seed;
  return std::make_unique<runtime::ChaosTransport>(
      below != nullptr ? *below : be.transport(), be.exec(), chaos);
}

std::unique_ptr<runtime::FuzzTransport> build_fuzz_tp(const DeploymentConfig& cfg,
                                                      runtime::Backend& be,
                                                      runtime::Transport* below) {
  if (cfg.runtime == runtime::Kind::kSim || !cfg.fuzz.enabled()) return nullptr;
  runtime::FuzzConfig fuzz = cfg.fuzz;
  if (fuzz.seed == 0) fuzz.seed = cfg.seed;
  return std::make_unique<runtime::FuzzTransport>(
      below != nullptr ? *below : be.transport(), be.exec(), fuzz);
}

std::unique_ptr<runtime::ReliableTransport> build_reliable_tp(const DeploymentConfig& cfg,
                                                              runtime::Backend& be,
                                                              runtime::Transport* below) {
  if (cfg.runtime == runtime::Kind::kSim || !cfg.reliable) return nullptr;
  runtime::ReliableConfig rc = cfg.reliable_cfg;
  // Frames are stamped with the receiver's incarnation so post-respawn
  // retransmissions of the dead channel can never mingle with the
  // renumbered stream (threads/sim stay at epoch 0 throughout).
  if (auto* sb = dynamic_cast<runtime::SocketBackend*>(&be)) rc.self_epoch = sb->epoch();
  return std::make_unique<runtime::ReliableTransport>(
      below != nullptr ? *below : be.transport(), be.exec(), rc);
}

runtime::Transport* first_nonnull(std::initializer_list<runtime::Transport*> ts) {
  for (runtime::Transport* t : ts)
    if (t != nullptr) return t;
  return nullptr;
}

runtime::Transport& outermost(runtime::Backend& be, runtime::Transport* candidate) {
  return candidate != nullptr ? *candidate : be.transport();
}
}  // namespace

Deployment::Deployment(const DeploymentConfig& cfg, Tracer* tracer)
    : cfg_(cfg),
      topo_(cfg.topo),
      dir_(topo_),
      membership_(build_membership(cfg, topo_)),
      backend_(build_backend(cfg, topo_)),
      latency_tp_(build_latency_tp(cfg, *backend_)),
      wan_tp_(build_wan_tp(cfg, *backend_, latency_tp_.get())),
      partition_tp_(build_partition_tp(
          cfg, *backend_, first_nonnull({wan_tp_.get(), latency_tp_.get()}))),
      chaos_tp_(build_chaos_tp(
          cfg, *backend_,
          first_nonnull({partition_tp_.get(), wan_tp_.get(), latency_tp_.get()}))),
      fuzz_tp_(build_fuzz_tp(
          cfg, *backend_,
          first_nonnull(
              {chaos_tp_.get(), partition_tp_.get(), wan_tp_.get(), latency_tp_.get()}))),
      reliable_tp_(build_reliable_tp(
          cfg, *backend_,
          first_nonnull({fuzz_tp_.get(), chaos_tp_.get(), partition_tp_.get(),
                         wan_tp_.get(), latency_tp_.get()}))),
      rt_{backend_->exec(),
          outermost(*backend_,
                    first_nonnull({reliable_tp_.get(), fuzz_tp_.get(), chaos_tp_.get(),
                                   partition_tp_.get(), wan_tp_.get(), latency_tp_.get()})),
          topo_,
          dir_,
          cfg.cost,
          cfg.protocol,
          tracer,
          membership_.get()} {
  // One server per (DC, partition) replica; registration order is
  // deterministic: DC-major, partition-minor.
  const auto service = [cost = rt_.cost](const wire::Message& m) {
    return cost.service_us(m);
  };
  for (DcId dc = 0; dc < topo_.num_dcs(); ++dc) {
    for (PartitionId p : topo_.partitions_at(dc)) {
      std::unique_ptr<ServerBase> server;
      if (cfg.system == System::kParis) {
        server = std::make_unique<ParisServer>(rt_, dc, p);
      } else {
        server = std::make_unique<BprServer>(rt_, dc, p);
      }
      const NodeId node = register_actor(server.get(), dc, service);
      server->attach(node, PhysClock::sample(backend_->rng(), cfg.protocol.ntp_error_us,
                                             cfg.protocol.drift_ppm));
      dir_.set_server(dc, p, node);
      servers_.push_back(std::move(server));
    }
  }
}

Deployment::~Deployment() {
  // Thread workers must be quiescent before servers/clients are destroyed.
  backend_->stop();
}

NodeId Deployment::register_actor(runtime::Actor* real, DcId dc, runtime::ServiceFn service,
                                  NodeId colocate_with) {
  // With reliable delivery on, the backend delivers to the interposing
  // endpoint (dedup + ack) instead of the protocol actor directly.
  runtime::Actor* actor = reliable_tp_ ? reliable_tp_->wrap(real) : real;
  const NodeId node = backend_->add_node(actor, dc, std::move(service), colocate_with);
  if (reliable_tp_) reliable_tp_->attach(actor, node);
  return node;
}

void Deployment::start() {
  PARIS_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  runtime::SocketBackend* sb = socket_backend();
  if (sb != nullptr) {
    for (auto& s : servers_)
      if (backend_->local(s->node())) s->set_incarnation(sb->epoch());
    wire_epoch_fencing(*sb);  // before the mesh comes up: no fired-early race
    if (sb->epoch() > 0) {
      PARIS_CHECK_MSG(membership_ == nullptr,
                      "elastic membership combined with a supervised respawn is not "
                      "supported (the scenario generator keeps them exclusive)");
      arm_socket_recovery(*sb);
      return;  // local timers start per-server as each recovery completes
    }
  }
  Rng& phase_rng = backend_->rng();
  if (membership_ != nullptr) {
    arm_membership(phase_rng);
    return;  // joining DCs' timers start from their join-done callbacks
  }
  for (auto& s : servers_) s->start_timers(phase_rng);
}

void Deployment::arm_membership(Rng& phase_rng) {
  cluster::Membership& mem = *membership_;
  runtime::SocketBackend* sb = socket_backend();

  // Servers of later-joining DCs park from t = 0: everything that arrives
  // before their join (replicate/heartbeat tails routed by a peer that
  // installed the view first, early client reads) is buffered and replayed
  // after the state transfer, so nothing is double-counted into the version
  // vector. Everyone else starts normally.
  for (auto& sp : servers_) {
    ServerBase* s = sp.get();
    if (!backend_->local(s->node())) {
      s->start_timers(phase_rng);  // remote: timers are dropped anyway
      continue;
    }
    if (mem.initially_active(s->dc())) {
      s->start_timers(phase_rng);
    } else {
      s->park_for_join();
    }
  }

  // Beacon-driven installs (sockets): a peer advertising view V pulls us to
  // V within one beacon period even if our own schedule timer is late; the
  // echo advertisement confirms the install to the joiner's catch-up gate.
  if (sb != nullptr) {
    sb->set_view_listener([this, sb](std::uint32_t /*rank*/, std::uint32_t view) {
      install_view_local(view);
      sb->advertise_view(view);
    });
  }

  // One one-shot task per scheduled change, hosted on the first local
  // server's context. Every rank runs the same schedule, so views converge
  // even without beacons; beacons just tighten the window. The tasks capture
  // `this`: the deployment stops its backend before it is destroyed, and a
  // task still pending at stop() never runs.
  memb_timer_node_ = kInvalidNode;
  for (auto& sp : servers_)
    if (backend_->local(sp->node())) {
      memb_timer_node_ = sp->node();
      break;
    }
  PARIS_CHECK_MSG(memb_timer_node_ != kInvalidNode,
                  "membership schedule with no local servers");

  for (std::uint32_t i = 0; i < mem.changes().size(); ++i) {
    const cluster::ViewChange& c = mem.changes()[i];
    const std::uint32_t view_id = i + 1;
    std::vector<DcId> local_joins;
    if (c.join)
      for (DcId d : c.dcs)
        if (hosts_dc(d)) local_joins.push_back(d);
    exec().defer_at(memb_timer_node_, exec().now_us() + std::max<std::uint64_t>(c.at_us, 1),
                    [this, view_id, local_joins] {
                      install_view_local(view_id);
                      if (runtime::SocketBackend* b = socket_backend()) b->advertise_view(view_id);
                      for (DcId d : local_joins) begin_join(d, view_id);
                    });
  }
}

bool Deployment::hosts_dc(DcId d) const {
  if (cfg_.runtime != runtime::Kind::kSockets) return true;
  const std::uint32_t nprocs = cfg_.socket.resolve_processes(cfg_.topo.num_dcs);
  return d % nprocs == static_cast<std::uint32_t>(cfg_.socket.rank);
}

void Deployment::install_view_local(std::uint32_t view_id) {
  if (membership_ != nullptr) membership_->install(view_id);
}

void Deployment::begin_join(DcId dc, std::uint32_t view_id) {
  runtime::SocketBackend* sb = socket_backend();
  // Donors come from the replicas active in the PREVIOUS view (the joiner is
  // excluded by construction; view validation guarantees at least one).
  const cluster::MembershipView& prev = membership_->view_at(view_id - 1);
  for (auto& sp : servers_) {
    ServerBase* s = sp.get();
    if (s->dc() != dc || !backend_->local(s->node())) continue;
    std::vector<NodeId> remotes;
    for (DcId d : prev.replica_sets[s->partition()])
      remotes.push_back(dir_.server(d, s->partition()));
    PARIS_CHECK_MSG(!remotes.empty(), "join with no active donor replica");
    // Rotate the donor pick so parallel joins spread across replicas.
    const std::size_t pick = (s->dc() + s->partition()) % remotes.size();
    std::rotate(remotes.begin(), remotes.begin() + static_cast<std::ptrdiff_t>(pick),
                remotes.end());
    const NodeId donor = remotes.front();
    std::vector<NodeId> peers(remotes.begin() + 1, remotes.end());
    const NodeId self = s->node();
    if (sb != nullptr) {
      auto gate = std::make_shared<JoinGate>();
      s->set_catchup_gate([this, self, gate](std::function<void()> resume) {
        std::lock_guard<std::mutex> lk(gate->mu);
        if (gate->open) {
          exec().post(self, std::move(resume));
          return;
        }
        gate->resume = std::move(resume);
      });
      // The poller lives on memb_timer_node_ — the actor whose worker is
      // running this very callback, the only context allowed to create
      // timers post-start. It reads peer-view atomics and posts the resume
      // cross-thread, both safe from here.
      const std::uint32_t nprocs = cfg_.socket.resolve_processes(cfg_.topo.num_dcs);
      gate_pollers_.push_back(exec().every(
          memb_timer_node_, kGatePollPeriodUs, kGatePollPeriodUs,
          [this, sb, nprocs, view_id, self, gate] {
            for (std::uint32_t r = 0; r < nprocs; ++r)
              if (r != sb->rank() && sb->peer_view(r) < view_id) return;
            std::function<void()> resume;
            {
              std::lock_guard<std::mutex> lk(gate->mu);
              if (gate->open) return;
              gate->open = true;
              resume = std::move(gate->resume);
            }
            if (resume) exec().post(self, std::move(resume));
          }));
    }
    // Timers start from the join-done callback on a worker thread; derive a
    // per-server phase rng (the shared backend rng is not safe there).
    const std::uint64_t tseed = splitmix64(cfg_.seed ^ 0x4a4f'494eull ^ s->node());  // "JOIN"
    recovering_.fetch_add(1, std::memory_order_acq_rel);
    exec().post(self, [this, s, donor, peers = std::move(peers), tseed] {
      s->start_recovery(donor, peers, [this, s, tseed] {
        Rng phase_rng(tseed);
        s->start_timers(phase_rng);
        recovering_.fetch_sub(1, std::memory_order_acq_rel);
      });
    });
  }
}

void Deployment::wire_epoch_fencing(runtime::SocketBackend& sb) {
  sb.set_epoch_listener([this, &sb](std::uint32_t peer_rank, std::uint32_t epoch) {
    // The rank's previous incarnation is dead: its reliable channel state,
    // prepared-2PC entries it coordinated, and any un-replicated tail died
    // with it. Collect the server nodes it owns, then heal every LOCAL
    // server on its own worker (the listener fires on an io/accept thread).
    std::vector<NodeId> affected;
    for (const auto& s : servers_)
      if (sb.owner_of(s->dc()) == peer_rank) affected.push_back(s->node());
    if (affected.empty()) return;
    for (const auto& sp : servers_) {
      ServerBase* s = sp.get();
      if (!backend_->local(s->node())) continue;
      const NodeId self = s->node();
      exec().post(self, [this, s, self, affected, epoch] {
        // Channel reset FIRST: the fresh incarnation has empty dedup state,
        // so anything sent afterwards (including the catch-up request
        // below) must ride a renumbered channel stamped with its epoch.
        if (reliable_tp_ != nullptr) reliable_tp_->reset_peer_channels(self, affected, epoch);
        s->fence_lost_coordinators(affected);
        // Anti-entropy: versions only this survivor ever applied flow to
        // the respawned replica via its catch-up fan-out; asking it back
        // heals versions the survivor missed (transitively, through the
        // respawn's donor + peers). The respawn buffers the request while
        // still recovering and serves it on finish.
        for (const auto& o : servers_) {
          if (o->partition() != s->partition() || o->node() == self) continue;
          if (std::find(affected.begin(), affected.end(), o->node()) != affected.end())
            s->request_catchup(o->node());
        }
      });
    }
  });
}

void Deployment::arm_socket_recovery(runtime::SocketBackend& sb) {
  for (auto& sp : servers_) {
    ServerBase* s = sp.get();
    if (!backend_->local(s->node())) {
      s->start_timers(backend_->rng());  // remote: timers are dropped anyway
      continue;
    }
    // Surviving replicas of this partition live in DCs owned by OTHER
    // ranks (every DC with our residue died with the old incarnation).
    std::vector<NodeId> remotes;
    for (DcId d : topo_.replicas(s->partition()))
      if (sb.owner_of(d) != sb.rank()) remotes.push_back(dir_.server(d, s->partition()));
    // Timers start from the recovery-done callback on a worker thread; the
    // shared backend rng is not safe there, so derive a per-server phase rng.
    const std::uint64_t tseed =
        splitmix64(cfg_.seed ^ 0x5245'434f'5645'52ull ^ s->node());  // "RECOVER"
    if (remotes.empty()) {
      Rng phase_rng(tseed);
      s->start_timers(phase_rng);  // no donor anywhere: rejoin cold
      continue;
    }
    // Rotate the donor pick so parallel recoveries spread across replicas.
    const std::size_t pick = (s->dc() + s->partition()) % remotes.size();
    std::rotate(remotes.begin(), remotes.begin() + static_cast<std::ptrdiff_t>(pick),
                remotes.end());
    const NodeId donor = remotes.front();
    std::vector<NodeId> peers(remotes.begin() + 1, remotes.end());
    recovering_.fetch_add(1, std::memory_order_acq_rel);
    exec().post(s->node(), [this, s, donor, peers = std::move(peers), tseed] {
      s->start_recovery(donor, peers, [this, s, tseed] {
        Rng phase_rng(tseed);
        s->start_timers(phase_rng);
        recovering_.fetch_sub(1, std::memory_order_acq_rel);
      });
    });
  }
}

bool Deployment::wait_recovered(std::uint64_t timeout_ms) {
  if (recovering_.load(std::memory_order_acquire) == 0) return true;
  runtime::SocketBackend* sb = socket_backend();
  PARIS_CHECK_MSG(sb != nullptr, "recovery armed without a socket backend");
  sb->start();  // idempotent: recovery needs the mesh + workers live
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (recovering_.load(std::memory_order_acquire) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Client& Deployment::add_client(DcId dc, PartitionId coordinator_partition) {
  PARIS_CHECK_MSG(topo_.dc_replicates(dc, coordinator_partition),
                  "client coordinator must be a local partition server");
  const NodeId coord = dir_.server(dc, coordinator_partition);
  const Client::Options opt =
      cfg_.system == System::kParis ? Client::paris_options() : Client::bpr_options();
  auto client = std::make_unique<Client>(rt_, dc, coord, opt);
  const NodeId node = register_actor(client.get(), dc, nullptr, /*colocate_with=*/coord);
  client->attach(node);
  clients_.push_back(std::move(client));
  return *clients_.back();
}

ServerBase& Deployment::server(DcId dc, PartitionId p) {
  const NodeId node = dir_.server(dc, p);
  for (auto& s : servers_)
    if (s->node() == node) return *s;
  PARIS_CHECK_MSG(false, "server not found");
  __builtin_unreachable();
}

ParisServer* Deployment::paris_server(DcId dc, PartitionId p) {
  return dynamic_cast<ParisServer*>(&server(dc, p));
}

BprServer* Deployment::bpr_server(DcId dc, PartitionId p) {
  return dynamic_cast<BprServer*>(&server(dc, p));
}

ServerBase::Stats Deployment::total_server_stats() const {
  // Accumulate in NodeId order: the sums commute, but a fixed order keeps
  // any future non-commutative aggregate (and debug prints) deterministic.
  std::vector<const ServerBase*> order;
  order.reserve(servers_.size());
  for (const auto& s : servers_) order.push_back(s.get());
  std::sort(order.begin(), order.end(),
            [](const ServerBase* a, const ServerBase* b) { return a->node() < b->node(); });

  ServerBase::Stats t;
  for (const ServerBase* s : order) {
    const auto& x = s->stats();
    t.txs_coordinated += x.txs_coordinated;
    t.read_only_txs += x.read_only_txs;
    t.slices_served += x.slices_served;
    t.cohort_prepares += x.cohort_prepares;
    t.applied_writes += x.applied_writes;
    t.replicate_batches_sent += x.replicate_batches_sent;
    t.heartbeats_sent += x.heartbeats_sent;
    t.gossip_msgs_sent += x.gossip_msgs_sent;
    t.reads_blocked += x.reads_blocked;
    t.blocked_time_us += x.blocked_time_us;
    t.snapshots_served += x.snapshots_served;
    t.catchups_served += x.catchups_served;
    t.recovery_buffered += x.recovery_buffered;
    t.orphan_commits += x.orphan_commits;
    t.orphan_prepare_resps += x.orphan_prepare_resps;
    t.prepared_fenced += x.prepared_fenced;
  }
  return t;
}

}  // namespace paris::proto
