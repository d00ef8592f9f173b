#pragma once
// Partition server common to PaRiS and BPR.
//
// A server owns exactly one partition replica (§II-C: one partition per
// server) and plays three roles, mirroring the paper's algorithms:
//
//  * transaction coordinator (Alg. 2): assigns snapshots, fans reads out to
//    cohort partitions (local or remote DC, chosen by Topology::target_dc),
//    and drives the 2PC commit;
//  * cohort (Alg. 3): serves read slices and proposes/receives commit
//    timestamps — the snapshot/visibility policy is the subclass hook where
//    PaRiS (non-blocking, UST) and BPR (blocking, fresh snapshots) differ;
//  * replica (Alg. 4): applies committed transactions in ct order every
//    ΔR, ships them to peer replicas, and emits heartbeats so the version
//    vector advances in the absence of updates.

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/min_tracker.h"
#include "common/phys_clock.h"
#include "proto/runtime.h"
#include "runtime/actor.h"
#include "storage/mv_store.h"

namespace paris::proto {

class ServerBase : public runtime::Actor {
 public:
  ServerBase(Runtime& rt, DcId dc, PartitionId partition);
  ~ServerBase() override = default;

  /// Called by the deployment after network registration.
  void attach(NodeId self, PhysClock clock);

  /// Starts ΔR apply/replicate and GC timers; subclasses add their own.
  /// `phase_rng` staggers timer phases so servers do not tick in lockstep.
  virtual void start_timers(Rng& phase_rng);

  void on_message(NodeId from, const wire::Message& m) final;

  // --- introspection ---
  DcId dc() const { return dc_; }
  PartitionId partition() const { return partition_; }
  NodeId node() const { return self_; }
  ReplicaIdx replica_idx() const { return replica_idx_; }
  /// min over the version vector: the snapshot fully installed locally
  /// ("local stable time" of this partition replica). Skips the slots of
  /// DCs that have never been active in any installed membership view.
  Timestamp min_vv() const;
  /// min_vv() that additionally skips the still-zero slot of a freshly
  /// joined DC (view installed, first heartbeat not yet landed). For
  /// serving-side sanity checks only — the join HLC floor makes it sound.
  Timestamp min_vv_installed() const;
  Timestamp vv_entry(ReplicaIdx r) const { return vv_[r]; }
  const store::MvStore& kvstore() const { return store_; }
  Timestamp hlc_value() const { return hlc_.value(); }
  std::uint64_t clock_us() const { return clock_.read_us(rt_.exec.now_us()); }
  /// The snapshot a transaction starting here (with no prior context) would
  /// observe: the UST for PaRiS, the locally installed snapshot for BPR.
  virtual Timestamp stable_snapshot() const = 0;

  struct Stats {
    std::uint64_t txs_coordinated = 0;      ///< update txs committed as coordinator
    std::uint64_t read_only_txs = 0;        ///< TxEnd-terminated txs
    std::uint64_t slices_served = 0;
    std::uint64_t cohort_prepares = 0;
    std::uint64_t applied_writes = 0;
    std::uint64_t replicate_batches_sent = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t gossip_msgs_sent = 0;
    std::uint64_t reads_blocked = 0;        ///< BPR only
    sim::SimTime blocked_time_us = 0;       ///< BPR only
    // --- crash recovery (DESIGN §11) ---
    std::uint64_t snapshots_served = 0;     ///< donor-side snapshot streams
    std::uint64_t catchups_served = 0;      ///< anti-entropy deltas answered
    std::uint64_t recovery_buffered = 0;    ///< messages held while recovering
    std::uint64_t orphan_commits = 0;       ///< Commit2pc with no prepared entry
    std::uint64_t orphan_prepare_resps = 0; ///< PrepareResp for unknown/settled tx
    std::uint64_t prepared_fenced = 0;      ///< prepared entries fenced (dead coordinator)
  };
  const Stats& stats() const { return stats_; }

  // --- crash recovery (DESIGN §11) ---

  /// Epoch-salts coordinator transaction sequence numbers so a respawned
  /// incarnation can never re-mint a TxId its predecessor already used
  /// (TxId = (node, seq); the node id survives the respawn). Leaves 2^24
  /// transactions per incarnation, far beyond any run. Call before serving.
  void set_incarnation(std::uint32_t epoch);

  /// Deployment hook, run on this server's worker: stream a full snapshot of
  /// the partition from `donor`, then catch-up deltas from `peers` (the
  /// remaining replicas), buffering all other traffic meanwhile; when both
  /// phases finish, replay the buffer and invoke `on_done` (which typically
  /// starts the timers this server deferred).
  void start_recovery(NodeId donor, std::vector<NodeId> peers, std::function<void()> on_done);
  bool recovering() const { return rec_ != nullptr; }

  /// Elastic join, phase 0 (DESIGN §11): a server of a DC scheduled to join
  /// later parks from deployment start — every protocol message is buffered
  /// exactly as in recovery, so when the join view installs and
  /// start_recovery() runs, nothing that arrived early (a replicate batch
  /// from an eager peer, a routed read) is lost or applied out of order.
  /// start_recovery() reuses the parked state in place.
  void park_for_join();

  /// Elastic join, catch-up gate: when set, the transition from snapshot
  /// phase to catch-up phase passes through `gate(resume)` instead of
  /// running inline. The deployment layer uses it on sockets to wait until
  /// every peer rank has advertised the join view — guaranteeing the
  /// catch-up watermarks returned by peers are post-cutover — and then
  /// calls resume() on this server's worker.
  void set_catchup_gate(std::function<void(std::function<void()>)> gate) {
    catchup_gate_ = std::move(gate);
  }

  /// Survivor-side epoch fence: `nodes` belong to a dead incarnation, so any
  /// 2PC decision they owed this cohort will never arrive. Drops their
  /// prepared entries — un-fencing the apply upper bound a dead coordinator
  /// would otherwise pin forever (which would freeze this replica's version
  /// clock and, transitively, the cluster-wide UST).
  void fence_lost_coordinators(const std::vector<NodeId>& nodes);

  /// Survivor-side anti-entropy: ask `peer` (a freshly reincarnated replica)
  /// for every version newer than our applied watermarks — recovers writes
  /// only the dead incarnation had applied and replicated nowhere.
  void request_catchup(NodeId peer);

 protected:
  // ----- policy points where PaRiS and BPR diverge -----

  /// Snapshot assigned to a starting transaction, given the client's last
  /// observed snapshot (Alg. 2 lines 1-5 / BPR §V).
  virtual Timestamp assign_snapshot(Timestamp client_seen) = 0;

  /// Serve or queue a read slice (Alg. 3 lines 1-8 / BPR blocking rule).
  virtual void handle_read_slice(NodeId from, const wire::ReadSliceReq& req) = 0;

  /// Proposed commit timestamp after the HLC was ticked past ht
  /// (Alg. 3 line 12).
  virtual Timestamp propose_ts(const wire::PrepareReq& req) = 0;

  /// Called whenever an entry of the version vector advanced (apply,
  /// replicate, heartbeat). BPR drains blocked reads here.
  virtual void on_vv_advanced() {}

  /// A snapshot from another server/client was observed (read slice or
  /// prepare); PaRiS fast-forwards its UST (Alg. 3 lines 2, 11).
  virtual void observe_remote_snapshot(Timestamp /*snap*/) {}

  /// Watermark below which storage GC may prune superseded versions.
  virtual Timestamp gc_watermark() const = 0;

  /// A transaction's writes were applied locally; PaRiS registers it for
  /// apply->visible tracking (visibility happens when the UST passes ct).
  virtual void note_applied(TxId tx, Timestamp ct);

  /// Protocol-specific state appended to / restored from the snapshot header
  /// (PaRiS: UST and GC watermark). Encode and decode must consume symmetric
  /// bytes; donor and requester always run the same protocol subclass.
  virtual void encode_recovery_extras(wire::Encoder& /*e*/) const {}
  virtual void decode_recovery_extras(wire::Decoder& /*d*/) {}

  // Stabilization-tree traffic; only PaRiS uses it.
  virtual void handle_gossip_up(NodeId /*from*/, const wire::GossipUp& /*m*/) {}
  virtual void handle_gossip_root(NodeId /*from*/, const wire::GossipRoot& /*m*/) {}
  virtual void handle_ust_down(NodeId /*from*/, const wire::UstDown& /*m*/) {}

  // ----- shared machinery -----

  /// Answers a read slice from local storage (snapshot-visible versions).
  void serve_slice(NodeId from, const wire::ReadSliceReq& req);

  /// Alg. 4 lines 5-22: apply committed txs with ct <= ub in ct order,
  /// replicate them to peer replicas, advance the local version clock,
  /// heartbeat if nothing shipped.
  void apply_tick();
  void gc_tick();

  void send(NodeId to, wire::MessagePtr m) { rt_.net.send(self_, to, std::move(m)); }
  /// Acquires a pooled outgoing message (returned to the pool on release).
  template <class T>
  wire::PooledPtr<T> make_msg() {
    return rt_.net.msg_pool(self_).make<T>();
  }
  /// Node serving partition p for requests originating in this server's DC.
  NodeId route_to_partition(PartitionId p) const;

  /// Minimum snapshot among transactions this server coordinates, or
  /// `fallback` when idle (GC aggregation, §IV-B).
  Timestamp oldest_active_snapshot(Timestamp fallback) const;

  Runtime& rt_;
  const DcId dc_;
  const PartitionId partition_;
  ReplicaIdx replica_idx_ = kInvalidReplica;
  NodeId self_ = kInvalidNode;
  PhysClock clock_;
  Hlc hlc_;
  store::MvStore store_;
  std::vector<Timestamp> vv_;  ///< R entries; vv_[replica_idx_] is the local version clock
  Stats stats_;

 private:
  // --- coordinator state (Alg. 2) ---
  struct ReadOp {
    std::uint32_t outstanding = 0;
    std::vector<wire::Item> items;
  };
  struct CommitOp {
    std::uint32_t outstanding = 0;
    Timestamp max_pt;
    std::vector<NodeId> cohort_nodes;
  };
  struct TxCtx {
    Timestamp snapshot;
    NodeId client = kInvalidNode;
    ReadOp read;
    CommitOp commit;
    bool committing = false;
    sim::SimTime created = 0;
  };

  void handle_start(NodeId from, const wire::ClientStartReq& m);
  void handle_client_read(NodeId from, const wire::ClientReadReq& m);
  void handle_slice_resp(NodeId from, const wire::ReadSliceResp& m);
  void handle_client_commit(NodeId from, const wire::ClientCommitReq& m);
  void handle_prepare(NodeId from, const wire::PrepareReq& m);
  void handle_prepare_resp(NodeId from, const wire::PrepareResp& m);
  void handle_commit2pc(NodeId from, const wire::Commit2pc& m);
  void handle_replicate(NodeId from, const wire::ReplicateBatch& m);
  void handle_heartbeat(NodeId from, const wire::Heartbeat& m);
  void handle_tx_end(NodeId from, const wire::TxEnd& m);

  void finish_tx(TxId tx);
  /// Reaps coordinator contexts abandoned by crashed clients (§III-C);
  /// without this an abandoned snapshot would pin the GC watermark forever.
  void reap_stale_contexts();

  std::unordered_map<TxId, TxCtx> tx_;
  MinTracker<Timestamp> active_snapshots_;  ///< min = oldest active snapshot
  std::uint32_t next_tx_seq_ = 1;
  std::uint32_t incarnation_ = 0;

  // Recently decided commit timestamps (bounded ring + index). After a
  // cohort respawn the channel reset retransmits unacked PrepareReqs, so the
  // new incarnation can prepare a transaction whose decision this
  // coordinator already broadcast; its duplicate PrepareResp is answered
  // from this ring with a fresh Commit2pc, clearing the stale prepared
  // entry that would otherwise fence the cohort's apply loop forever.
  static constexpr std::size_t kRecentCommitCap = 8192;
  std::deque<std::pair<TxId, Timestamp>> recent_commits_;
  std::unordered_map<TxId, Timestamp> recent_commit_ct_;
  void remember_commit(TxId tx, Timestamp ct);

  // Reusable fan-out scratch for handle_client_read / handle_client_commit:
  // by-node grouping without a per-call map. fan_nodes_ holds the distinct
  // serving nodes of the current request (first-appearance order, which is
  // deterministic in the request's key order); fan_keys_/fan_writes_ are
  // parallel groups whose capacity persists across calls.
  std::vector<NodeId> fan_nodes_;
  std::vector<std::vector<Key>> fan_keys_;
  std::vector<std::vector<wire::WriteKV>> fan_writes_;
  std::size_t fan_group(NodeId node);

  // --- cohort state (Alg. 3 / Alg. 4) ---
  struct PrepEntry {
    Timestamp pt;
    std::vector<wire::WriteKV> writes;
  };
  std::unordered_map<TxId, PrepEntry> prepared_;
  MinTracker<Timestamp> prepared_pts_;  ///< min = apply upper-bound fence
  std::map<std::pair<Timestamp, TxId>, std::vector<wire::WriteKV>> committed_;

  runtime::TimerHandle apply_timer_;
  runtime::TimerHandle gc_timer_;
  runtime::TimerHandle ctx_reaper_timer_;

  // --- crash recovery (DESIGN §11) ---
  struct RecoveryState {
    NodeId donor = kInvalidNode;
    std::vector<NodeId> peers;          ///< catch-up targets after the snapshot
    std::uint32_t next_chunk = 0;       ///< expected SnapshotChunk seq
    std::size_t catchup_pending = 0;    ///< last-chunks still owed by peers
    std::vector<std::uint8_t> snap_buf; ///< reassembled snapshot blob
    /// Traffic held while recovering, replayed on finish: the reliable layer
    /// already delivered these exactly-once, so dropping them would lose
    /// protocol messages for good.
    std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> held;
    std::function<void()> on_done;
    /// park_for_join(): buffering started before any transfer was armed.
    bool parked = false;
    /// Elastic join: on finish, tick the HLC past max(vv_) so every commit
    /// this server coordinates post-join exceeds any snapshot that
    /// stabilized while it was out (DESIGN §11, "Join").
    bool join_floor = false;
  };
  std::unique_ptr<RecoveryState> rec_;
  std::function<void(std::function<void()>)> catchup_gate_;

  void handle_snapshot_request(NodeId from, const wire::SnapshotRequest& m);
  void handle_snapshot_chunk(NodeId from, const wire::SnapshotChunk& m);
  void handle_catchup_request(NodeId from, const wire::CatchUpRequest& m);
  void handle_catchup_chunk(NodeId from, const wire::CatchUpChunk& m);
  void finish_recovery();
  /// Decodes and installs a length-prefixed version-record list via the
  /// idempotent store apply (original source DC preserved, no replication
  /// side effects — these versions were already replicated by their origin).
  void install_records(wire::Decoder& d);
  static void encode_version_record(wire::Encoder& e, Key k, const store::Version& ver);
};

}  // namespace paris::proto
