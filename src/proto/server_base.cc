#include "proto/server_base.h"

#include <algorithm>

#include "common/assert.h"

namespace paris::proto {

using namespace wire;

// ---------------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------------

sim::SimTime CostModel::service_us(const Message& m) const {
  switch (m.type()) {
    case MsgType::kClientStartReq:
      return start_us;
    case MsgType::kClientReadReq: {
      const auto& r = static_cast<const ClientReadReq&>(m);
      return client_read_base_us + client_read_per_key_us * r.keys.size();
    }
    case MsgType::kReadSliceReq: {
      const auto& r = static_cast<const ReadSliceReq&>(m);
      return read_slice_base_us + read_slice_per_key_us * r.keys.size();
    }
    case MsgType::kReadSliceResp: {
      const auto& r = static_cast<const ReadSliceResp&>(m);
      return slice_resp_per_item_us * r.items.size();
    }
    case MsgType::kClientCommitReq: {
      const auto& r = static_cast<const ClientCommitReq&>(m);
      return client_commit_base_us + client_commit_per_key_us * r.writes.size();
    }
    case MsgType::kPrepareReq: {
      const auto& r = static_cast<const PrepareReq&>(m);
      return prepare_base_us + prepare_per_key_us * r.writes.size();
    }
    case MsgType::kPrepareResp:
      return prepare_resp_us;
    case MsgType::kCommit2pc:
      return commit2pc_us;
    case MsgType::kReplicateBatch: {
      const auto& r = static_cast<const ReplicateBatch&>(m);
      sim::SimTime t = replicate_base_us;
      for (const auto& g : r.groups) {
        t += replicate_per_tx_us * g.txs.size();
        for (const auto& tx : g.txs) t += replicate_per_write_us * tx.writes.size();
      }
      return t;
    }
    case MsgType::kHeartbeat:
      return heartbeat_us;
    case MsgType::kGossipUp:
    case MsgType::kGossipRoot:
    case MsgType::kUstDown:
      return gossip_us;
    case MsgType::kTxEnd:
      return tx_end_us;
    // Client-bound replies cost nothing at a server.
    case MsgType::kClientStartResp:
    case MsgType::kClientReadResp:
    case MsgType::kClientCommitResp:
      return 0;
    // Transport-layer framing (threads-only reliable delivery) never reaches
    // the sim cost model.
    case MsgType::kReliableFrame:
    case MsgType::kReliableAck:
      return 0;
    // Recovery state transfer only runs under the socket runtime, outside
    // the simulated cost model.
    case MsgType::kSnapshotRequest:
    case MsgType::kSnapshotChunk:
    case MsgType::kCatchUpRequest:
    case MsgType::kCatchUpChunk:
      return 0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Construction / registration.
// ---------------------------------------------------------------------------

ServerBase::ServerBase(Runtime& rt, DcId dc, PartitionId partition)
    : rt_(rt), dc_(dc), partition_(partition) {
  replica_idx_ = rt_.topo.replica_idx(dc, partition);
  PARIS_CHECK_MSG(replica_idx_ != kInvalidReplica, "server placed at a DC not replicating it");
  vv_.assign(rt_.topo.replication(), kTsZero);
}

void ServerBase::attach(NodeId self, PhysClock clock) {
  self_ = self;
  clock_ = clock;
}

void ServerBase::start_timers(Rng& phase_rng) {
  PARIS_CHECK_MSG(self_ != kInvalidNode, "attach() must precede start_timers()");
  const auto& cfg = rt_.cfg;
  apply_timer_ = rt_.exec.every(self_, cfg.delta_r_us, phase_rng.next_below(cfg.delta_r_us),
                                [this] { apply_tick(); });
  gc_timer_ = rt_.exec.every(self_, cfg.gc_interval_us, phase_rng.next_below(cfg.gc_interval_us),
                             [this] { gc_tick(); });
  ctx_reaper_timer_ = rt_.exec.every(self_, cfg.tx_context_timeout_us / 2,
                                     phase_rng.next_below(cfg.tx_context_timeout_us / 2),
                                     [this] { reap_stale_contexts(); });
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void ServerBase::on_message(NodeId from, const Message& m) {
  if (rec_ != nullptr) {
    switch (m.type()) {
      case MsgType::kSnapshotChunk:
      case MsgType::kCatchUpChunk:
        break;  // recovery traffic flows through
      default: {
        // Everything else is held (re-encoded) and replayed after recovery:
        // the reliable endpoint already delivered it exactly-once, so a drop
        // here would lose a protocol message for good. That includes peer
        // Snapshot/CatchUp REQUESTS — a recovering replica serves them once
        // its own state is whole.
        auto& slot = rec_->held.emplace_back(from, std::vector<std::uint8_t>{});
        encode_message(m, slot.second);
        ++stats_.recovery_buffered;
        return;
      }
    }
  }
  switch (m.type()) {
    case MsgType::kClientStartReq:
      return handle_start(from, static_cast<const ClientStartReq&>(m));
    case MsgType::kClientReadReq:
      return handle_client_read(from, static_cast<const ClientReadReq&>(m));
    case MsgType::kReadSliceReq:
      return handle_read_slice(from, static_cast<const ReadSliceReq&>(m));
    case MsgType::kReadSliceResp:
      return handle_slice_resp(from, static_cast<const ReadSliceResp&>(m));
    case MsgType::kClientCommitReq:
      return handle_client_commit(from, static_cast<const ClientCommitReq&>(m));
    case MsgType::kPrepareReq:
      return handle_prepare(from, static_cast<const PrepareReq&>(m));
    case MsgType::kPrepareResp:
      return handle_prepare_resp(from, static_cast<const PrepareResp&>(m));
    case MsgType::kCommit2pc:
      return handle_commit2pc(from, static_cast<const Commit2pc&>(m));
    case MsgType::kReplicateBatch:
      return handle_replicate(from, static_cast<const ReplicateBatch&>(m));
    case MsgType::kHeartbeat:
      return handle_heartbeat(from, static_cast<const Heartbeat&>(m));
    case MsgType::kTxEnd:
      return handle_tx_end(from, static_cast<const TxEnd&>(m));
    case MsgType::kGossipUp:
      return handle_gossip_up(from, static_cast<const GossipUp&>(m));
    case MsgType::kGossipRoot:
      return handle_gossip_root(from, static_cast<const GossipRoot&>(m));
    case MsgType::kUstDown:
      return handle_ust_down(from, static_cast<const UstDown&>(m));
    case MsgType::kSnapshotRequest:
      return handle_snapshot_request(from, static_cast<const SnapshotRequest&>(m));
    case MsgType::kSnapshotChunk:
      return handle_snapshot_chunk(from, static_cast<const SnapshotChunk&>(m));
    case MsgType::kCatchUpRequest:
      return handle_catchup_request(from, static_cast<const CatchUpRequest&>(m));
    case MsgType::kCatchUpChunk:
      return handle_catchup_chunk(from, static_cast<const CatchUpChunk&>(m));
    case MsgType::kClientStartResp:
    case MsgType::kClientReadResp:
    case MsgType::kClientCommitResp:
      PARIS_CHECK_MSG(false, "client-bound message delivered to a server");
    case MsgType::kReliableFrame:
    case MsgType::kReliableAck:
      PARIS_CHECK_MSG(false, "transport framing leaked past the reliable endpoint");
  }
}

// ---------------------------------------------------------------------------
// Coordinator role (Alg. 2).
// ---------------------------------------------------------------------------

void ServerBase::handle_start(NodeId from, const ClientStartReq& m) {
  const TxId tx = TxId::make(self_, next_tx_seq_++);
  const Timestamp snapshot = assign_snapshot(m.ust_c);
  tx_.emplace(tx, TxCtx{snapshot, from, {}, {}, false, rt_.exec.now_us()});
  active_snapshots_.insert(snapshot);

  auto resp = make_msg<ClientStartResp>();
  resp->tx = tx;
  resp->snapshot = snapshot;
  send(from, std::move(resp));
}

NodeId ServerBase::route_to_partition(PartitionId p) const {
  return rt_.dir.server(rt_.route_dc(dc_, p), p);
}

void ServerBase::handle_client_read(NodeId /*from*/, const ClientReadReq& m) {
  auto it = tx_.find(m.tx);
  PARIS_CHECK_MSG(it != tx_.end(), "read for unknown transaction");
  TxCtx& ctx = it->second;
  PARIS_CHECK_MSG(ctx.read.outstanding == 0, "client issued overlapping reads");
  PARIS_CHECK(!m.keys.empty());

  // Group keys by serving node (local replica if present, else the DC's
  // preferred remote replica; Alg. 2 lines 9-12) in the reusable scratch.
  fan_nodes_.clear();
  for (Key k : m.keys)
    fan_keys_[fan_group(route_to_partition(rt_.topo.partition_of(k)))].push_back(k);

  ctx.read.outstanding = static_cast<std::uint32_t>(fan_nodes_.size());
  ctx.read.items.clear();
  for (std::size_t i = 0; i < fan_nodes_.size(); ++i) {
    auto req = make_msg<ReadSliceReq>();
    req->tx = m.tx;
    req->snapshot = ctx.snapshot;
    req->mode = m.mode;
    req->keys.assign(fan_keys_[i].begin(), fan_keys_[i].end());
    send(fan_nodes_[i], std::move(req));
  }
}

/// Index of `node` in the current fan-out, adding (and clearing) its group
/// lazily. Linear scan: a transaction touches a handful of partitions.
std::size_t ServerBase::fan_group(NodeId node) {
  for (std::size_t i = 0; i < fan_nodes_.size(); ++i)
    if (fan_nodes_[i] == node) return i;
  fan_nodes_.push_back(node);
  const std::size_t gi = fan_nodes_.size() - 1;
  if (fan_keys_.size() <= gi) fan_keys_.emplace_back();
  if (fan_writes_.size() <= gi) fan_writes_.emplace_back();
  fan_keys_[gi].clear();
  fan_writes_[gi].clear();
  return gi;
}

void ServerBase::handle_slice_resp(NodeId /*from*/, const ReadSliceResp& m) {
  auto it = tx_.find(m.tx);
  if (it == tx_.end()) return;  // transaction already ended
  TxCtx& ctx = it->second;
  PARIS_DCHECK(ctx.read.outstanding > 0);
  ctx.read.items.insert(ctx.read.items.end(), m.items.begin(), m.items.end());
  if (--ctx.read.outstanding > 0) return;

  auto resp = make_msg<ClientReadResp>();
  resp->tx = m.tx;
  // Copy, don't move: a move-assign would free the pooled vector's warmed
  // buffer and defeat the pool's capacity reuse.
  resp->items.assign(ctx.read.items.begin(), ctx.read.items.end());
  ctx.read.items.clear();
  send(ctx.client, std::move(resp));
}

void ServerBase::handle_client_commit(NodeId /*from*/, const ClientCommitReq& m) {
  auto it = tx_.find(m.tx);
  PARIS_CHECK_MSG(it != tx_.end(), "commit for unknown transaction");
  TxCtx& ctx = it->second;
  PARIS_CHECK_MSG(!ctx.committing, "double commit");
  PARIS_CHECK_MSG(!m.writes.empty(), "empty commit should use TxEnd");
  ctx.committing = true;
  if (rt_.tracer) rt_.tracer->on_commit_writes(m.tx, dc_, m.writes);

  const Timestamp ht = std::max(ctx.snapshot, m.hwt);  // Alg. 2 line 19

  fan_nodes_.clear();
  for (const auto& w : m.writes)
    fan_writes_[fan_group(route_to_partition(rt_.topo.partition_of(w.k)))].push_back(w);

  ctx.commit.outstanding = static_cast<std::uint32_t>(fan_nodes_.size());
  ctx.commit.max_pt = kTsZero;
  ctx.commit.cohort_nodes.clear();
  for (std::size_t i = 0; i < fan_nodes_.size(); ++i) {
    ctx.commit.cohort_nodes.push_back(fan_nodes_[i]);
    auto req = make_msg<PrepareReq>();
    req->tx = m.tx;
    req->partition = partition_;  // coordinator partition, informational
    req->snapshot = ctx.snapshot;
    req->ht = ht;
    req->writes.assign(fan_writes_[i].begin(), fan_writes_[i].end());
    send(fan_nodes_[i], std::move(req));
  }
}

void ServerBase::handle_prepare_resp(NodeId from, const PrepareResp& m) {
  auto it = tx_.find(m.tx);
  if (it == tx_.end() || it->second.commit.outstanding == 0) {
    // Duplicate vote for an already-decided transaction. After a cohort
    // respawn the channel reset retransmits unacked PrepareReqs, so the new
    // incarnation may prepare a transaction whose commit we already
    // broadcast pre-reset; left alone, its prepared entry would fence its
    // apply loop forever. Re-send the decision if the ring still has it.
    ++stats_.orphan_prepare_resps;
    if (auto ct = recent_commit_ct_.find(m.tx); ct != recent_commit_ct_.end()) {
      auto cm = make_msg<Commit2pc>();
      cm->tx = m.tx;
      cm->ct = ct->second;
      send(from, std::move(cm));
    }
    return;
  }
  TxCtx& ctx = it->second;
  ctx.commit.max_pt = std::max(ctx.commit.max_pt, m.pt);
  if (--ctx.commit.outstanding > 0) return;

  // Alg. 2 lines 26-29: ct = max proposed; fan out, reply to client, clear.
  const Timestamp ct = ctx.commit.max_pt;
  for (NodeId cohort : ctx.commit.cohort_nodes) {
    auto cm = make_msg<Commit2pc>();
    cm->tx = m.tx;
    cm->ct = ct;
    send(cohort, std::move(cm));
  }
  remember_commit(m.tx, ct);
  if (rt_.tracer) rt_.tracer->on_commit_decided(m.tx, ct, dc_, rt_.exec.now_us());

  auto resp = make_msg<ClientCommitResp>();
  resp->tx = m.tx;
  resp->ct = ct;
  send(ctx.client, std::move(resp));
  stats_.txs_coordinated++;
  finish_tx(m.tx);
}

void ServerBase::handle_tx_end(NodeId /*from*/, const TxEnd& m) {
  stats_.read_only_txs++;
  finish_tx(m.tx);
}

void ServerBase::finish_tx(TxId tx) {
  auto it = tx_.find(tx);
  if (it == tx_.end()) return;
  active_snapshots_.erase(it->second.snapshot);
  tx_.erase(it);
}

void ServerBase::reap_stale_contexts() {
  const sim::SimTime now = rt_.exec.now_us();
  const sim::SimTime timeout = rt_.cfg.tx_context_timeout_us;
  for (auto it = tx_.begin(); it != tx_.end();) {
    // Never reap a transaction whose 2PC is in flight — cohorts hold
    // prepared state keyed to it.
    if (!it->second.committing && it->second.created + timeout <= now) {
      active_snapshots_.erase(it->second.snapshot);
      it = tx_.erase(it);
    } else {
      ++it;
    }
  }
}

Timestamp ServerBase::oldest_active_snapshot(Timestamp fallback) const {
  return active_snapshots_.empty() ? fallback : active_snapshots_.min();
}

// ---------------------------------------------------------------------------
// Cohort role (Alg. 3).
// ---------------------------------------------------------------------------

void ServerBase::serve_slice(NodeId from, const ReadSliceReq& req) {
  const auto mode = static_cast<ReadMode>(req.mode);
  auto resp = make_msg<ReadSliceResp>();
  resp->tx = req.tx;
  resp->items.reserve(req.keys.size());
  for (Key k : req.keys) {
    Item item;
    item.k = k;
    if (mode == ReadMode::kCounter) {
      // Convergent counter (§II-B): merge visible deltas by summation. The
      // sum travels as a binary int64 (item.num); the client materializes
      // the string form at the API surface.
      const auto [sum, newest] = store_.read_counter(k, req.snapshot);
      if (newest != nullptr) {
        item.num = sum;
        item.ut = newest->ut;
        item.tx = newest->tx;
        item.sr = newest->sr;
      }
    } else {
      const store::Version* ver = store_.read(k, req.snapshot);
      if (ver != nullptr) {
        item.v = ver->v;  // register payload; .num stays 0 (counter-only field)
        item.ut = ver->ut;
        item.tx = ver->tx;
        item.sr = ver->sr;
      }  // else: key has no version within the snapshot -> zero item
    }
    resp->items.push_back(std::move(item));
  }
  stats_.slices_served++;
  if (rt_.tracer)
    rt_.tracer->on_slice_served(dc_, partition_, req.tx, req.snapshot, req.mode,
                                resp->items, rt_.exec.now_us());
  send(from, std::move(resp));
}

void ServerBase::handle_prepare(NodeId from, const PrepareReq& m) {
  hlc_.tick_past(clock_us(), m.ht);  // Alg. 3 line 10
  observe_remote_snapshot(m.snapshot);
  const Timestamp pt = propose_ts(m);  // Alg. 3 line 12
  prepared_.emplace(m.tx, PrepEntry{pt, m.writes});
  prepared_pts_.insert(pt);
  stats_.cohort_prepares++;

  auto resp = make_msg<PrepareResp>();
  resp->tx = m.tx;
  resp->partition = partition_;
  resp->pt = pt;
  send(from, std::move(resp));
}

void ServerBase::handle_commit2pc(NodeId /*from*/, const Commit2pc& m) {
  hlc_.observe(clock_us(), m.ct);  // Alg. 3 line 16
  auto it = prepared_.find(m.tx);
  if (it == prepared_.end()) {
    // No prepared entry: a predecessor incarnation prepared it before the
    // crash (the coordinator's retransmitted decision reaches the respawn),
    // or the entry was epoch-fenced. The writes reach this replica through
    // snapshot/catch-up or replication from the surviving cohorts.
    ++stats_.orphan_commits;
    return;
  }
  prepared_pts_.erase(it->second.pt);
  PARIS_DCHECK(m.ct >= it->second.pt);
  committed_.emplace(std::make_pair(m.ct, m.tx), std::move(it->second.writes));
  prepared_.erase(it);
}

// ---------------------------------------------------------------------------
// Replica role (Alg. 4).
// ---------------------------------------------------------------------------

void ServerBase::note_applied(TxId /*tx*/, Timestamp /*ct*/) {}

void ServerBase::apply_tick() {
  if (rt_.net.node_paused(self_)) return;  // crashed process does no work
  rt_.net.charge_cpu(self_, rt_.cost.apply_tick_us);

  // Upper bound on what can safely enter the local snapshot: one below the
  // minimum prepared timestamp, or clock/HLC when the prepare window is
  // empty (Alg. 4 lines 6-7).
  Timestamp ub;
  if (!prepared_pts_.empty()) {
    ub = Timestamp{prepared_pts_.min().raw - 1};
  } else {
    ub = std::max(Timestamp::from_physical(clock_us()), hlc_.value());
    // Fold ub into the HLC: the version clock promises every future commit
    // from this replica exceeds ub, so no future prepare may propose <= ub
    // (a prepare in this same microsecond could otherwise tie with ub).
    hlc_.observe(clock_us(), ub);
  }

  // Build straight into a pooled batch: its RecyclingVec groups keep every
  // nesting level's capacity across ΔR ticks, so a warmed-up apply loop
  // assembles the batch without heap traffic. An empty batch just returns
  // to the pool.
  auto batch = make_msg<ReplicateBatch>();
  sim::SimTime apply_cost = 0;
  while (!committed_.empty()) {
    auto it = committed_.begin();
    const Timestamp ct = it->first.first;
    if (ct > ub) break;
    if (batch->groups.empty() || batch->groups.back().ct != ct) {
      ReplicateGroup& g = batch->groups.emplace_back();  // recycled: reset both fields
      g.ct = ct;
      g.txs.clear();
    }
    const TxId tx = it->first.second;
    for (const auto& w : it->second) {
      store_.apply(w.k, w.v, w.kind != 0 ? w.delta() : 0, ct, tx, dc_, w.kind);
      ++stats_.applied_writes;
      apply_cost += rt_.cost.apply_per_write_us;
    }
    if (rt_.tracer) rt_.tracer->on_applied(dc_, partition_, tx, ct, rt_.exec.now_us());
    note_applied(tx, ct);
    ReplicateTxn& t = batch->groups.back().txs.emplace_back();
    t.tx = tx;
    // Element-wise copy into the recycled slots (not a buffer move): the
    // pooled batch keeps its warmed WriteKV strings, so a steady-state
    // apply tick builds the batch without touching the heap.
    t.writes.assign(it->second.begin(), it->second.end());
    committed_.erase(it);
  }
  if (apply_cost > 0) rt_.net.charge_cpu(self_, apply_cost);

  bool shipped = false;
  if (!batch->groups.empty()) {
    batch->partition = partition_;
    batch->upto = ub;
    const wire::MessagePtr batch_msg = std::move(batch);  // shared across peers
    for (DcId peer : rt_.topo.replicas(partition_)) {
      // Fan out only to peers active in the current membership view: a
      // drained DC gets no new batches, a not-yet-joined DC catches up via
      // snapshot + catch-up transfer instead.
      if (peer == dc_ || !rt_.dc_active(peer)) continue;
      send(rt_.dir.server(peer, partition_), batch_msg);
      ++stats_.replicate_batches_sent;
      shipped = true;
    }
    if (rt_.topo.replication() == 1) shipped = true;  // no peers to ship to
  }

  if (vv_[replica_idx_] < ub) {
    vv_[replica_idx_] = ub;
    on_vv_advanced();
  }

  if (!shipped) {
    // Alg. 4 line 21: heartbeat so peer version vectors advance without
    // updates.
    for (DcId peer : rt_.topo.replicas(partition_)) {
      if (peer == dc_ || !rt_.dc_active(peer)) continue;
      auto hb = make_msg<Heartbeat>();
      hb->partition = partition_;
      hb->t = ub;
      send(rt_.dir.server(peer, partition_), std::move(hb));
      ++stats_.heartbeats_sent;
    }
  }
}

void ServerBase::handle_replicate(NodeId from, const ReplicateBatch& m) {
  PARIS_DCHECK(m.partition == partition_);
  const DcId sender_dc = rt_.net.dc_of(from);
  for (const auto& g : m.groups) {
    for (const auto& t : g.txs) {
      for (const auto& w : t.writes) {
        store_.apply(w.k, w.v, w.kind != 0 ? w.delta() : 0, g.ct, t.tx, sender_dc, w.kind);
        ++stats_.applied_writes;
      }
      if (rt_.tracer) {
        rt_.tracer->on_applied(dc_, partition_, t.tx, g.ct, rt_.exec.now_us());
        rt_.tracer->on_replica_commit(t.tx, g.ct, sender_dc, t);
      }
      note_applied(t.tx, g.ct);
    }
  }
  const ReplicaIdx i = rt_.topo.replica_idx(sender_dc, partition_);
  PARIS_CHECK_MSG(i != kInvalidReplica, "replicate from non-replica DC");
  if (vv_[i] < m.upto) {
    vv_[i] = m.upto;
    on_vv_advanced();
  }
}

void ServerBase::handle_heartbeat(NodeId from, const Heartbeat& m) {
  PARIS_DCHECK(m.partition == partition_);
  const DcId sender_dc = rt_.net.dc_of(from);
  const ReplicaIdx i = rt_.topo.replica_idx(sender_dc, partition_);
  PARIS_CHECK_MSG(i != kInvalidReplica, "heartbeat from non-replica DC");
  if (vv_[i] < m.t) {
    vv_[i] = m.t;
    on_vv_advanced();
  }
}

Timestamp ServerBase::min_vv() const {
  // Conservative minimum over the replica slots of every DC that has EVER
  // been active in the installed membership view sequence. A never-joined
  // DC's zero slot is skipped (it has shipped nothing, so nothing of its
  // can be missing from a snapshot); the instant its join view installs,
  // its slot counts — stabilization freezes at the pre-join value until the
  // joiner's first batch/heartbeat lands, which is safe (monotone) and what
  // makes the freeze window measurable rather than hidden.
  const auto& reps = rt_.topo.replicas(partition_);
  Timestamp m = kTsMax;
  for (ReplicaIdx i = 0; i < vv_.size(); ++i) {
    if (!rt_.dc_ever_active(reps[i])) continue;
    m = std::min(m, vv_[i]);
  }
  return m;
}

Timestamp ServerBase::min_vv_installed() const {
  // Like min_vv(), but additionally skips the still-zero slots of DCs that
  // were NOT active in view 0 — i.e. a fresh joiner between view install and
  // its first heartbeat. Used only by serving-side sanity checks: the join
  // HLC floor guarantees every post-join version exceeds any pre-join stable
  // snapshot, so a snapshot above this relaxed minimum can still be served
  // exactly inside the freeze window.
  const auto& reps = rt_.topo.replicas(partition_);
  Timestamp m = kTsMax;
  for (ReplicaIdx i = 0; i < vv_.size(); ++i) {
    if (!rt_.dc_ever_active(reps[i])) continue;
    if (vv_[i].is_zero() && !rt_.dc_initially_active(reps[i])) continue;
    m = std::min(m, vv_[i]);
  }
  return m;
}

void ServerBase::gc_tick() {
  if (rt_.net.node_paused(self_)) return;
  store_.gc(gc_watermark());
}

// ---------------------------------------------------------------------------
// Crash recovery (DESIGN §11).
// ---------------------------------------------------------------------------

void ServerBase::set_incarnation(std::uint32_t epoch) {
  PARIS_CHECK_MSG(epoch < 256, "incarnation epoch exceeds the TxId salt space");
  incarnation_ = epoch;
  next_tx_seq_ = 1 + (epoch << 24);
}

void ServerBase::remember_commit(TxId tx, Timestamp ct) {
  recent_commits_.emplace_back(tx, ct);
  recent_commit_ct_.emplace(tx, ct);
  if (recent_commits_.size() > kRecentCommitCap) {
    recent_commit_ct_.erase(recent_commits_.front().first);
    recent_commits_.pop_front();
  }
}

void ServerBase::fence_lost_coordinators(const std::vector<NodeId>& nodes) {
  for (auto it = prepared_.begin(); it != prepared_.end();) {
    const NodeId coord = it->first.coordinator();
    if (std::find(nodes.begin(), nodes.end(), coord) != nodes.end()) {
      prepared_pts_.erase(it->second.pt);
      it = prepared_.erase(it);
      ++stats_.prepared_fenced;
    } else {
      ++it;
    }
  }
}

/// Record layout: [k][kind u8][ut][tx][sr][kind==0 ? bytes v : zigzag num].
/// The original source DC travels with every version so the store's total
/// version order — (ut, tx, sr) — is preserved bit-exactly on the requester.
void ServerBase::encode_version_record(Encoder& e, Key k, const store::Version& ver) {
  e.put_varint(k);
  e.put_u8(ver.kind);
  e.put_varint(ver.ut.raw);
  e.put_varint(ver.tx.raw);
  e.put_varint(ver.sr);
  if (ver.kind != 0) {
    e.put_varint(wire::detail::zigzag(ver.numeric()));
  } else {
    e.put_bytes(ver.v);
  }
}

void ServerBase::install_records(Decoder& d) {
  const std::uint64_t n = d.get_varint();
  std::string scratch;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Key k = d.get_varint();
    const std::uint8_t kind = d.get_u8();
    const Timestamp ut{d.get_varint()};
    const TxId tx{d.get_varint()};
    const DcId sr = static_cast<DcId>(d.get_varint());
    if (kind != 0) {
      const std::int64_t delta = wire::detail::unzigzag(d.get_varint());
      store_.apply(k, Value{}, delta, ut, tx, sr, kind);
    } else {
      d.get_bytes_into(scratch);
      store_.apply(k, scratch, 0, ut, tx, sr, kind);
    }
    // No note_applied / tracer on_applied here: these versions were applied
    // (and traced) by their original replicas; recovery only rebuilds state.
  }
}

void ServerBase::park_for_join() {
  PARIS_CHECK_MSG(rec_ == nullptr, "park_for_join after recovery started");
  rec_ = std::make_unique<RecoveryState>();
  rec_->parked = true;
  // donor stays kInvalidNode: buffer everything, transfer nothing — yet.
  // start_recovery() arms the transfer in place when the join view installs.
}

void ServerBase::start_recovery(NodeId donor, std::vector<NodeId> peers,
                                std::function<void()> on_done) {
  if (rec_ != nullptr && rec_->parked) {
    // Elastic join: the parked buffer (everything since deployment start)
    // carries over; the transfer phases begin now, and the finish ticks the
    // HLC past the transferred vv so post-join commits clear every snapshot
    // that stabilized while this DC was out.
    rec_->parked = false;
    rec_->join_floor = true;
  } else {
    PARIS_CHECK_MSG(rec_ == nullptr, "recovery already in progress");
    rec_ = std::make_unique<RecoveryState>();
  }
  rec_->donor = donor;
  rec_->peers = std::move(peers);
  rec_->on_done = std::move(on_done);
  auto req = make_msg<SnapshotRequest>();
  req->partition = partition_;
  req->epoch = incarnation_;
  send(donor, std::move(req));
}

void ServerBase::handle_snapshot_request(NodeId from, const SnapshotRequest& m) {
  PARIS_DCHECK(m.partition == partition_);
  (void)m;
  // One blob: header (HLC, vv, protocol extras), then the whole store.
  std::vector<std::uint8_t> blob;
  Encoder e(blob);
  e.put_varint(hlc_.value().raw);
  e.put_varint(vv_.size());
  for (Timestamp t : vv_) e.put_varint(t.raw);
  encode_recovery_extras(e);
  std::uint64_t nrec = 0;
  store_.for_each_chain(
      [&](Key, const std::vector<store::Version>& chain) { nrec += chain.size(); });
  e.put_varint(nrec);
  store_.for_each_chain([&](Key k, const std::vector<store::Version>& chain) {
    for (const auto& ver : chain) encode_version_record(e, k, ver);
  });

  // Stream it in bounded chunks; the reliable channel is FIFO, so seq order
  // is preserved and the requester reassembles by concatenation.
  constexpr std::size_t kChunkBytes = 256 * 1024;
  std::uint32_t seq = 0;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kChunkBytes, blob.size() - off);
    auto chunk = make_msg<SnapshotChunk>();
    chunk->partition = partition_;
    chunk->seq = seq++;
    chunk->last = (off + n == blob.size()) ? 1 : 0;
    chunk->payload.assign(blob.begin() + static_cast<std::ptrdiff_t>(off),
                          blob.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    send(from, std::move(chunk));
  } while (off < blob.size());
  ++stats_.snapshots_served;
}

void ServerBase::handle_snapshot_chunk(NodeId from, const SnapshotChunk& m) {
  if (rec_ == nullptr || from != rec_->donor) return;  // unsolicited: ignore
  PARIS_CHECK_MSG(m.seq == rec_->next_chunk, "snapshot chunk out of order on a FIFO channel");
  ++rec_->next_chunk;
  rec_->snap_buf.insert(rec_->snap_buf.end(), m.payload.begin(), m.payload.end());
  if (m.last == 0) return;

  // Install: header, extras, then every version record.
  Decoder d(rec_->snap_buf);
  hlc_.observe(clock_us(), Timestamp{d.get_varint()});
  const std::uint64_t nvv = d.get_varint();
  PARIS_CHECK_MSG(nvv == vv_.size(), "snapshot vv arity mismatch");
  for (std::uint64_t i = 0; i < nvv; ++i) {
    const Timestamp t{d.get_varint()};
    if (vv_[i] < t) vv_[i] = t;
  }
  decode_recovery_extras(d);
  install_records(d);
  PARIS_CHECK_MSG(d.done(), "trailing bytes after snapshot records");
  rec_->snap_buf.clear();
  rec_->snap_buf.shrink_to_fit();
  on_vv_advanced();

  // Phase 2: catch-up deltas from the remaining replicas — anything they
  // applied after the donor's snapshot line (or that only they ever had).
  // The gate (elastic join, sockets) defers this until every peer rank has
  // advertised the join view, so the watermarks peers answer with are
  // post-cutover; without a gate it runs inline.
  auto resume = [this] {
    if (rec_ == nullptr) return;  // raced with an external finish
    if (rec_->peers.empty()) {
      finish_recovery();
      return;
    }
    rec_->catchup_pending = rec_->peers.size();
    for (NodeId peer : rec_->peers) request_catchup(peer);
  };
  if (catchup_gate_) {
    catchup_gate_(std::move(resume));
  } else {
    resume();
  }
}

void ServerBase::request_catchup(NodeId peer) {
  auto req = make_msg<CatchUpRequest>();
  req->partition = partition_;
  req->epoch = incarnation_;
  req->vv.reserve(vv_.size());
  for (Timestamp t : vv_) req->vv.push_back(t.raw);
  send(peer, std::move(req));
}

void ServerBase::handle_catchup_request(NodeId from, const CatchUpRequest& m) {
  PARIS_DCHECK(m.partition == partition_);
  // Ship every version above the requester's applied watermark for the
  // version's source replica; records are idempotent, so over-shipping
  // (e.g. for a version the snapshot already carried) is harmless.
  constexpr std::size_t kChunkBytes = 256 * 1024;
  std::vector<std::uint8_t> body;
  Encoder be(body);
  std::uint64_t count = 0;
  auto emit = [&](bool last) {
    auto chunk = make_msg<CatchUpChunk>();
    chunk->partition = partition_;
    chunk->last = last ? 1 : 0;
    std::vector<std::uint8_t> payload;
    Encoder pe(payload);
    pe.put_varint(count);
    payload.insert(payload.end(), body.begin(), body.end());
    if (last) {
      Encoder tail(payload);
      tail.put_varint(vv_.size());
      for (Timestamp t : vv_) tail.put_varint(t.raw);
    }
    chunk->payload = std::move(payload);
    send(from, std::move(chunk));
    body.clear();
    count = 0;
  };
  store_.for_each_chain([&](Key k, const std::vector<store::Version>& chain) {
    for (const auto& ver : chain) {
      const ReplicaIdx slot = rt_.topo.replica_idx(ver.sr, partition_);
      const std::uint64_t watermark =
          (slot != kInvalidReplica && slot < m.vv.size()) ? m.vv[slot] : 0;
      if (ver.ut.raw <= watermark) continue;  // requester already has it
      encode_version_record(be, k, ver);
      ++count;
      if (body.size() >= kChunkBytes) emit(false);
    }
  });
  emit(true);  // always sent: the last chunk carries our version vector
  ++stats_.catchups_served;
}

void ServerBase::handle_catchup_chunk(NodeId from, const CatchUpChunk& m) {
  PARIS_DCHECK(m.partition == partition_);
  Decoder d(m.payload);
  install_records(d);
  if (m.last != 0) {
    const std::uint64_t nvv = d.get_varint();
    bool advanced = false;
    for (std::uint64_t i = 0; i < nvv; ++i) {
      const Timestamp t{d.get_varint()};
      if (i < vv_.size() && vv_[i] < t) {
        vv_[i] = t;
        advanced = true;
      }
    }
    if (advanced) on_vv_advanced();
    if (rec_ != nullptr && rec_->catchup_pending > 0 &&
        std::find(rec_->peers.begin(), rec_->peers.end(), from) != rec_->peers.end()) {
      if (--rec_->catchup_pending == 0) finish_recovery();
    }
  }
  PARIS_CHECK_MSG(d.done(), "trailing bytes after catch-up records");
}

void ServerBase::finish_recovery() {
  if (rec_->join_floor) {
    // Elastic join HLC floor (DESIGN §11, "Join"): max(vv_) is >= the
    // cluster's frozen stabilization point at cutover, so ticking the HLC
    // past it guarantees every commit this server proposes post-join lands
    // strictly above any snapshot that stabilized while its DC was out —
    // those snapshots stay exact forever.
    Timestamp floor;
    for (Timestamp t : vv_) floor = std::max(floor, t);
    hlc_.observe(clock_us(), floor.next());
  }
  // Clear rec_ BEFORE the replay: recovering() must read false so the held
  // messages take the normal dispatch path (and any Snapshot/CatchUp request
  // among them is served, not re-buffered).
  const std::unique_ptr<RecoveryState> rec = std::move(rec_);
  for (const auto& [from, bytes] : rec->held) {
    Decoder d(bytes.data(), bytes.size());
    const MessagePtr m = decode_message_pooled(d, rt_.net.msg_pool(self_));
    on_message(from, *m);
  }
  if (rec->on_done) rec->on_done();
}

}  // namespace paris::proto
