#include "proto/paris_server.h"

#include <algorithm>

#include "common/assert.h"

namespace paris::proto {

using namespace wire;

ParisServer::ParisServer(Runtime& rt, DcId dc, PartitionId partition)
    : ServerBase(rt, dc, partition),
      tree_(rt.topo.servers_per_dc(dc), rt.cfg.tree_fanout),
      gsv_(rt.topo.num_dcs(), kTsZero),
      oldest_by_dc_(rt.topo.num_dcs(), kTsZero),
      dc_round_(rt.topo.num_dcs(), 0) {
  const auto& locals = rt.topo.partitions_at(dc);
  const auto it = std::find(locals.begin(), locals.end(), partition);
  PARIS_CHECK(it != locals.end());
  local_idx_ = static_cast<std::uint32_t>(it - locals.begin());
}

void ParisServer::resolve_tree_nodes() {
  if (tree_resolved_) return;
  const auto& locals = rt_.topo.partitions_at(dc_);
  if (!tree_.is_root(local_idx_))
    parent_node_ = rt_.dir.server(dc_, locals[tree_.parent(local_idx_)]);
  for (std::uint32_t c : tree_.children(local_idx_)) {
    const NodeId n = rt_.dir.server(dc_, locals[c]);
    child_slot_[n] = child_nodes_.size();
    child_nodes_.push_back(n);
  }
  child_min_.assign(child_nodes_.size(), kTsZero);
  child_oldest_.assign(child_nodes_.size(), kTsZero);
  child_round_.assign(child_nodes_.size(), 0);
  if (tree_.is_root(local_idx_)) {
    dc_roots_.assign(rt_.topo.num_dcs(), kInvalidNode);
    for (DcId d = 0; d < rt_.topo.num_dcs(); ++d) {
      const auto& remote_locals = rt_.topo.partitions_at(d);
      if (!remote_locals.empty()) dc_roots_[d] = rt_.dir.server(d, remote_locals[0]);
    }
  }
  tree_resolved_ = true;
}

void ParisServer::start_timers(Rng& phase_rng) {
  ServerBase::start_timers(phase_rng);
  resolve_tree_nodes();
  // Every node draws a ΔG phase and every root one more, all discarded, so
  // the phases handed to later servers' timers stay where they are.
  (void)phase_rng.next_below(rt_.cfg.delta_g_us);
  if (tree_.is_root(local_idx_)) (void)phase_rng.next_u64();
  // Leaves tick where their own clock, read one round ahead (it reads a
  // clamped 0 at start-up if behind the runtime's), is a multiple of ΔG.
  if (child_nodes_.empty()) {
    const std::uint64_t g = rt_.cfg.delta_g_us;
    const std::uint64_t ahead = clock_.read_us(rt_.exec.now_us() + g);
    gst_timer_ = rt_.exec.every(self_, g, (g - ahead % g) % g, [this] { gst_tick(); });
  }
}

// ---------------------------------------------------------------------------
// Policy points.
// ---------------------------------------------------------------------------

Timestamp ParisServer::assign_snapshot(Timestamp client_seen) {
  // Alg. 2 lines 1-5: fast-forward the local UST with the client's view so
  // snapshots seen by one client advance monotonically, then assign it.
  set_ust(std::max(ust_, client_seen));
  return ust_;
}

void ParisServer::handle_read_slice(NodeId from, const ReadSliceReq& req) {
  // Alg. 3 line 2: the incoming snapshot is stable, adopt it if fresher.
  set_ust(std::max(ust_, req.snapshot));
  // The UST invariant that makes non-blocking reads safe: any snapshot
  // handed out by any coordinator in any DC is already installed here. The
  // installed variant ignores a freshly joined DC's still-empty slot (the
  // join HLC floor keeps its future versions above every stable snapshot).
  PARIS_PARANOID_CHECK(min_vv_installed() >= req.snapshot);
  serve_slice(from, req);  // never blocks
}

Timestamp ParisServer::propose_ts(const PrepareReq& /*req*/) {
  // Alg. 3 line 12 (strengthened, DESIGN.md §4): propose above the HLC
  // (already ticked past ht = max(snapshot, hwt)) and strictly above the
  // local UST, so the new version cannot fall inside an already-stable
  // snapshot. Fold the proposal back into the HLC to keep it monotonic.
  const Timestamp pt = std::max(hlc_.value(), ust_.next());
  hlc_.observe(clock_us(), pt);
  return pt;
}

void ParisServer::observe_remote_snapshot(Timestamp snap) { set_ust(std::max(ust_, snap)); }

void ParisServer::note_applied(TxId tx, Timestamp ct) {
  if (rt_.tracer != nullptr && rt_.tracer->want_visibility(tx)) {
    pending_visibility_.emplace(ct, tx);
    if (ct <= ust_) set_ust(ust_);  // defensive immediate drain
  }
}

void ParisServer::set_ust(Timestamp t) {
  if (t > ust_) {
    ust_ = t;
    if (rt_.tracer) rt_.tracer->on_ust_advance(dc_, partition_, ust_, rt_.exec.now_us());
  }
  // Sampled updates become visible once the UST passes their ct.
  while (!pending_visibility_.empty() && pending_visibility_.top().first <= ust_) {
    const auto [ct, tx] = pending_visibility_.top();
    pending_visibility_.pop();
    if (rt_.tracer) rt_.tracer->on_visible(dc_, partition_, tx, ct, rt_.exec.now_us());
  }
}

void ParisServer::encode_recovery_extras(Encoder& e) const {
  e.put_varint(ust_.raw);
  e.put_varint(gc_watermark_.raw);
}

void ParisServer::decode_recovery_extras(Decoder& d) {
  const Timestamp donor_ust{d.get_varint()};
  const Timestamp donor_gc{d.get_varint()};
  set_ust(std::max(ust_, donor_ust));
  gc_watermark_ = std::max(gc_watermark_, donor_gc);
}

// ---------------------------------------------------------------------------
// Stabilization gossip (Alg. 4 lines 34-38).
// ---------------------------------------------------------------------------

void ParisServer::gst_tick() {
  if (rt_.net.node_paused(self_)) return;  // crashed process does no work
  resolve_tree_nodes();
  rt_.net.charge_cpu(self_, rt_.cost.gossip_us);

  // Aggregate this subtree's minimum installed snapshot and oldest active
  // transaction snapshot (GC watermark input; a server with no running
  // transaction contributes its current stable snapshot, §IV-B).
  Timestamp sub_min = min_vv();
  Timestamp sub_oldest = oldest_active_snapshot(/*fallback=*/ust_);
  for (std::size_t i = 0; i < child_nodes_.size(); ++i) {
    sub_min = std::min(sub_min, child_min_[i]);
    sub_oldest = std::min(sub_oldest, child_oldest_[i]);
  }
  if (!tree_.is_root(local_idx_)) {
    auto up = make_msg<GossipUp>();
    up->min_vv = sub_min;
    up->oldest_active = sub_oldest;
    send(parent_node_, std::move(up));
    ++stats_.gossip_msgs_sent;
    return;
  }

  // Root: this is the DC's GST; exchange with the other DC roots.
  gsv_[dc_] = std::max(gsv_[dc_], sub_min);
  oldest_by_dc_[dc_] = sub_oldest;
  auto root_msg = make_msg<GossipRoot>();
  root_msg->dc = dc_;
  root_msg->gst = gsv_[dc_];
  root_msg->oldest_active = oldest_by_dc_[dc_];
  const wire::MessagePtr root_shared = std::move(root_msg);
  for (DcId d = 0; d < rt_.topo.num_dcs(); ++d) {
    // A not-yet-joined DC has nothing to contribute. A drained one still
    // hears the exchange, so its UST, hence its GC input, keeps moving.
    if (d == dc_ || dc_roots_[d] == kInvalidNode || !rt_.dc_ever_active(d)) continue;
    send(dc_roots_[d], root_shared);
    ++stats_.gossip_msgs_sent;
  }
  note_dc_round(dc_);
}

void ParisServer::handle_gossip_up(NodeId from, const GossipUp& m) {
  resolve_tree_nodes();
  const auto it = child_slot_.find(from);
  PARIS_CHECK_MSG(it != child_slot_.end(), "gossip-up from non-child");
  const std::size_t i = it->second;
  child_min_[i] = std::max(child_min_[i], m.min_vv);
  child_oldest_[i] = m.oldest_active;
  child_round_[i] = local_round();
  // The slowest child closes the round: forward at once instead of waiting
  // for a timer of this node's own.
  const std::uint64_t r = *std::min_element(child_round_.begin(), child_round_.end());
  if (r <= up_round_) return;
  up_round_ = r;
  gst_tick();
}

void ParisServer::handle_gossip_root(NodeId /*from*/, const GossipRoot& m) {
  PARIS_CHECK_MSG(tree_.is_root(local_idx_), "root exchange received by non-root");
  gsv_[m.dc] = std::max(gsv_[m.dc], m.gst);
  oldest_by_dc_[m.dc] = m.oldest_active;
  note_dc_round(m.dc);
}

void ParisServer::note_dc_round(DcId d) {
  resolve_tree_nodes();
  dc_round_[d] = local_round();
  // The UST is the aggregate minimum of the currently-active DCs' GSTs; it
  // is 0 (no stable snapshot yet) until each of them has reported at least
  // once — which also freezes the UST across a join until the new DC's root
  // first reports, mirroring the conservative min_vv(). A drained DC drops
  // out of the minimum (its replicated versions are covered by the active
  // DCs' own min_vv terms), but not out of the GC watermark: its clients'
  // last transactions still read at the active DCs (DESIGN §11, "Leave").
  Timestamp candidate = kTsMax;
  Timestamp oldest = kTsMax;
  std::uint64_t round = UINT64_MAX;
  for (DcId x = 0; x < rt_.topo.num_dcs(); ++x) {
    if (rt_.dc_ever_active(x)) oldest = std::min(oldest, oldest_by_dc_[x]);
    if (!rt_.dc_active(x)) continue;
    candidate = std::min(candidate, gsv_[x]);
    round = std::min(round, dc_round_[x]);
  }
  if (!candidate.is_zero() && candidate != kTsMax) {
    set_ust(std::max(ust_, candidate));
    // GC below both every DC's oldest active snapshot and the UST itself.
    gc_watermark_ = std::max(gc_watermark_, std::min(oldest, ust_));
  }
  // One UstDown per global round, once every active DC has reported in it:
  // a send on an earlier report of the round would carry a UST that the
  // round's later reports may still advance.
  if (round <= down_round_) return;
  down_round_ = round;
  send_ust_down();
}

void ParisServer::send_ust_down() {
  if (child_nodes_.empty() || (ust_ <= down_ust_ && gc_watermark_ <= down_gc_)) return;
  if (tree_.is_root(local_idx_)) rt_.net.charge_cpu(self_, rt_.cost.gossip_us);
  down_ust_ = ust_;
  down_gc_ = gc_watermark_;
  auto down = make_msg<UstDown>();
  down->ust = ust_;
  down->gc_watermark = gc_watermark_;
  const wire::MessagePtr down_shared = std::move(down);
  for (NodeId child : child_nodes_) {
    send(child, down_shared);
    ++stats_.gossip_msgs_sent;
  }
}

void ParisServer::handle_ust_down(NodeId /*from*/, const UstDown& m) {
  resolve_tree_nodes();
  set_ust(std::max(ust_, m.ust));
  gc_watermark_ = std::max(gc_watermark_, m.gc_watermark);
  send_ust_down();  // forwards only what advanced: counts stay flat down the tree
}

}  // namespace paris::proto
