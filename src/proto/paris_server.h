#pragma once
// The PaRiS partition server (§III-B, §IV).
//
// Differences from the base server, all centered on the Universal Stable
// Time (UST):
//  * transactions are assigned the server's UST as snapshot — a snapshot
//    already installed by every DC, so every read slice is served
//    immediately (non-blocking reads);
//  * commit timestamps are proposed strictly above both the HLC (which was
//    ticked past ht) and the local UST, so no version can ever join an
//    already-stable snapshot retroactively;
//  * servers participate in the two-level stabilization gossip (Alg. 4
//    lines 34-38): a per-DC aggregation tree computes the DC's Global
//    Stable Time (GST = min over local servers of min(VV)); DC roots
//    exchange GSTs; each root takes the global minimum as the UST and
//    disseminates it down the tree. Rounds are pipelined and clock-aligned
//    (DESIGN §4): only leaves run the ΔG timer, on multiples of ΔG of their
//    own clocks; every other node forwards once all its children reported
//    in the round, and a root sends an advanced UST down once all active
//    DCs did. The same gossip aggregates the oldest active snapshot to
//    drive storage GC (§IV-B).

#include <queue>

#include "cluster/membership.h"
#include "proto/server_base.h"

namespace paris::proto {

class ParisServer : public ServerBase {
 public:
  ParisServer(Runtime& rt, DcId dc, PartitionId partition);

  void start_timers(Rng& phase_rng) override;

  /// This server's universal stable time ust_n^m.
  Timestamp ust() const { return ust_; }
  /// Snapshot watermark below which storage GC prunes (aggregated oldest
  /// active snapshot).
  Timestamp gc_watermark_value() const { return gc_watermark_; }
  bool is_gossip_root() const { return tree_.is_root(local_idx_); }
  Timestamp stable_snapshot() const override { return ust_; }

 protected:
  Timestamp assign_snapshot(Timestamp client_seen) override;
  void handle_read_slice(NodeId from, const wire::ReadSliceReq& req) override;
  Timestamp propose_ts(const wire::PrepareReq& req) override;
  void observe_remote_snapshot(Timestamp snap) override;
  Timestamp gc_watermark() const override { return gc_watermark_; }
  void note_applied(TxId tx, Timestamp ct) override;

  void handle_gossip_up(NodeId from, const wire::GossipUp& m) override;
  void handle_gossip_root(NodeId from, const wire::GossipRoot& m) override;
  void handle_ust_down(NodeId from, const wire::UstDown& m) override;

  // Snapshot extras (DESIGN §11): a respawned PaRiS server inherits the
  // donor's UST and GC watermark instead of starting from zero — its
  // stabilization gossip would eventually recompute both, but until then a
  // zero UST would assign unreadably stale snapshots to new transactions.
  void encode_recovery_extras(wire::Encoder& e) const override;
  void decode_recovery_extras(wire::Decoder& d) override;

 private:
  void resolve_tree_nodes();
  /// One stabilization round at this node: aggregate the subtree minima and
  /// send them up the tree (or, at a root, to the other DC roots). Driven by
  /// the ΔG timer at leaves and by the last child's report elsewhere.
  void gst_tick();
  /// The round a report arriving now belongs to: the ΔG multiple nearest
  /// this server's clock (DESIGN §4, "Pairing by round").
  std::uint64_t local_round() const {
    return (clock_us() + rt_.cfg.delta_g_us / 2) / rt_.cfg.delta_g_us;
  }
  /// Root only: DC `d` completed a round. UST and GC watermark = minima over
  /// the active DCs' reports, sent down once all of them reported.
  void note_dc_round(DcId d);
  /// Sends the current UST and GC watermark to the children if either
  /// advanced past what they were last sent.
  void send_ust_down();
  void set_ust(Timestamp t);

  Timestamp ust_;
  Timestamp gc_watermark_;

  // Stabilization tree position.
  cluster::StabTree tree_;
  std::uint32_t local_idx_ = 0;
  NodeId parent_node_ = kInvalidNode;
  std::vector<NodeId> child_nodes_;
  std::unordered_map<NodeId, std::size_t> child_slot_;
  std::vector<Timestamp> child_min_;     ///< last GossipUp.min_vv per child
  std::vector<Timestamp> child_oldest_;  ///< last GossipUp.oldest_active per child
  std::vector<std::uint64_t> child_round_;  ///< local_round() of each child's last report
  std::uint64_t up_round_ = 0;              ///< last round forwarded up (or to the roots)
  bool tree_resolved_ = false;

  // Last UST / GC watermark sent down to the children.
  Timestamp down_ust_;
  Timestamp down_gc_;

  // Root-only state: last GST / oldest-active reported per DC, the
  // local_round() of each DC's last report, and the last round sent down.
  std::vector<Timestamp> gsv_;
  std::vector<Timestamp> oldest_by_dc_;
  std::vector<std::uint64_t> dc_round_;
  std::uint64_t down_round_ = 0;
  std::vector<NodeId> dc_roots_;

  // Apply->visible tracking for sampled transactions (Fig. 4): a tx's
  // writes become readable here once the UST passes its ct.
  using VisEntry = std::pair<Timestamp, TxId>;
  std::priority_queue<VisEntry, std::vector<VisEntry>, std::greater<>> pending_visibility_;

  runtime::TimerHandle gst_timer_;  ///< leaves only: the round clock
};

}  // namespace paris::proto
