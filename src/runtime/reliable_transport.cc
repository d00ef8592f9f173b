#include "runtime/reliable_transport.h"

#include <algorithm>
#include <map>

#include "common/assert.h"

namespace paris::runtime {

namespace {

/// Latest-wins periodic messages: a newer instance on the same channel
/// supersedes an unacked older one, so the older frame can be coalesced to
/// a placeholder instead of being retransmitted through a partition.
/// ReplicateBatch is NOT here — every batch carries unique writes.
int coalesce_slot(wire::MsgType t) {
  switch (t) {
    case wire::MsgType::kHeartbeat:
      return 0;
    case wire::MsgType::kGossipUp:
      return 1;
    case wire::MsgType::kGossipRoot:
      return 2;
    case wire::MsgType::kUstDown:
      return 3;
    default:
      return -1;
  }
}
constexpr int kCoalesceSlots = 4;

}  // namespace

/// Per-node interposer: owns the sender windows of every channel ORIGINATING
/// at this node and the receiver dedup state of every channel TERMINATING at
/// it. All state is touched only on the node's own worker (sends, timer
/// fires and deliveries all run there), so no locks are needed — the same
/// ownership discipline as the backend's per-worker pools.
class ReliableTransport::Endpoint final : public Actor {
 public:
  Endpoint(ReliableTransport& rt, Actor* real) : rt_(rt), real_(real) {}

  void attach(NodeId self) {
    self_ = self;
    const std::uint64_t period = rt_.cfg_.effective_scan_period_us();
    PARIS_CHECK(period > 0);
    // Stagger scan phases across nodes so retransmission bursts do not
    // synchronize cluster-wide.
    timer_ = rt_.exec_.every(self, period, (self * 7919) % period, [this] { scan(); });
  }

  void on_message(NodeId from, const wire::Message& m) override {
    switch (m.type()) {
      case wire::MsgType::kReliableFrame:
        return handle_frame(from, static_cast<const wire::ReliableFrame&>(m));
      case wire::MsgType::kReliableAck:
        return handle_ack(from, static_cast<const wire::ReliableAck&>(m));
      default:
        // Unframed traffic (e.g. from an unwrapped test node) passes through.
        real_->on_message(from, m);
    }
  }

  void send_framed(NodeId to, const wire::Message& msg, std::uint64_t at_us) {
    SendChannel& ch = send_[to];
    const wire::MsgType t = msg.type();
    const std::uint64_t seq = ++ch.next_seq;

    auto frame = rt_.inner_.msg_pool(self_).make<wire::ReliableFrame>();
    frame->seq = seq;
    frame->dst_epoch = ch.dst_epoch;
    frame->inner_type = static_cast<std::uint8_t>(t);
    wire::encode_message(msg, frame->payload);

    if (const int slot = coalesce_slot(t); slot >= 0) {
      const std::uint64_t prev = ch.latest_wins[slot];
      if (prev > ch.acked) tombstone(ch, prev);
      ch.latest_wins[slot] = seq;
    }

    ch.window.push_back(Flight{wire::MessagePtr(std::move(frame)), 0, at_us});
    rt_.stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    pump(to, ch, rt_.exec_.now_us());
  }

  std::size_t window_size() const {
    std::size_t n = 0;
    for (const auto& [to, ch] : send_) n += ch.window.size();
    return n;
  }

  /// A peer incarnation restarted with empty reliable state: renumber every
  /// unacked frame toward it from seq 1 (fresh ReliableFrame objects — an
  /// in-flight delayed copy may still reference the old ones) and restart
  /// the dedup state of the channel FROM it. Runs on this node's worker.
  void reset_channels(const std::vector<NodeId>& peers, std::uint32_t peer_epoch) {
    const std::uint64_t now = rt_.exec_.now_us();
    for (const NodeId peer : peers) {
      SendChannel& ch = send_[peer];  // created if absent: future sends need the epoch
      ch.dst_epoch = peer_epoch;
      std::uint64_t n = 0;
      for (Flight& fl : ch.window) {
        const auto& old = static_cast<const wire::ReliableFrame&>(*fl.frame);
        auto nf = rt_.inner_.msg_pool(self_).make<wire::ReliableFrame>();
        nf->seq = ++n;
        nf->dst_epoch = peer_epoch;
        nf->inner_type = old.inner_type;
        nf->payload = old.payload;
        fl.frame = wire::MessagePtr(std::move(nf));
        fl.sent_at_us = 0;  // queued again: pump retransmits from scratch
        fl.sacked = false;
        fl.retransmitted = true;  // Karn: its ack would be ambiguous
      }
      for (auto& lw : ch.latest_wins) lw = lw > ch.acked ? lw - ch.acked : 0;
      ch.next_seq = n;
      ch.acked = 0;
      ch.sent = 0;
      ch.backoff = 1;
      rt_.stats_.channel_resets.fetch_add(1, std::memory_order_relaxed);
      pump(peer, ch, now);
      if (auto it = recv_.find(peer); it != recv_.end()) {
        it->second.delivered = 0;
        it->second.ooo.clear();
        rt_.stats_.channel_resets.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Flight {
    wire::MessagePtr frame;
    std::uint64_t sent_at_us = 0;   ///< 0 = queued, not yet transmitted
    std::uint64_t first_at_us = 0;  ///< send_at deadline for the FIRST transmission
    bool sacked = false;            ///< receiver holds it (selective ack)
    bool retransmitted = false;     ///< Karn's rule: no RTT sample from these
  };
  struct SendChannel {
    std::uint64_t next_seq = 0;  ///< last assigned
    std::uint32_t dst_epoch = 0;  ///< receiver incarnation the numbering belongs to
    std::uint64_t acked = 0;     ///< cumulative; window holds [acked+1, next_seq]
    std::uint64_t sent = 0;      ///< highest seq transmitted at least once
    std::uint32_t backoff = 1;   ///< RTO multiplier, doubled per silent round
    std::deque<Flight> window;
    std::uint64_t latest_wins[kCoalesceSlots] = {0, 0, 0, 0};
    RttEstimator rtt;            ///< adaptive-RTO state (Jacobson/Karels)
  };

  struct RecvChannel {
    std::uint64_t delivered = 0;  ///< highest in-order seq handed up
    std::map<std::uint64_t, std::vector<std::uint8_t>> ooo;  ///< buffered past a gap
  };

  /// The channel's current base RTO: the measured estimate when adaptive
  /// RTO is on and primed, the configured constant otherwise.
  std::uint64_t base_rto(const SendChannel& ch) const {
    if (rt_.cfg_.adaptive_rto && ch.rtt.primed()) {
      return ch.rtt.rto_us(rt_.cfg_.min_rto_us, rt_.cfg_.max_rto_us);
    }
    return rt_.cfg_.rto_us;
  }

  /// Transmits queued frames up to the in-flight cap (first transmissions
  /// are ack-clocked: the cap holds the line whenever the window is deeper
  /// than max_in_flight, e.g. against a partitioned peer). Each frame
  /// carries its own send_at deadline, honored however late the cap lets
  /// it out (a past deadline is the backend's clamp-to-now case).
  void pump(NodeId to, SendChannel& ch, std::uint64_t now) {
    const std::uint64_t limit = ch.acked + rt_.cfg_.max_in_flight;
    while (ch.sent < ch.next_seq && ch.sent < limit) {
      Flight& fl = ch.window[ch.sent - ch.acked];  // frame with seq ch.sent + 1
      fl.sent_at_us = now;
      ++ch.sent;
      if (fl.first_at_us != 0) {
        rt_.inner_.send_at(self_, to, fl.frame, fl.first_at_us);
      } else {
        rt_.inner_.send(self_, to, fl.frame);
      }
    }
  }

  /// Replaces the (still unacked) frame `seq` with an empty placeholder so
  /// retransmissions stop carrying its superseded payload.
  void tombstone(SendChannel& ch, std::uint64_t seq) {
    Flight& fl = ch.window[seq - (ch.acked + 1)];
    const auto& old = static_cast<const wire::ReliableFrame&>(*fl.frame);
    if (old.payload.empty()) return;  // already a placeholder
    auto ph = rt_.inner_.msg_pool(self_).make<wire::ReliableFrame>();
    ph->seq = seq;
    ph->dst_epoch = old.dst_epoch;
    ph->inner_type = old.inner_type;
    fl.frame = wire::MessagePtr(std::move(ph));
    rt_.stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
  }

  void handle_frame(NodeId from, const wire::ReliableFrame& f) {
    if (f.dst_epoch != rt_.cfg_.self_epoch) {
      // Stamped for another incarnation of this process: a retransmission
      // numbered for the dead channel (or one sent before the peer noticed
      // our respawn). Dropping it — no ack, no buffering — keeps stale
      // seqs out of the reorder buffer, where they would later mask the
      // renumbered frame carrying the same seq. The sender renumbers and
      // restamps on its own epoch notice, so delivery converges.
      rt_.stats_.fenced_frames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    RecvChannel& ch = recv_[from];
    if (f.seq <= ch.delivered) {
      // Duplicate: a retransmission raced the ack. Re-ack so the sender's
      // window drains even if the original ack was lost.
      rt_.stats_.dup_frames.fetch_add(1, std::memory_order_relaxed);
      send_ack(from, ch);
      return;
    }
    if (f.seq == ch.delivered + 1) {
      deliver_payload(from, f.payload);
      ch.delivered = f.seq;
      // The gap just filled: drain everything buffered behind it.
      auto it = ch.ooo.begin();
      while (it != ch.ooo.end() && it->first == ch.delivered + 1) {
        deliver_payload(from, it->second);
        ch.delivered = it->first;
        it = ch.ooo.erase(it);
      }
      send_ack(from, ch);
      return;
    }
    // Past a gap (a drop ate a predecessor): buffer, bounded; the stale ack
    // below tells the sender to fast-retransmit the missing head.
    rt_.stats_.ooo_frames.fetch_add(1, std::memory_order_relaxed);
    if (ch.ooo.size() < rt_.cfg_.max_ooo_buffered) {
      ch.ooo.emplace(f.seq, f.payload);  // no-op if that seq is already held
    }
    send_ack(from, ch);  // the SACK ranges tell the sender what to skip
  }

  void deliver_payload(NodeId from, const std::vector<std::uint8_t>& payload) {
    if (payload.empty()) return;  // placeholder: only advances the sequence
    wire::Decoder d(payload);
    const wire::MessagePtr inner = wire::decode_message_pooled(d, rt_.inner_.msg_pool(self_));
    PARIS_DCHECK(d.done());
    real_->on_message(from, *inner);
  }

  /// SACK well-formedness (acks cross process boundaries under the socket
  /// backend, so malformed input is survived, never asserted on): even
  /// count, lo <= hi, the first range strictly beyond the cumack hole
  /// (lo >= cum + 2), ascending and non-adjacent.
  static bool sack_well_formed(const wire::ReliableAck& a) {
    if (a.sack.size() % 2 != 0) return false;
    std::uint64_t prev_hi = a.cum_seq;  // ranges must start past cum+1
    for (std::size_t i = 0; i < a.sack.size(); i += 2) {
      const std::uint64_t lo = a.sack[i], hi = a.sack[i + 1];
      if (lo > hi || lo < prev_hi + 2) return false;
      prev_hi = hi;
    }
    return true;
  }

  /// Marks the window's flights covered by the ack's SACK ranges so
  /// retransmission skips them. Clamped to [acked+1, next_seq]; stale
  /// ranges below the window are no-ops.
  void apply_sack(SendChannel& ch, const wire::ReliableAck& a) {
    if (a.sack.empty() || !rt_.cfg_.sack) return;
    if (!sack_well_formed(a) || a.cum_seq > ch.next_seq) {
      rt_.stats_.malformed_acks.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = 0; i < a.sack.size(); i += 2) {
      std::uint64_t lo = std::max(a.sack[i], ch.acked + 1);
      const std::uint64_t hi = std::min(a.sack[i + 1], ch.next_seq);
      for (std::uint64_t seq = lo; seq <= hi; ++seq) {
        ch.window[seq - (ch.acked + 1)].sacked = true;
      }
    }
  }

  void handle_ack(NodeId from, const wire::ReliableAck& a) {
    const auto it = send_.find(from);
    if (it == send_.end()) return;  // ack for a channel we never opened
    SendChannel& ch = it->second;
    if (a.cum_seq > ch.next_seq) {
      // A peer acking seqs we never assigned is broken (or restarted with
      // stale state): ignore the whole ack rather than corrupt the window.
      rt_.stats_.malformed_acks.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (a.cum_seq <= ch.acked) {
      rt_.stats_.stale_acks.fetch_add(1, std::memory_order_relaxed);
      // Even a stale ack carries fresh SACK state — in loss recovery
      // stale acks are the MAIN carrier of it.
      apply_sack(ch, a);
      // Fast retransmit: a stale ack while frames are in flight means the
      // receiver is stuck behind a gap. The receiver buffers everything
      // after the gap, so resending just the window HEAD fills it; the
      // guard interval absorbs the stale-ack burst one loss produces.
      if (!ch.window.empty()) {
        const std::uint64_t now = rt_.exec_.now_us();
        Flight& head = ch.window.front();
        if (head.sent_at_us + rt_.cfg_.effective_fast_retx_guard_us() <= now) {
          rt_.inner_.send(self_, from, head.frame);
          head.sent_at_us = now;
          head.retransmitted = true;
          rt_.stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
          rt_.stats_.fast_retransmits.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    const std::uint64_t now = rt_.exec_.now_us();
    // RTT sample from the NEWEST acked frame that was transmitted exactly
    // once (Karn's rule: a retransmitted frame's ack is ambiguous).
    std::uint64_t sample_from = 0;
    while (ch.acked < a.cum_seq && !ch.window.empty()) {
      const Flight& fl = ch.window.front();
      if (!fl.retransmitted && fl.sent_at_us != 0) sample_from = fl.sent_at_us;
      ch.window.pop_front();
      ++ch.acked;
    }
    if (sample_from != 0 && now >= sample_from) {
      ch.rtt.on_sample(now - sample_from);
      rt_.stats_.rtt_samples.fetch_add(1, std::memory_order_relaxed);
    }
    if (ch.sent < ch.acked) ch.sent = ch.acked;
    ch.backoff = 1;  // forward progress: reset the backoff
    apply_sack(ch, a);
    pump(from, ch, now);  // ack-clock the queued tail out
  }

  void send_ack(NodeId to, const RecvChannel& ch) {
    auto ack = rt_.inner_.msg_pool(self_).make<wire::ReliableAck>();
    ack->cum_seq = ch.delivered;
    if (rt_.cfg_.sack && !ch.ooo.empty()) {
      // Coalesce the buffered-past-the-gap seqs (the map is ordered) into
      // up to max_sack_ranges [lo,hi] pairs; the tail past the cap is
      // simply re-covered by retransmission.
      std::uint64_t lo = 0, hi = 0;
      for (const auto& [seq, payload] : ch.ooo) {
        if (lo == 0) {
          lo = hi = seq;
        } else if (seq == hi + 1) {
          hi = seq;
        } else {
          ack->sack.push_back(lo);
          ack->sack.push_back(hi);
          if (ack->sack.size() / 2 >= rt_.cfg_.max_sack_ranges) {
            lo = 0;
            break;
          }
          lo = hi = seq;
        }
      }
      if (lo != 0) {
        ack->sack.push_back(lo);
        ack->sack.push_back(hi);
      }
    }
    rt_.inner_.send(self_, to, std::move(ack));
    rt_.stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
  }

  /// Resends the IN-FLIGHT burst's GAPS in order — flights the receiver
  /// selectively acked are skipped (with cfg.sack off nothing is ever
  /// marked, so this degrades to the PR 4 go-back-N over the burst) — then
  /// tops the burst back up to the cap. Queued frames beyond the cap stay
  /// queued — a deep blackout backlog costs one bounded burst per probe,
  /// not O(backlog).
  void retransmit_window(NodeId to, SendChannel& ch, std::uint64_t now) {
    const std::uint64_t n = ch.sent - ch.acked;
    std::uint64_t resent = 0, skipped = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      Flight& fl = ch.window[i];
      if (fl.sacked) {
        ++skipped;
        continue;  // the receiver already holds it
      }
      rt_.inner_.send(self_, to, fl.frame);  // handle copy, same bytes
      fl.sent_at_us = now;
      fl.retransmitted = true;
      ++resent;
    }
    rt_.stats_.retransmits.fetch_add(resent, std::memory_order_relaxed);
    if (skipped != 0) rt_.stats_.sacked_skips.fetch_add(skipped, std::memory_order_relaxed);
    pump(to, ch, now);
  }

  /// RTO scan (periodic, on this node's worker): any channel whose oldest
  /// unacked frame has been silent past the (backed-off) RTO retransmits
  /// its in-flight gaps in order. The base RTO is per channel when the
  /// adaptive estimator is primed.
  void scan() {
    const std::uint64_t now = rt_.exec_.now_us();
    for (auto& [to, ch] : send_) {
      if (ch.window.empty()) continue;
      const std::uint64_t base = base_rto(ch);
      const std::uint64_t rto = std::min<std::uint64_t>(base * ch.backoff, rt_.cfg_.max_rto_us);
      if (ch.window.front().sent_at_us + rto > now) continue;
      retransmit_window(to, ch, now);
      if (base * ch.backoff < rt_.cfg_.max_rto_us) ch.backoff *= 2;
    }
  }

  ReliableTransport& rt_;
  Actor* real_;
  NodeId self_ = kInvalidNode;
  std::unordered_map<NodeId, SendChannel> send_;  ///< keyed by destination
  std::unordered_map<NodeId, RecvChannel> recv_;  ///< keyed by origin
  TimerHandle timer_;
};

ReliableTransport::ReliableTransport(Transport& inner, Executor& exec, ReliableConfig cfg)
    : TransportDecorator(inner), exec_(exec), cfg_(cfg) {}

ReliableTransport::~ReliableTransport() = default;

Actor* ReliableTransport::wrap(Actor* real) {
  PARIS_CHECK(real != nullptr);
  endpoints_.push_back(std::make_unique<Endpoint>(*this, real));
  return endpoints_.back().get();
}

void ReliableTransport::attach(Actor* wrapped, NodeId node) {
  auto* ep = static_cast<Endpoint*>(wrapped);
  if (by_node_.size() <= node) by_node_.resize(node + 1, nullptr);
  PARIS_CHECK_MSG(by_node_[node] == nullptr, "node attached twice");
  by_node_[node] = ep;
  ep->attach(node);
}

void ReliableTransport::send(NodeId from, NodeId to, wire::MessagePtr msg) {
  Endpoint* ep = from < by_node_.size() ? by_node_[from] : nullptr;
  if (ep == nullptr) {  // unwrapped sender (tests): raw passthrough
    inner_.send(from, to, std::move(msg));
    return;
  }
  ep->send_framed(to, *msg, /*at_us=*/0);
}

void ReliableTransport::send_at(NodeId from, NodeId to, wire::MessagePtr msg,
                                std::uint64_t at_us) {
  Endpoint* ep = from < by_node_.size() ? by_node_[from] : nullptr;
  if (ep == nullptr) {
    inner_.send_at(from, to, std::move(msg), at_us);
    return;
  }
  ep->send_framed(to, *msg, at_us);
}

ReliableTransport::Stats ReliableTransport::stats() const {
  Stats s;
  s.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  s.retransmits = stats_.retransmits.load(std::memory_order_relaxed);
  s.fast_retransmits = stats_.fast_retransmits.load(std::memory_order_relaxed);
  s.acks_sent = stats_.acks_sent.load(std::memory_order_relaxed);
  s.dup_frames = stats_.dup_frames.load(std::memory_order_relaxed);
  s.ooo_frames = stats_.ooo_frames.load(std::memory_order_relaxed);
  s.stale_acks = stats_.stale_acks.load(std::memory_order_relaxed);
  s.coalesced = stats_.coalesced.load(std::memory_order_relaxed);
  s.sacked_skips = stats_.sacked_skips.load(std::memory_order_relaxed);
  s.malformed_acks = stats_.malformed_acks.load(std::memory_order_relaxed);
  s.rtt_samples = stats_.rtt_samples.load(std::memory_order_relaxed);
  s.channel_resets = stats_.channel_resets.load(std::memory_order_relaxed);
  s.fenced_frames = stats_.fenced_frames.load(std::memory_order_relaxed);
  return s;
}

std::size_t ReliableTransport::window_size(NodeId node) const {
  Endpoint* ep = node < by_node_.size() ? by_node_[node] : nullptr;
  return ep != nullptr ? ep->window_size() : 0;
}

void ReliableTransport::reset_peer_channels(NodeId self, const std::vector<NodeId>& peers,
                                            std::uint32_t peer_epoch) {
  Endpoint* ep = self < by_node_.size() ? by_node_[self] : nullptr;
  if (ep != nullptr) ep->reset_channels(peers, peer_epoch);
}

}  // namespace paris::runtime
