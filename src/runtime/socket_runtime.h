#pragma once
// SocketBackend: the protocol stack across real OS processes (DESIGN.md §10).
//
// Every process of a socket deployment builds the SAME topology in the SAME
// registration order, so node ids agree everywhere by construction; each
// process rank OWNS the nodes of the data centers with dc % nprocs == rank
// and executes only those. Intra-process traffic goes through the wrapped
// ThreadBackend's mailboxes exactly as before; a message addressed to a
// node another process owns is routed out instead (RemoteRouter hook):
//
//   [len u32][from u32][to u32][encode_message bytes]       (little-endian)
//
// length-prefixed on a per-peer TCP connection. With cfg.reliable on, the
// encoded message IS a wire::ReliableFrame / wire::ReliableAck — the same
// seq/ack/SACK framing the thread runtime uses — so retransmission, dedup
// and selective repeat work identically across the process boundary; the
// whole decorator chain (Reliable → Fuzz → Chaos → Partition → Wan →
// Latency, built by proto::Deployment) composes on top unchanged, because it
// runs above the Transport seam in the sending process.
//
// I/O model (DESIGN §12): one pump thread per process runs a poll(2)
// readiness loop over the peer sockets (all nonblocking), the listen socket
// and a wake pipe. Outbound frames queue per peer as a ring of frame
// buffers; the pump swaps the ring for its private drain list and flushes
// it as iovec chains via one sendmsg() per batch (≤ kMaxWritevIovecs iovecs
// / kMaxWritevBytes bytes per call, resuming mid-iovec after a short
// write). Inbound reads land directly in the reassembler's buffer in
// kReadChunk gulps, so one syscall drains many frames.
//
// Flow control: each peer's outbound ring is bounded by
// Options::outbound_budget bytes. When the ring is full, forward() REFUSES
// the frame (returns false) and the sending worker parks the envelope
// locally (ThreadBackend's router park path, counted as
// backpressure_stalls) and retries shortly — one slow peer degrades that
// channel instead of ballooning resident memory. The reliable layer's
// per-channel in-flight cap bounds how much a channel can ever park.
//
// Worker threads never block on the network: a send appends to the peer's
// ring and, when the ring was empty, pokes the wake pipe (a one-byte
// nonblocking write, elided while a wake is already armed so a flood of
// senders can't fill the pipe). The pump's poll timeout doubles as the
// redial timer: if a connection dies mid-run, the original dialer redials
// with capped exponential backoff + seed-deterministic jitter — in-flight
// bytes on the dead connection are gone (exactly the crash/restart case),
// and the reliable layer's seq state retransmits and dedups across the
// reconnect.
//
// Membership is epoch-fenced (DESIGN §11): every (re)incarnation of a rank
// carries a monotonically increasing epoch in its connection hello, and both
// sides heartbeat it as a pump-level beacon lease. A hello or beacon whose
// epoch is OLDER than the best known for that rank is fenced — the
// connection is closed and counted — so a zombie half of a partitioned old
// incarnation can never feed stale frames into reliable windows. Inbound
// frames are additionally validated byte-level (wire::validate_encoded_
// message) before touching a mailbox: the strict in-process decoder treats
// malformation as a codec bug and aborts, but bytes from a socket are a
// trust boundary — corrupt frames are counted and dropped instead.
//
// Determinism: none beyond the thread runtime's — see DESIGN §10/§12 for
// which guarantees survive real sockets (checker-validated convergence
// does; byte-identical output and
// seed-reproducible chaos schedules across processes do not, since every
// process draws from its own stream and the kernel orders completions).

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/endpoint.h"
#include "runtime/thread_runtime.h"

namespace paris::runtime {

/// Placement + wiring of a multi-process socket deployment. rank < 0 means
/// "launcher": run_experiment spawns the children and aggregates; only
/// children (rank >= 0) ever build a SocketBackend.
struct SocketConfig {
  std::int32_t rank = -1;        ///< this process's rank; -1 = launcher
  std::uint32_t processes = 0;   ///< 0 = one per DC
  /// Rank r listens on hosts[r]. The launcher fills an empty list with the
  /// loopback default (kDefaultLoopbackPort + r) before it encodes the child
  /// config; children and the deployment require one entry per process.
  std::vector<Endpoint> hosts;
  std::uint64_t connect_timeout_ms = 15'000;
  /// Mesh identity, echoed in every connection hello: two concurrent runs
  /// sharing a port range must not silently cross-connect their clusters.
  /// 0 = the launcher derives one (pid ^ seed) and ships it to children.
  std::uint64_t mesh_token = 0;
  std::string dir;  ///< launcher: child logs + result files (empty = temp dir)
  /// Incarnation epoch of THIS child's rank: 0 for the initial spawn, +1 per
  /// respawn (the launcher passes it via argv, not the shared config file).
  /// Carried in the hello and heartbeated as a beacon lease; peers fence any
  /// connection or beacon carrying an older epoch for the same rank.
  std::uint32_t epoch = 0;
  /// Launcher: respawn a dead rank (with a bumped epoch + state transfer)
  /// instead of failing fast. CI exactness jobs keep the fail-fast default.
  bool supervise = false;
  std::uint32_t max_respawns = 2;  ///< supervise: total respawn budget
  /// Launcher fault schedule: SIGKILL `kill_rank` once `kill_after_ms` of
  /// supervised wait have elapsed (-1 = no scheduled kill).
  std::int32_t kill_rank = -1;
  std::uint64_t kill_after_ms = 0;
  /// Per-peer outbound ring budget in bytes (> 0); a full ring makes
  /// forward() refuse frames so senders park (backpressure).
  std::uint64_t outbound_budget = 4u << 20;
  /// Coordinated-omission regression hook (tests): stall_at_ms into the run,
  /// the child with rank == stall_rank stops draining outbound frames toward
  /// stall_peer for stall_len_ms (debug_stall_peer), then resumes. A
  /// closed-loop driver's percentiles stay flat through such a stall; the
  /// open-loop intended percentiles must not. -1 = disabled.
  std::int32_t stall_rank = -1;
  std::uint32_t stall_peer = 0;
  std::uint64_t stall_at_ms = 0;
  std::uint64_t stall_len_ms = 0;

  std::uint32_t resolve_processes(std::uint32_t num_dcs) const {
    return processes != 0 ? processes : num_dcs;
  }
};

/// Socket-pump counters (per process).
struct SocketStats {
  std::uint64_t frames_out = 0;     ///< frames routed to a peer
  std::uint64_t frames_in = 0;      ///< frames injected from peers
  std::uint64_t bytes_out = 0;      ///< payload bytes written to sockets
  std::uint64_t bytes_in = 0;       ///< payload bytes read from sockets
  std::uint64_t partial_reads = 0;  ///< reads that ended mid-frame
  std::uint64_t short_writes = 0;   ///< writes that drained only part of a batch
  std::uint64_t reconnects = 0;     ///< connections re-established mid-run
  std::uint64_t dropped_dead = 0;   ///< frames dropped: peer down, no buffer
  std::uint64_t redial_attempts = 0;   ///< redials tried (incl. failures)
  std::uint64_t redial_giveups = 0;    ///< dead episodes that hit the retry cap
  std::uint64_t fenced_stale_epoch = 0;  ///< hellos/beacons from a dead incarnation
  std::uint64_t malformed_frames = 0;    ///< inbound frames failing validation
  std::uint64_t read_syscalls = 0;   ///< recv() calls that returned bytes
  std::uint64_t write_syscalls = 0;  ///< sendmsg() calls that wrote bytes
  std::uint64_t flushes = 0;         ///< outbound ring→drain swaps (batches)
  std::uint64_t backpressure_stalls = 0;  ///< envelopes parked: peer ring full
  std::uint64_t backpressure_drops = 0;   ///< parked envelopes shed at the cap

  /// Syscalls spent per frame moved (both directions); the bench's headline
  /// batching metric. 0 when no frames moved.
  double syscalls_per_frame() const {
    const std::uint64_t fr = frames_out + frames_in;
    return fr == 0 ? 0.0
                   : static_cast<double>(read_syscalls + write_syscalls) /
                         static_cast<double>(fr);
  }
  /// Payload bytes moved per syscall (both directions). 0 when idle.
  double bytes_per_syscall() const {
    const std::uint64_t sc = read_syscalls + write_syscalls;
    return sc == 0 ? 0.0
                   : static_cast<double>(bytes_out + bytes_in) /
                         static_cast<double>(sc);
  }
};

namespace sockdetail {

inline constexpr std::uint32_t kHelloMagic = 0x50415253;  // "PARS"
/// [magic u32][rank u32][token u64][epoch u32][reserved u32]
inline constexpr std::size_t kHelloSize = 24;
inline constexpr std::size_t kFrameHeader = 4;            // u32 length prefix
inline constexpr std::size_t kMaxFrame = 64u << 20;       // sanity bound

/// Frames whose `to` field is this sentinel are pump-level epoch beacons
/// ([rank u32][epoch u32][view u32] payload), consumed by the peer's pump as
/// a lease heartbeat — never injected into a mailbox. The view field is how
/// membership view changes propagate (DESIGN §11): a rank that installed
/// view V advertises it here, and peers install on observation. The sentinel
/// can't collide with a real node id (kInvalidNode).
inline constexpr std::uint32_t kEpochBeaconDst = 0xFFFF'FFFFu;
inline constexpr std::size_t kBeaconBytes = 12;

/// Batching policy (DESIGN §12): one outbound syscall covers at most this
/// many iovecs / bytes, and one inbound syscall reads up to kReadChunk.
inline constexpr std::size_t kMaxWritevIovecs = 64;
inline constexpr std::size_t kMaxWritevBytes = 256u << 10;
inline constexpr std::size_t kReadChunk = 256u << 10;

/// One reassembled wire frame.
struct Frame {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::vector<std::uint8_t> bytes;  ///< encode_message payload
};

/// Zero-copy view of a reassembled frame: `data` points into the
/// reassembler's buffer and is valid only until the next feed()/next*()
/// call. The backend's inbound path injects straight from this view.
struct FrameView {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

/// Appends [len][from][to][msg bytes] to out (len covers from+to+msg).
void append_frame(std::vector<std::uint8_t>& out, NodeId from, NodeId to,
                  const std::uint8_t* msg, std::size_t n);

/// Incremental frame parser: feed() arbitrary byte chunks (any split — one
/// byte at a time is fine), next() yields complete frames. Consumed bytes
/// are compacted lazily so a slow trickle does not shift the buffer per
/// byte. Returns false from feed() on a protocol error (frame longer than
/// kMaxFrame or shorter than its own header), after which the stream is
/// unusable.
///
/// The pump's zero-copy inbound path skips feed()'s memcpy entirely:
/// reserve(n) hands out a writable window at the tail of the internal
/// buffer (compacting/growing as needed) for recv() to fill, and commit(m)
/// publishes the m bytes actually read. feed() is reserve+memcpy+commit.
class FrameReassembler {
 public:
  bool feed(const std::uint8_t* p, std::size_t n);
  std::uint8_t* reserve(std::size_t n);  ///< writable tail window of >= n bytes
  void commit(std::size_t n) { len_ += n; }
  bool ok() const { return !bad_; }  ///< false once the stream went corrupt
  bool next(Frame& out);       ///< copying variant (tests, tools)
  bool next_view(FrameView& out);  ///< zero-copy variant (the pump's hot path)
  std::size_t buffered() const { return len_ - off_; }
  void reset() {
    len_ = 0;
    off_ = 0;
    bad_ = false;
  }

 private:
  std::vector<std::uint8_t> buf_;  ///< capacity storage; valid bytes = [off_, len_)
  std::size_t len_ = 0;
  std::size_t off_ = 0;
  bool bad_ = false;
};

/// Scatter-gather cursor over a queue of whole-frame buffers: build() fills
/// an iovec chain (capped by count and bytes) starting wherever the last
/// short write stopped, advance(n) consumes n written bytes — possibly
/// mid-frame, mid-iovec — and done() says the queue drained. This is the
/// resumable core of the pump's batched write path, kept free of fd/state
/// so the torture test can drive it over a socketpair directly.
class FrameQueueCursor {
 public:
  /// Fills up to max_iov entries covering at most max_bytes unwritten bytes;
  /// returns the number of entries filled (0 = nothing left).
  std::size_t build(const std::vector<std::vector<std::uint8_t>>& frames,
                    struct iovec* iov, std::size_t max_iov,
                    std::size_t max_bytes) const;
  void advance(const std::vector<std::vector<std::uint8_t>>& frames, std::size_t n);
  bool done(const std::vector<std::vector<std::uint8_t>>& frames) const {
    return frame_ >= frames.size();
  }
  std::size_t frame_index() const { return frame_; }
  std::size_t byte_offset() const { return off_; }
  void reset() {
    frame_ = 0;
    off_ = 0;
  }

 private:
  std::size_t frame_ = 0;  ///< first frame with unwritten bytes
  std::size_t off_ = 0;    ///< written prefix of frames[frame_]
};

}  // namespace sockdetail

class SocketBackend final : public Backend, public RemoteRouter {
 public:
  struct Options {
    std::uint32_t rank = 0;
    std::uint32_t nprocs = 1;
    /// Rank r binds hosts[r] and dials peers at their listed endpoints;
    /// exactly nprocs entries. There is no port arithmetic at this layer.
    std::vector<Endpoint> hosts;
    std::uint32_t workers = 1;  ///< worker threads for the LOCAL actor set
    std::uint64_t seed = 1;
    std::uint64_t connect_timeout_ms = 15'000;
    /// Must match across the whole mesh; hellos carrying a different token
    /// are rejected (a concurrent run sharing the port range, not a peer).
    std::uint64_t mesh_token = 0;
    /// This rank's incarnation epoch (0 = initial spawn); see SocketConfig.
    std::uint32_t epoch = 0;
    /// Per-peer outbound ring budget in bytes (> 0); see
    /// SocketConfig::outbound_budget.
    std::uint64_t outbound_budget = 4u << 20;
  };

  explicit SocketBackend(Options opt);
  ~SocketBackend() override;

  // --- Backend ---
  Kind kind() const override { return Kind::kSockets; }
  Executor& exec() override { return tb_.exec(); }
  Transport& transport() override { return tb_.transport(); }
  Rng& rng() override { return tb_.rng(); }
  NodeId add_node(Actor* actor, DcId dc, ServiceFn service,
                  NodeId colocate_with = kInvalidNode) override;
  void run_for(std::uint64_t us) override;
  void stop() override;
  std::uint64_t events_executed() const override { return tb_.events_executed(); }
  bool local(NodeId n) const override { return is_local(n); }

  // --- RemoteRouter ---
  bool is_local(NodeId n) const override {
    return owner_of(node_dc_[n]) == opt_.rank;
  }
  bool forward(NodeId from, NodeId to, const std::vector<std::uint8_t>& bytes) override;

  /// Binds the listen port, establishes the full peer mesh (dial ranks
  /// below ours, accept ranks above; blocks until complete or
  /// connect_timeout_ms, then aborts) and starts the I/O pump + worker
  /// threads. run_for() calls it; idempotent.
  void start();

  std::uint32_t owner_of(DcId dc) const { return dc % opt_.nprocs; }
  std::uint32_t rank() const { return opt_.rank; }
  std::uint32_t nprocs() const { return opt_.nprocs; }
  std::uint32_t epoch() const { return opt_.epoch; }
  SocketStats stats() const;

  /// Fired (from the pump thread, or from start() while it builds the mesh)
  /// whenever a peer rank's known epoch INCREASES — i.e. that rank was
  /// respawned. Install before start(); the deployment layer uses it to
  /// reset reliable channels and fence lost coordinators.
  using EpochListener = std::function<void(std::uint32_t rank, std::uint32_t epoch)>;
  void set_epoch_listener(EpochListener fn) { epoch_listener_ = std::move(fn); }
  /// Highest epoch observed (via hello or beacon) for `peer_rank`.
  std::uint32_t peer_epoch(std::uint32_t peer_rank) const {
    return peer_epochs_[peer_rank].load(std::memory_order_acquire);
  }

  /// Fired (pump thread or mesh setup) whenever a peer rank's advertised
  /// membership view id INCREASES. The deployment layer installs the view
  /// locally, so a view change scheduled on one rank reaches the whole mesh
  /// within a beacon period. Install before start().
  using ViewListener = std::function<void(std::uint32_t rank, std::uint32_t view)>;
  void set_view_listener(ViewListener fn) { view_listener_ = std::move(fn); }
  /// Starts advertising membership view `v` in this rank's hellos and
  /// beacons (monotone max) and pushes an immediate beacon to every live
  /// peer rather than waiting out the beacon period.
  void advertise_view(std::uint32_t v);
  /// Highest view id observed (via hello or beacon) from `peer_rank`.
  std::uint32_t peer_view(std::uint32_t peer_rank) const {
    return peer_views_[peer_rank].load(std::memory_order_acquire);
  }

  /// Test hook: shuts down the TCP connection to `peer_rank` (both
  /// directions), as if the link died. The pump notices EOF; the original
  /// dialer then redials, and the reliable layer's retransmission + seq
  /// dedup must recover everything that was in flight.
  void debug_kill_connection(std::uint32_t peer_rank);

  /// Test hook: while set, the pump neither reads from nor writes to
  /// `peer_rank`'s connection — as if the remote kernel stopped draining
  /// its receive buffer. The link stays alive, so forward() keeps queueing
  /// until the outbound budget refuses frames and senders park
  /// (backpressure). Clearing it lets the stalled bytes flow again.
  void debug_stall_peer(std::uint32_t peer_rank, bool stalled);

  /// Test hook: bytes currently queued (unwritten) toward `peer_rank` —
  /// the quantity outbound_budget bounds.
  std::uint64_t debug_outbound_queued(std::uint32_t peer_rank) const;

 private:
  struct Peer {
    int fd = -1;
    bool alive = false;
    bool we_dial = false;  ///< we originated the connection (and redial it)
    // Redial schedule (pump thread only): capped exponential backoff with
    // seed-deterministic jitter, reset per dead episode. After the retry cap
    // the episode gives up — a respawned peer revives it by dialing us.
    std::uint64_t next_redial_us = 0;
    std::uint64_t redial_backoff_us = 0;
    std::uint32_t redial_tries = 0;
    bool redial_gave_up = false;
    sockdetail::FrameReassembler in;
    // Outbound ring (DESIGN §12): workers append whole-frame buffers to
    // `out` under mu, recycling from `spare`; the pump SWAPS the ring for
    // its private `drain` list and flushes iovec chains with no lock held,
    // so a slow syscall burst never stalls a forwarding worker. Short
    // writes resume at `dcur`; order holds because drain always empties
    // before the next swap. `queued` tracks every unwritten byte
    // (out + drain) — forward()'s budget check and the pump's
    // "anything pending?" test read it lock-free.
    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> out;    ///< producers, under mu
    std::vector<std::vector<std::uint8_t>> spare;  ///< recycled buffers, under mu
    std::vector<std::vector<std::uint8_t>> drain;  ///< pump thread only
    sockdetail::FrameQueueCursor dcur;             ///< pump thread only
    std::atomic<std::uint64_t> queued{0};
    std::atomic<bool> stalled{false};  ///< debug_stall_peer
  };

  void io_main();
  /// Periodic pump work, run once per poll round: redial schedule and
  /// epoch beacons.
  void periodic(std::uint64_t now_us);
  void handle_readable(Peer& p);
  void handle_writable(Peer& p);
  /// Runs the reassembler over freshly-committed inbound bytes: beacons,
  /// validation, mailbox injection. Returns false when the stream went
  /// corrupt (caller must mark_dead).
  bool process_inbound(Peer& p, std::size_t bytes_read);
  /// Swaps out→drain when drain is empty (recycling spent buffers into
  /// spare); returns true when drain has unwritten bytes afterwards.
  bool refill_drain(Peer& p);
  bool out_pending(Peer& p) const {
    return p.queued.load(std::memory_order_relaxed) != 0;
  }
  void mark_dead(Peer& p);
  void mark_dead_locked(Peer& p);  ///< caller holds p.mu
  bool dial_peer(std::uint32_t r, std::uint64_t deadline_ms);
  void accept_pending();
  void wake();
  /// Queues an epoch beacon ([rank][epoch][view] of SELF) on `p` (locks p.mu).
  void queue_beacon(Peer& p);
  /// Records `e` for `rank`; fires the listener on an increase. Returns
  /// false when `e` is OLDER than the known epoch — the caller must fence.
  bool note_epoch(std::uint32_t rank, std::uint32_t e);
  /// Records view `v` for `rank`; fires the view listener on an increase.
  /// Views only ever grow — an older advertised view is simply stale news
  /// (the peer will catch up from OUR beacons), never a fencing offense.
  void note_view(std::uint32_t rank, std::uint32_t v);

  Options opt_;
  ThreadBackend tb_;
  std::vector<DcId> node_dc_;  ///< appended BEFORE tb_.add_node (see .cc)
  std::vector<std::unique_ptr<Peer>> peers_;  ///< index = rank; [rank()] unused
  /// Accepted connections whose hello has not fully arrived yet.
  struct PendingAccept {
    int fd = -1;
    std::uint8_t hello[sockdetail::kHelloSize];
    std::size_t got = 0;
  };
  std::vector<PendingAccept> pending_;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  /// True between a wake-pipe write and the pump draining it: senders skip
  /// the syscall (and can't fill the pipe) while a wake is already armed.
  std::atomic<bool> wake_armed_{false};
  std::thread io_thread_;
  std::atomic<bool> io_running_{false};
  std::atomic<bool> flush_and_exit_{false};
  bool started_ = false;
  bool stopped_ = false;

  struct AtomicStats {
    std::atomic<std::uint64_t> frames_out{0}, frames_in{0}, bytes_out{0}, bytes_in{0},
        partial_reads{0}, short_writes{0}, reconnects{0}, dropped_dead{0},
        redial_attempts{0}, redial_giveups{0}, fenced_stale_epoch{0},
        malformed_frames{0}, read_syscalls{0}, write_syscalls{0}, flushes{0};
  };
  AtomicStats stats_;

  /// Highest epoch seen per peer rank (hello or beacon); [rank()] unused.
  std::unique_ptr<std::atomic<std::uint32_t>[]> peer_epochs_;
  EpochListener epoch_listener_;
  /// Highest membership view id each peer rank has advertised; [rank()]
  /// holds OUR advertised view (what hellos and beacons carry).
  std::unique_ptr<std::atomic<std::uint32_t>[]> peer_views_;
  ViewListener view_listener_;
  std::uint64_t next_beacon_us_ = 0;  ///< pump thread only
};

}  // namespace paris::runtime
