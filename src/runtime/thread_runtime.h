#pragma once
// ThreadBackend: the protocol stack on real parallel hardware.
//
//  * W worker threads; every actor is pinned to one worker (servers round-
//    robin in registration order, clients to their colocated coordinator's
//    worker), so an actor never executes concurrently with itself and actor
//    state needs no locks.
//  * One MPSC mailbox per worker (mutex + condvar, batched drain). A send
//    ENCODES the message on the sending thread and the receiving worker
//    DECODES it into its own wire::MessagePool — messages and pools never
//    cross threads, which preserves PR 1's single-threaded pool design and
//    the zero-steady-state-allocation property: envelopes and their byte
//    buffers are recycled through a per-worker free list, and decode fills
//    pooled messages whose vectors keep their grown capacity.
//  * Timers are per-worker min-heaps driven by steady_clock; a periodic
//    entry reschedules itself on fire. Cancellation flips an atomic flag
//    (lazy deletion), so TimerHandle destruction is safe from any thread,
//    including after stop().
//  * Timed delivery (send_at, used by the latency/chaos transport
//    decorators): an envelope carries a deliver-at deadline; the receiving
//    worker parks future envelopes in a per-worker min-heap and releases
//    them when due, recycling them through the same free list as immediate
//    ones. The sender clamps each channel's deadline to be strictly
//    increasing (TCP model), so timed delivery can never reorder a channel
//    no matter what deadlines a decorator asks for.
//  * One-shot timed tasks (defer_at) ride the same path: a task envelope
//    with a deliver-at deadline, parked in the receiving worker's held heap
//    until due. The mailbox is MPSC, so unlike periodic timers they may be
//    created from any thread at any time.
//  * Workers run with a 1 µs timer slack (Linux), so deadline wakes land on
//    time instead of up to the default 50 µs late.
//
// Unlike the sim backend, runs are NOT deterministic — correctness is
// validated by the exactness checker, which is order-independent.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/backend.h"
#include "wire/messages.h"

namespace paris::runtime {

/// Extension point the socket backend plugs into a ThreadBackend: nodes the
/// router reports non-local never execute here — their timers are dropped
/// and messages addressed to them are handed to forward() as encoded bytes
/// ([type][payload], the exact encode_message format) instead of being
/// enqueued into a local mailbox. forward() is called from worker threads
/// (and from the main thread before start) and must be thread-safe; the
/// byte buffer is only valid for the duration of the call.
///
/// forward() returns false to REFUSE the frame — the destination's outbound
/// ring is at its byte budget (flow control, DESIGN §12). The caller then
/// parks the envelope on the sending worker and retries shortly, preserving
/// per-destination FIFO; a refusal is backpressure, not loss. Returning
/// true means the frame was consumed (possibly by dropping it on a dead
/// link, which the reliable layer re-covers).
class RemoteRouter {
 public:
  virtual ~RemoteRouter() = default;
  virtual bool is_local(NodeId n) const = 0;
  virtual bool forward(NodeId from, NodeId to, const std::vector<std::uint8_t>& bytes) = 0;
};

class ThreadBackend final : public Backend, public Executor, public Transport {
 public:
  struct Options {
    /// Worker threads. The node count is unknown at construction, so 0
    /// falls back to a single worker here; proto::Deployment resolves its
    /// worker_threads=0 default to one-per-server *before* building the
    /// backend.
    std::uint32_t workers = 0;
    std::uint64_t seed = 1;
  };

  explicit ThreadBackend(Options opt);
  ~ThreadBackend() override;

  // --- Backend ---
  Kind kind() const override { return Kind::kThreads; }
  Executor& exec() override { return *this; }
  Transport& transport() override { return *this; }
  Rng& rng() override { return rng_; }
  NodeId add_node(Actor* actor, DcId dc, ServiceFn service,
                  NodeId colocate_with = kInvalidNode) override;
  void run_for(std::uint64_t us) override;
  void stop() override;
  std::uint64_t events_executed() const override;

  /// Spawns the worker threads (idempotent; run_for calls it). All nodes
  /// and setup-time timers must be registered before this. Aborts if the
  /// backend was already stopped — runs are one-shot.
  void start();
  bool started() const { return started_; }
  std::uint32_t num_workers() const { return static_cast<std::uint32_t>(workers_.size()); }
  std::uint32_t worker_of(NodeId n) const { return nodes_[n].worker; }

  /// Installs the remote router (socket backend). Must happen before the
  /// first add_node; null (the default) means every node is local.
  void set_router(RemoteRouter* r) {
    PARIS_CHECK_MSG(nodes_.empty(), "set_router after nodes were registered");
    router_ = r;
  }
  bool local(NodeId n) const override {
    return router_ == nullptr || router_->is_local(n);
  }

  /// Injects an already-encoded message ([type][payload]) into local node
  /// `to`'s mailbox — the socket backend's inbound path. Thread-safe (the
  /// mailbox is MPSC); `from` may be any registered node, including remote
  /// ones.
  void inject_encoded(NodeId from, NodeId to, const std::uint8_t* data, std::size_t n);

  // --- Executor ---
  std::uint64_t now_us() const override;
  void defer(NodeId actor, std::function<void()> fn) override;
  void post(NodeId actor, std::function<void()> fn) override { defer(actor, std::move(fn)); }
  void defer_at(NodeId actor, std::uint64_t at_us, std::function<void()> fn) override;
  std::uint64_t start_periodic(NodeId actor, std::uint64_t period_us, std::uint64_t phase_us,
                               std::function<void()> fn) override;
  void cancel_periodic(std::uint64_t id) override;

  // --- Transport ---
  void send(NodeId from, NodeId to, wire::MessagePtr msg) override;
  void send_at(NodeId from, NodeId to, wire::MessagePtr msg, std::uint64_t at_us) override;
  wire::MessagePool& msg_pool(NodeId self) override;
  DcId dc_of(NodeId n) const override { return nodes_[n].dc; }
  bool colocated(NodeId a, NodeId b) const override {
    return nodes_[a].anchor == b || nodes_[b].anchor == a;
  }
  bool node_paused(NodeId /*n*/) const override { return false; }
  void charge_cpu(NodeId /*n*/, std::uint64_t /*us*/) override {}
  std::uint64_t total_bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

  /// Envelopes parked because the router refused them (peer ring full) —
  /// the socket backend reports this as backpressure_stalls.
  std::uint64_t router_parks() const {
    return router_parks_.load(std::memory_order_relaxed);
  }
  /// Parked envelopes shed at the per-worker cap (reliable re-covers them).
  std::uint64_t router_park_drops() const {
    return router_park_drops_.load(std::memory_order_relaxed);
  }

 private:
  /// One mailbox entry: either an encoded message or a deferred task.
  struct Envelope {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::uint64_t deliver_at_us = 0;  ///< 0 = immediate; else park until due
    bool remote = false;              ///< forward to the router when due
    std::vector<std::uint8_t> bytes;  ///< encoded [type][payload]; empty for tasks
    std::function<void()> task;
  };
  /// Min-heap order for parked timed envelopes.
  struct LaterDelivery {
    bool operator()(const Envelope& a, const Envelope& b) const {
      return a.deliver_at_us > b.deliver_at_us;
    }
  };

  struct TimerRec {
    std::atomic<bool> cancelled{false};
    std::uint64_t period_us = 0;
    std::function<void()> fn;
  };
  struct TimerEntry {
    std::uint64_t deadline_us;
    std::shared_ptr<TimerRec> rec;
    friend bool operator>(const TimerEntry& a, const TimerEntry& b) {
      return a.deadline_us > b.deadline_us;
    }
  };

  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Envelope> inbox;    ///< guarded by mu (producers push)
    std::vector<Envelope> free;     ///< guarded by mu (recycled envelopes)
    std::vector<Envelope> batch;    ///< consumer-local drain buffer
    std::vector<Envelope> held;     ///< consumer-local heap of timed envelopes
    std::vector<Envelope> done;     ///< consumer-local recycle staging
    std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>>
        timers;  ///< owning thread only (main thread before start)
    /// Per-channel FIFO clamp for timed sends ORIGINATING at this worker's
    /// nodes: last deliver-at handed out per (from, to). Owning thread only
    /// — a node's sends always run on its own worker (or on the main thread
    /// before start), so no lock is needed.
    std::unordered_map<std::uint64_t, std::uint64_t> last_arrival;
    wire::MessagePool pool;  ///< owning thread only
    std::atomic<std::uint64_t> events{0};
    /// Router backpressure (owning thread only; main thread before start):
    /// envelopes forward() refused, waiting for the peer's outbound ring to
    /// drain. FIFO per destination — while a destination has parked
    /// envelopes, new sends to it park behind them rather than bypass.
    std::deque<Envelope> parked;
    std::unordered_map<NodeId, std::uint32_t> parked_dst;  ///< dst → count
    std::size_t parked_bytes = 0;
  };

  struct Node {
    Actor* actor = nullptr;
    DcId dc = 0;
    std::uint32_t worker = 0;
    NodeId anchor = kInvalidNode;  ///< node this one was colocated with
  };

  static std::uint64_t channel_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  void worker_main(Worker& w);
  void enqueue(Worker& w, Envelope env);
  Envelope take_envelope(Worker& w);
  void enqueue_message(NodeId from, NodeId to, const wire::Message& msg,
                       std::uint64_t deliver_at_us);
  void deliver(Worker& w, Envelope& env);
  void release_due_held(Worker& w, std::uint64_t now);
  /// Parks a refused remote envelope on `w` (bounded; sheds + counts beyond
  /// the cap) and moves `env` into the queue.
  void park_remote(Worker& w, Envelope&& env);
  /// Retries parked envelopes once, preserving per-destination FIFO: a
  /// destination that refuses again keeps its whole run parked; other
  /// destinations proceed independently (no cross-peer head-of-line).
  void flush_parked(Worker& w);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Node> nodes_;
  RemoteRouter* router_ = nullptr;  ///< non-null only under a socket backend
  std::uint32_t next_anchor_ = 0;  ///< round-robin worker for non-colocated nodes
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool stopped_ = false;  ///< stop() is terminal: no restart
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> router_parks_{0};
  std::atomic<std::uint64_t> router_park_drops_{0};

  std::mutex timer_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<TimerRec>> timer_recs_;
  std::atomic<std::uint64_t> next_timer_id_{1};
};

}  // namespace paris::runtime
