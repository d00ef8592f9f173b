#include "runtime/thread_runtime.h"

#include <algorithm>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/assert.h"

namespace paris::runtime {

namespace {
constexpr std::uint64_t kNoDeadline = ~0ull;
/// The Worker whose loop runs on this thread (null on the main thread and
/// on the pump thread) — lets enqueue_message tell owner-thread sends,
/// which may touch the worker's parked queue directly, from foreign-thread
/// sends, which must go through the mailbox.
thread_local const void* t_worker = nullptr;
/// How soon a worker with parked (backpressured) envelopes re-tries the
/// router; the pump drains rings continuously, so this is the worst-case
/// added latency per refused batch, not a rate limit.
constexpr std::uint64_t kParkRetryUs = 200;
}

ThreadBackend::ThreadBackend(Options opt)
    : rng_(opt.seed), epoch_(std::chrono::steady_clock::now()) {
  const std::uint32_t w = opt.workers == 0 ? 1 : opt.workers;
  workers_.reserve(w);
  for (std::uint32_t i = 0; i < w; ++i) workers_.push_back(std::make_unique<Worker>());
}

ThreadBackend::~ThreadBackend() { stop(); }

std::uint64_t ThreadBackend::now_us() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

NodeId ThreadBackend::add_node(Actor* actor, DcId dc, ServiceFn /*service*/,
                               NodeId colocate_with) {
  PARIS_CHECK(actor != nullptr);
  PARIS_CHECK_MSG(!started_, "add_node after the thread backend started");
  std::uint32_t worker;
  if (colocate_with != kInvalidNode) {
    PARIS_DCHECK(colocate_with < nodes_.size());
    worker = nodes_[colocate_with].worker;
  } else if (router_ != nullptr &&
             !router_->is_local(static_cast<NodeId>(nodes_.size()))) {
    // Remote nodes (the socket backend records their ownership before
    // calling here, so the router can already classify the id being
    // assigned) must not consume round-robin slots: only nodes that will
    // actually execute locally spread across the workers.
    worker = 0;
  } else {
    worker = next_anchor_++ % static_cast<std::uint32_t>(workers_.size());
  }
  nodes_.push_back(Node{actor, dc, worker, colocate_with});
  return static_cast<NodeId>(nodes_.size() - 1);
}

// ---------------------------------------------------------------------------
// Mailbox.
// ---------------------------------------------------------------------------

ThreadBackend::Envelope ThreadBackend::take_envelope(Worker& w) {
  std::lock_guard<std::mutex> lk(w.mu);
  if (w.free.empty()) return Envelope{};
  Envelope env = std::move(w.free.back());
  w.free.pop_back();
  return env;
}

void ThreadBackend::enqueue(Worker& w, Envelope env) {
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.inbox.push_back(std::move(env));
  }
  w.cv.notify_one();
}

void ThreadBackend::enqueue_message(NodeId from, NodeId to, const wire::Message& msg,
                                    std::uint64_t deliver_at_us) {
  if (router_ != nullptr && !router_->is_local(to)) {
    if (deliver_at_us == 0) {
      // Immediate remote send: encode into a thread-local scratch buffer
      // (keeps its capacity, so the remote fast path allocates nothing in
      // steady state) and hand it straight to the router. The copy into an
      // envelope happens only on the slow path: a refusal (destination ring
      // at its byte budget), or earlier envelopes to this destination
      // already parked — bypassing them would break per-channel FIFO.
      thread_local std::vector<std::uint8_t> scratch;
      scratch.clear();
      wire::encode_message(msg, scratch);
      bytes_sent_.fetch_add(scratch.size(), std::memory_order_relaxed);
      Worker& sw = *workers_[nodes_[from].worker];
      // The parked queue is owner-only state. A send from a foreign thread
      // (tests and setup helpers; protocol sends always run on the from-
      // node's worker) routes through sw's mailbox instead, and deliver()
      // forwards or parks it on the owning thread.
      if (started_ && t_worker != &sw) {
        Envelope env = take_envelope(sw);
        env.from = from;
        env.to = to;
        env.deliver_at_us = 0;
        env.remote = true;
        env.bytes.assign(scratch.begin(), scratch.end());
        enqueue(sw, std::move(env));
        return;
      }
      if (sw.parked_dst.find(to) == sw.parked_dst.end() &&
          router_->forward(from, to, scratch)) {
        return;
      }
      Envelope env = take_envelope(sw);
      env.from = from;
      env.to = to;
      env.deliver_at_us = 0;
      env.remote = true;
      env.bytes.assign(scratch.begin(), scratch.end());
      park_remote(sw, std::move(env));
      return;
    }
    // Timed remote send (latency decorators model the one-way WAN delay on
    // the SENDER's clock): park the encoded frame at the sender's own
    // worker until due, then deliver() forwards it to the router. The
    // per-channel clamp already ran in send_at, so wire order per channel
    // still matches deadline order.
    Worker& sw = *workers_[nodes_[from].worker];
    Envelope env = take_envelope(sw);
    env.from = from;
    env.to = to;
    env.deliver_at_us = deliver_at_us;
    env.remote = true;
    PARIS_DCHECK(env.bytes.empty());
    wire::encode_message(msg, env.bytes);
    bytes_sent_.fetch_add(env.bytes.size(), std::memory_order_relaxed);
    enqueue(sw, std::move(env));
    return;
  }
  // Encode on the sending thread, directly into a recycled envelope whose
  // byte buffer keeps its grown capacity; the receiver decodes into its
  // own pool, so messages and pools never cross threads.
  Worker& w = *workers_[nodes_[to].worker];
  Envelope env = take_envelope(w);
  env.from = from;
  env.to = to;
  env.deliver_at_us = deliver_at_us;
  PARIS_DCHECK(env.bytes.empty());  // consumer clears before recycling
  wire::encode_message(msg, env.bytes);
  bytes_sent_.fetch_add(env.bytes.size(), std::memory_order_relaxed);
  enqueue(w, std::move(env));
}

void ThreadBackend::send(NodeId from, NodeId to, wire::MessagePtr msg) {
  PARIS_DCHECK(from < nodes_.size() && to < nodes_.size());
  PARIS_DCHECK(msg != nullptr);
  enqueue_message(from, to, *msg, /*deliver_at_us=*/0);
}

void ThreadBackend::send_at(NodeId from, NodeId to, wire::MessagePtr msg,
                            std::uint64_t at_us) {
  PARIS_DCHECK(from < nodes_.size() && to < nodes_.size());
  PARIS_DCHECK(msg != nullptr);
  // Clamp the channel's deliver-at to be strictly increasing (the sender's
  // worker owns this channel's clamp state: sends run on the from-node's
  // worker, or on the main thread before start). Jitter or chaos stalls can
  // therefore reorder deliveries ACROSS channels but never within one —
  // exactly the paper's TCP FIFO assumption.
  Worker& sw = *workers_[nodes_[from].worker];
  std::uint64_t& last = sw.last_arrival[channel_key(from, to)];
  if (at_us <= last) at_us = last + 1;
  last = at_us;
  enqueue_message(from, to, *msg, at_us);
}

void ThreadBackend::inject_encoded(NodeId from, NodeId to, const std::uint8_t* data,
                                   std::size_t n) {
  PARIS_DCHECK(from < nodes_.size() && to < nodes_.size());
  PARIS_DCHECK(router_ == nullptr || router_->is_local(to));
  Worker& w = *workers_[nodes_[to].worker];
  Envelope env = take_envelope(w);
  env.from = from;
  env.to = to;
  env.deliver_at_us = 0;
  env.bytes.assign(data, data + n);
  enqueue(w, std::move(env));
}

void ThreadBackend::defer(NodeId actor, std::function<void()> fn) {
  defer_at(actor, /*at_us=*/0, std::move(fn));
}

void ThreadBackend::defer_at(NodeId actor, std::uint64_t at_us, std::function<void()> fn) {
  PARIS_DCHECK(actor < nodes_.size());
  PARIS_CHECK_MSG(local(actor), "defer/post to a node hosted by another process");
  Worker& w = *workers_[nodes_[actor].worker];
  Envelope env = take_envelope(w);
  env.from = actor;
  env.to = actor;
  // 0 (or any deadline already past at the drain) runs with the batch; a
  // future one parks in the held heap like a timed message. Tasks are not
  // channel-ordered against messages, so no FIFO clamp applies.
  env.deliver_at_us = at_us;
  env.task = std::move(fn);
  enqueue(w, std::move(env));
}

wire::MessagePool& ThreadBackend::msg_pool(NodeId self) {
  PARIS_DCHECK(self < nodes_.size());
  return workers_[nodes_[self].worker]->pool;
}

// ---------------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------------

std::uint64_t ThreadBackend::start_periodic(NodeId actor, std::uint64_t period_us,
                                            std::uint64_t phase_us,
                                            std::function<void()> fn) {
  PARIS_DCHECK(actor < nodes_.size());
  PARIS_CHECK(period_us > 0);
  // Timers of remote nodes never fire here: their process runs them. Id 0
  // is the "no timer" handle — cancel_periodic(0) is a harmless miss.
  if (!local(actor)) return 0;
  Worker& w = *workers_[nodes_[actor].worker];
  auto rec = std::make_shared<TimerRec>();
  rec->period_us = period_us;
  rec->fn = std::move(fn);
  const std::uint64_t id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(timer_mu_);
    timer_recs_.emplace(id, rec);
  }
  // Heap access is single-threaded: before start() only the main thread
  // touches it; afterwards only the owning worker may create timers.
  // (t_worker, not w.thread.get_id(): start() assigns w.thread after the
  // worker is already running, so reading it from the worker would race.)
  PARIS_CHECK_MSG(!started_ || t_worker == &w, "runtime timer creation from a foreign thread");
  w.timers.push(TimerEntry{now_us() + phase_us, std::move(rec)});
  return id;
}

void ThreadBackend::cancel_periodic(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(timer_mu_);
  const auto it = timer_recs_.find(id);
  if (it == timer_recs_.end()) return;
  it->second->cancelled.store(true, std::memory_order_relaxed);
  timer_recs_.erase(it);
}

// ---------------------------------------------------------------------------
// Worker loop / lifecycle.
// ---------------------------------------------------------------------------

void ThreadBackend::deliver(Worker& w, Envelope& env) {
  if (env.task) {
    env.task();
    env.task = nullptr;
  } else if (env.remote) {
    // A parked timed send to a node another process hosts, now due: hand
    // the already-encoded bytes across the process boundary. FIFO per
    // destination: if earlier envelopes to this destination are parked, or
    // the router refuses (ring at budget), park this one behind them and
    // leave a husk so the caller skips the recycle.
    if (w.parked_dst.find(env.to) != w.parked_dst.end() ||
        !router_->forward(env.from, env.to, env.bytes)) {
      park_remote(w, std::move(env));
      env.to = kInvalidNode;
      env.bytes.clear();
      return;  // delivery happens when the ring drains, not now
    }
    env.remote = false;
  } else {
    wire::Decoder dec(env.bytes);
    const wire::MessagePtr msg = wire::decode_message_pooled(dec, w.pool);
    PARIS_DCHECK(dec.done());
    nodes_[env.to].actor->on_message(env.from, *msg);
  }
  env.bytes.clear();  // keep capacity for reuse
  env.deliver_at_us = 0;
  w.events.fetch_add(1, std::memory_order_relaxed);
}

/// Delivers every parked timed envelope that is due, staging it for
/// recycling. Per-channel order is safe: the sender clamps deliver-at
/// strictly increasing per channel, so a channel's next envelope is never
/// due before its predecessor.
void ThreadBackend::release_due_held(Worker& w, std::uint64_t now) {
  while (!w.held.empty() && w.held.front().deliver_at_us <= now) {
    std::pop_heap(w.held.begin(), w.held.end(), LaterDelivery{});
    Envelope env = std::move(w.held.back());
    w.held.pop_back();
    deliver(w, env);
    // A husk (to == kInvalidNode) means deliver() parked the envelope for a
    // backpressure retry; only real envelopes recycle.
    if (env.to != kInvalidNode) w.done.push_back(std::move(env));
  }
}

void ThreadBackend::park_remote(Worker& w, Envelope&& env) {
  // Per-worker bound on parked bytes: backpressure must cap memory, not
  // relocate the blowup. The reliable layer's in-flight cap keeps well
  // under this in practice; shedding beyond it is honest loss that
  // retransmission re-covers.
  constexpr std::size_t kParkedBytesCap = 8u << 20;
  router_parks_.fetch_add(1, std::memory_order_relaxed);
  if (w.parked_bytes + env.bytes.size() > kParkedBytesCap) {
    router_park_drops_.fetch_add(1, std::memory_order_relaxed);
    env.bytes.clear();
    env.remote = false;
    env.deliver_at_us = 0;
    w.done.push_back(std::move(env));
    return;
  }
  w.parked_bytes += env.bytes.size();
  ++w.parked_dst[env.to];
  w.parked.push_back(std::move(env));
}

void ThreadBackend::flush_parked(Worker& w) {
  if (w.parked.empty()) return;
  // One rotation over the queue: forward each envelope unless its
  // destination already refused this pass. Same-destination order is
  // preserved (refusal parks the whole run again); other destinations
  // proceed independently, so one stalled peer never blocks the rest.
  std::vector<NodeId> refused;
  const std::size_t n = w.parked.size();
  for (std::size_t i = 0; i < n; ++i) {
    Envelope env = std::move(w.parked.front());
    w.parked.pop_front();
    const bool blocked =
        std::find(refused.begin(), refused.end(), env.to) != refused.end();
    if (!blocked && router_->forward(env.from, env.to, env.bytes)) {
      w.parked_bytes -= env.bytes.size();
      const auto it = w.parked_dst.find(env.to);
      if (--it->second == 0) w.parked_dst.erase(it);
      env.bytes.clear();
      env.remote = false;
      env.deliver_at_us = 0;
      w.events.fetch_add(1, std::memory_order_relaxed);
      w.done.push_back(std::move(env));
      continue;
    }
    if (!blocked) refused.push_back(env.to);
    w.parked.push_back(std::move(env));
  }
}

void ThreadBackend::worker_main(Worker& w) {
  t_worker = &w;
#ifdef __linux__
  // Timed envelopes, timed tasks and timers all wake this thread through
  // wait_until; the default 50 µs timer slack would let each wake land up to
  // 50 µs late, which open-loop arrivals would charge to latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  while (running_.load(std::memory_order_acquire)) {
    // Drain the mailbox in one batched swap.
    w.batch.clear();
    {
      std::unique_lock<std::mutex> lk(w.mu);
      if (w.inbox.empty()) {
        std::uint64_t next = w.timers.empty() ? kNoDeadline : w.timers.top().deadline_us;
        if (!w.held.empty()) next = std::min(next, w.held.front().deliver_at_us);
        // Backpressure retry cadence: while envelopes are parked, poll the
        // router again soon instead of sleeping on the cv — the peer's ring
        // drains from the pump thread, which has no handle to wake us.
        if (!w.parked.empty()) next = std::min(next, now_us() + kParkRetryUs);
        if (next == kNoDeadline) {
          w.cv.wait(lk, [&] {
            return !w.inbox.empty() || !running_.load(std::memory_order_acquire);
          });
        } else if (next > now_us()) {
          w.cv.wait_until(lk, epoch_ + std::chrono::microseconds(next), [&] {
            return !w.inbox.empty() || !running_.load(std::memory_order_acquire);
          });
        }
      }
      std::swap(w.inbox, w.batch);
    }

    // Backpressured envelopes retry before anything newer delivers.
    flush_parked(w);

    // Parked timed envelopes that came due arrived (on their channels)
    // before anything in this batch: release them first. ONE time snapshot
    // covers the release and the whole batch — re-reading the clock per
    // envelope would open a FIFO hole: a channel's earlier envelope parked
    // at `now`, then the clock advancing past its successor's deadline
    // mid-batch would deliver the successor inline while the predecessor
    // still sits in the heap. With a single snapshot, any envelope newer
    // than a parked same-channel predecessor is parked too (deadlines are
    // strictly increasing per channel) and released in heap order.
    const std::uint64_t batch_now = now_us();
    release_due_held(w, batch_now);
    for (Envelope& env : w.batch) {
      if (env.deliver_at_us > batch_now) {
        w.held.push_back(std::move(env));
        std::push_heap(w.held.begin(), w.held.end(), LaterDelivery{});
        env.to = kInvalidNode;  // moved-from slot: skip the recycle below
        continue;
      }
      deliver(w, env);
    }
    for (Envelope& env : w.batch) {
      if (env.to != kInvalidNode) w.done.push_back(std::move(env));
    }
    w.batch.clear();
    release_due_held(w, now_us());
    if (!w.done.empty()) {
      std::lock_guard<std::mutex> lk(w.mu);
      for (Envelope& env : w.done) w.free.push_back(std::move(env));
      w.done.clear();
    }

    // Fire due timers; a periodic entry reschedules itself.
    while (!w.timers.empty() && w.timers.top().deadline_us <= now_us()) {
      TimerEntry e = w.timers.top();
      w.timers.pop();
      if (e.rec->cancelled.load(std::memory_order_relaxed)) continue;
      e.rec->fn();
      w.events.fetch_add(1, std::memory_order_relaxed);
      e.deadline_us += e.rec->period_us;
      w.timers.push(std::move(e));
    }
  }
}

void ThreadBackend::start() {
  PARIS_CHECK_MSG(!stopped_, "thread backend restarted after stop(); runs are one-shot");
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    w->thread = std::thread([this, wp] { worker_main(*wp); });
  }
}

void ThreadBackend::run_for(std::uint64_t us) {
  start();
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  std::this_thread::sleep_until(until);
}

void ThreadBackend::stop() {
  stopped_ = true;
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->mu);  // pairs with the cv predicate
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

std::uint64_t ThreadBackend::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->events.load(std::memory_order_relaxed);
  return n;
}

}  // namespace paris::runtime
