#pragma once
// Executor: the scheduling surface the protocol layer programs against
// instead of sim::Simulation. Implementations: runtime::SimBackend (the
// deterministic discrete-event loop) and runtime::ThreadBackend (real
// worker threads + steady-clock timers).
//
// Every deferred task and timer is bound to an actor: the backend runs it
// on that actor's execution context, so actor state needs no locking. The
// sim backend has a single context (the event loop); the thread backend has
// one per worker.

#include <cstdint>
#include <functional>
#include <utility>

#include "common/types.h"

namespace paris::runtime {

class TimerHandle;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Monotonic time in µs: simulated time (sim) or steady-clock time since
  /// backend construction (threads).
  virtual std::uint64_t now_us() const = 0;

  /// Runs fn on `actor`'s execution context, always asynchronously — the
  /// caller continues before fn runs (sim: an event at now; threads: a
  /// mailbox task). Must be called from `actor`'s own context (or before
  /// the backend started).
  virtual void defer(NodeId actor, std::function<void()> fn) = 0;

  /// Runs fn on `actor`'s execution context from *outside* it (driver
  /// setup): inline for the sim backend, whose driving thread is the only
  /// context; a mailbox task for the thread backend.
  virtual void post(NodeId actor, std::function<void()> fn) = 0;

  /// One-shot timed task: runs fn on `actor`'s execution context once
  /// now_us() >= at_us; a deadline already past runs as soon as the context
  /// is free. Callable from any thread, before or after the backend started
  /// (sim: an event at at_us; threads: a timed mailbox task). There is no
  /// cancel: whatever fn captures must outlive the run (until stop()), and a
  /// task still pending at stop() never runs.
  virtual void defer_at(NodeId actor, std::uint64_t at_us, std::function<void()> fn) = 0;

  /// Periodic timer on `actor`'s context: first fire at now + phase, then
  /// every period. Prefer every(), which wraps the id in a RAII handle.
  virtual std::uint64_t start_periodic(NodeId actor, std::uint64_t period_us,
                                       std::uint64_t phase_us,
                                       std::function<void()> fn) = 0;
  /// Cancels a periodic timer; safe after the backend stopped and on ids
  /// already cancelled.
  virtual void cancel_periodic(std::uint64_t id) = 0;

  TimerHandle every(NodeId actor, std::uint64_t period_us, std::uint64_t phase_us,
                    std::function<void()> fn);
};

/// RAII periodic-timer handle: cancels the timer when destroyed or reset
/// (replaces sim::Simulation::PeriodicHandle at the protocol layer).
class TimerHandle {
 public:
  TimerHandle() = default;
  TimerHandle(Executor* exec, std::uint64_t id) : exec_(exec), id_(id) {}
  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;
  TimerHandle(TimerHandle&& o) noexcept : exec_(o.exec_), id_(o.id_) { o.exec_ = nullptr; }
  TimerHandle& operator=(TimerHandle&& o) noexcept {
    if (this != &o) {
      cancel();
      exec_ = o.exec_;
      id_ = o.id_;
      o.exec_ = nullptr;
    }
    return *this;
  }
  ~TimerHandle() { cancel(); }

  void cancel() {
    if (exec_ != nullptr) {
      exec_->cancel_periodic(id_);
      exec_ = nullptr;
    }
  }

 private:
  Executor* exec_ = nullptr;
  std::uint64_t id_ = 0;
};

inline TimerHandle Executor::every(NodeId actor, std::uint64_t period_us,
                                   std::uint64_t phase_us, std::function<void()> fn) {
  return TimerHandle(this, start_periodic(actor, period_us, phase_us, std::move(fn)));
}

}  // namespace paris::runtime
