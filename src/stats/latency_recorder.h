#pragma once
// Coordinated-omission-safe latency recording (Tene's "how NOT to measure
// latency"). A closed-loop driver only issues the next request after the
// previous one finishes, so a stalled server silently *suppresses* the very
// samples that would have shown the stall: recorded percentiles stay flat
// while real users queue. The open-loop engine instead derives every
// request's latency from its SCHEDULED arrival time:
//
//   intended latency = finished - scheduled   (what a user would feel)
//   service  latency = finished - started     (what the server worked)
//
// Overdue arrivals (scheduled while all channels were busy) are never
// dropped — they queue and their wait is charged to intended latency — and
// the recorder reports both the intended and the achieved rate so saturation
// is visible instead of silently re-normalized away.

#include <cstdint>

#include "stats/histogram.h"

namespace paris::stats {

class LatencyRecorder {
 public:
  /// Measurement window [start_us, end_us); samples are windowed by FINISH
  /// time (same convention as the closed-loop Collector).
  void set_window(std::uint64_t start_us, std::uint64_t end_us) {
    win_start_ = start_us;
    win_end_ = end_us;
  }

  void record(std::uint64_t scheduled_us, std::uint64_t started_us, std::uint64_t finished_us) {
    if (finished_us < win_start_ || finished_us >= win_end_) return;
    intended_.record(finished_us - scheduled_us);
    service_.record(finished_us - started_us);
    ++completed_;
    if (started_us > scheduled_us + kOverdueGraceUs) ++overdue_;
  }

  /// Each arrival is released by a one-shot task at its scheduled instant,
  /// but on real threads that task can still start late: the worker may be
  /// busy with other actors' messages, or the OS may wake it late (tens of
  /// µs, more on a loaded host). "Overdue" only counts waits beyond this
  /// grace — i.e. arrivals that actually queued behind a busy channel or a
  /// stalled worker, not wake-up jitter.
  static constexpr std::uint64_t kOverdueGraceUs = 1000;

  /// A request whose scheduled arrival fell inside the window (counted at
  /// schedule time, NOT completion — that asymmetry is the whole point).
  void note_scheduled(std::uint64_t scheduled_us) {
    if (scheduled_us >= win_start_ && scheduled_us < win_end_) ++scheduled_;
  }
  void note_backlog(std::uint64_t depth) {
    if (depth > max_backlog_) max_backlog_ = depth;
  }

  const Histogram& intended() const { return intended_; }
  const Histogram& service() const { return service_; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t overdue() const { return overdue_; }
  std::uint64_t max_backlog() const { return max_backlog_; }

  double window_s() const {
    return win_end_ > win_start_ ? static_cast<double>(win_end_ - win_start_) / 1e6 : 0;
  }
  /// Rate the arrival process asked for inside the window.
  double intended_rate() const {
    const double w = window_s();
    return w > 0 ? static_cast<double>(scheduled_) / w : 0;
  }
  /// Rate the system actually completed.
  double achieved_rate() const {
    const double w = window_s();
    return w > 0 ? static_cast<double>(completed_) / w : 0;
  }

  /// Cross-engine / cross-process aggregation (launcher side).
  void merge(const LatencyRecorder& o) {
    intended_.merge(o.intended_);
    service_.merge(o.service_);
    scheduled_ += o.scheduled_;
    completed_ += o.completed_;
    overdue_ += o.overdue_;
    if (o.max_backlog_ > max_backlog_) max_backlog_ = o.max_backlog_;
    if (win_end_ == 0) {
      win_start_ = o.win_start_;
      win_end_ = o.win_end_;
    }
  }

 private:
  Histogram intended_;
  Histogram service_;
  std::uint64_t win_start_ = 0, win_end_ = 0;
  std::uint64_t scheduled_ = 0, completed_ = 0, overdue_ = 0, max_backlog_ = 0;
};

}  // namespace paris::stats
