#pragma once
// Open-loop workload engine (DESIGN §14). Unlike the closed-loop Session
// (driver.h), which only issues a request after the previous one finished,
// the open-loop engine PRE-DRAWS a deterministic arrival schedule — a
// Poisson process at a target rate (optionally shaped by a diurnal or
// flash-crowd profile) or a replayed trace — and releases arrivals at their
// scheduled times regardless of how the system is keeping up: one one-shot
// executor task (Executor::defer_at) per release, each arming the next at
// the following arrival's instant, with no polling between. Arrivals that
// find every client busy are never dropped: they queue in a FIFO backlog and
// their wait is charged to intended latency (stats/latency_recorder.h), the
// coordinated-omission-safe convention.
//
// One engine exists per (DC, partition replicated there); each multiplexes
// `sessions` logical client sessions onto a small pool of protocol clients.
// The schedule is a pure function of (topology, workload spec, open-loop
// spec, engine index, seed) — byte-identical across the sim, thread and
// socket runtimes — and each engine folds its schedule into an FNV-1a
// digest so cross-runtime equality is testable end to end.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "proto/client.h"
#include "runtime/executor.h"
#include "stats/latency_recorder.h"
#include "workload/generator.h"

namespace paris::workload {

enum class RateProfile : std::uint8_t {
  kConstant = 0,  ///< flat arrival rate
  kDiurnal = 1,   ///< rate * (1 + amp * sin(2*pi*t / period)) — day/night ramp
  kFlash = 2,     ///< rate * flash_mult inside [flash_at, flash_at + flash_len)
};

const char* rate_profile_name(RateProfile p);
/// Parses "constant" | "diurnal" | "flash"; false on junk.
bool parse_rate_profile(const char* text, RateProfile* out);

struct OpenLoopSpec {
  bool enabled = false;
  /// Total target arrival rate (tx/s) across the WHOLE cluster; each engine
  /// runs an independent Poisson process at rate / num_engines.
  double arrival_rate = 2000;
  /// Logical sessions multiplexed per engine (arrival i belongs to session
  /// i % sessions); the pool of protocol clients underneath is
  /// threads_per_process wide.
  std::uint32_t sessions = 1024;
  RateProfile profile = RateProfile::kConstant;
  double diurnal_amp = 0.5;                      ///< peak-to-mean swing
  std::uint64_t diurnal_period_us = 1'000'000;   ///< one "day"
  double flash_mult = 4.0;                       ///< crowd size multiplier
  std::uint64_t flash_at_us = 300'000;           ///< offset from run start
  std::uint64_t flash_len_us = 200'000;
  /// Non-empty: replay this trace instead of drawing a Poisson process.
  std::string trace_path;
};

/// One trace line: "offset_us [key_rank]". Lines are dealt round-robin to
/// engines (line i -> engine i % num_engines); a missing key_rank lets the
/// engine's generator draw the transaction shape instead.
struct TraceEntry {
  std::uint64_t offset_us = 0;
  bool has_key = false;
  std::uint64_t key_rank = 0;
};

/// Loads a trace file ('#' comments and blank lines skipped; entries must be
/// time-sorted). Returns false with *err set on parse failure.
bool load_trace(const std::string& path, std::vector<TraceEntry>* out, std::string* err);

class OpenLoopEngine {
 public:
  struct Arrival {
    std::uint64_t at_us = 0;    ///< offset from run start (t0)
    std::uint32_t session = 0;  ///< logical session id
    TxPlan plan;
  };

  /// Builds the full arrival schedule up to horizon_us at construction.
  /// engine_index / num_engines must enumerate (dc, partition) pairs in the
  /// same order in every process, or the cross-runtime digest breaks.
  OpenLoopEngine(const cluster::Topology& topo, const WorkloadSpec& w,
                 const OpenLoopSpec& ol, DcId dc, PartitionId partition,
                 std::uint32_t engine_index, std::uint32_t num_engines,
                 std::uint64_t horizon_us, std::uint64_t seed,
                 const std::vector<TraceEntry>* trace);

  /// Pool registration. All clients must share one coordinator (and thus,
  /// colocated with it, one execution context): the engine releases and
  /// completes transactions on that context without locking. Checked.
  void add_client(proto::Client* c);

  /// Restricts releases to arrivals with at_us in [from_us, until_us)
  /// (offsets from t0, like the schedule itself). A joining DC's engine
  /// starts at its join time, a leaving DC's stops at its leave time; out-of-
  /// window arrivals are neither released nor counted as scheduled. The
  /// schedule — and hence the cross-runtime digest — is unchanged. Call
  /// before start().
  void set_active_window(std::uint64_t from_us, std::uint64_t until_us) {
    active_from_us_ = from_us;
    active_until_us_ = until_us;
  }

  /// Arms the first release at its scheduled instant; t0 anchors schedule
  /// offsets to runtime time. Each release re-arms for the next arrival.
  void start(runtime::Executor& exec, std::uint64_t t0);

  /// After the run (backend stopped): counts every never-released arrival as
  /// scheduled, so the intended rate reflects the configured arrival
  /// process, not how far releases got (coordinated omission applies to
  /// bookkeeping too).
  void finalize();

  stats::LatencyRecorder& recorder() { return rec_; }
  const stats::LatencyRecorder& recorder() const { return rec_; }
  std::uint64_t digest() const { return digest_; }
  std::size_t schedule_size() const { return schedule_.size(); }
  const std::vector<Arrival>& schedule() const { return schedule_; }

 private:
  /// Skips out-of-window arrivals and schedules release() at the next
  /// in-window arrival's instant; does nothing once none is left.
  void arm();
  /// Queues every arrival now due, hands queued ones to idle clients, and
  /// re-arms for the next arrival.
  void release();
  void run_tx(std::size_t ci, std::size_t ai);
  void on_done(std::size_t ci, std::size_t ai, std::uint64_t started);

  // Immutable after construction.
  std::vector<Arrival> schedule_;
  std::uint64_t digest_ = 0;
  std::uint64_t horizon_us_ = 0;
  std::uint64_t active_from_us_ = 0;
  std::uint64_t active_until_us_ = ~0ull;

  std::vector<proto::Client*> clients_;
  runtime::Executor* exec_ = nullptr;
  std::uint64_t t0_ = 0;

  // Release/dispatch state. Releases and completions all run on the
  // clients' shared execution context (add_client), so nothing is locked.
  std::size_t next_ = 0;              ///< next schedule index to release
  std::deque<std::size_t> backlog_;   ///< released, waiting for a client
  std::vector<std::size_t> idle_;     ///< idle client pool indices
  stats::LatencyRecorder rec_;
};

}  // namespace paris::workload
