#pragma once
// Protocol configuration and the CPU cost model.
//
// The cost model is the calibration layer between the simulator and the
// paper's c5.xlarge testbed: each message type charges the receiving server
// a CPU service time, and servers process messages serially. Absolute
// numbers are not meant to match the paper; the knees, crossovers and ratios
// of the evaluation figures come out of this model (DESIGN.md §6).

#include <cstdint>

#include "sim/time.h"
#include "wire/messages.h"

namespace paris::proto {

struct CostModel {
  // Coordinator-side message handling.
  sim::SimTime start_us = 4;
  sim::SimTime client_read_base_us = 6;
  sim::SimTime client_read_per_key_us = 1;
  sim::SimTime slice_resp_per_item_us = 1;
  sim::SimTime client_commit_base_us = 8;
  sim::SimTime client_commit_per_key_us = 1;
  sim::SimTime prepare_resp_us = 3;
  sim::SimTime tx_end_us = 1;

  // Cohort-side.
  sim::SimTime read_slice_base_us = 10;
  sim::SimTime read_slice_per_key_us = 4;
  sim::SimTime prepare_base_us = 15;
  sim::SimTime prepare_per_key_us = 2;
  sim::SimTime commit2pc_us = 5;

  // Replication & stabilization.
  sim::SimTime replicate_base_us = 3;
  sim::SimTime replicate_per_tx_us = 2;
  sim::SimTime replicate_per_write_us = 2;
  sim::SimTime heartbeat_us = 1;
  sim::SimTime gossip_us = 2;

  // Background work charged by timers.
  sim::SimTime apply_tick_us = 2;
  sim::SimTime apply_per_write_us = 2;

  // BPR-only: cost of parking and waking a blocked read. The paper
  // attributes BPR's throughput loss to exactly this block/unblock overhead
  // plus the extra threads needed to cover blocked time (§V-B).
  sim::SimTime block_enqueue_us = 2;
  sim::SimTime unblock_us = 2;

  /// CPU cost of processing message m at a server.
  sim::SimTime service_us(const wire::Message& m) const;
};

struct ProtocolConfig {
  sim::SimTime delta_r_us = 1000;       ///< apply/replicate cycle (Alg. 4)
  sim::SimTime delta_g_us = 5000;       ///< leaf gossip round period (paper: 5ms)
  sim::SimTime gc_interval_us = 50'000; ///< storage GC cadence
  std::uint32_t tree_fanout = 2;        ///< stabilization tree arity
  std::int64_t ntp_error_us = 500;      ///< max physical clock offset
  double drift_ppm = 50;                ///< max physical clock drift
  /// BPR has no UST to bound active snapshots, so its GC keeps a fixed
  /// retention window behind the locally-installed snapshot.
  sim::SimTime bpr_gc_retention_us = 2'000'000;
  /// Coordinator contexts of transactions that never finished (crashed
  /// clients) are reaped in the background after this timeout (§III-C
  /// "client failures are transparent to the system").
  sim::SimTime tx_context_timeout_us = 10'000'000;
};

}  // namespace paris::proto
