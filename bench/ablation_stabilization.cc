// Ablation A1 (not in the paper): sensitivity of PaRiS to the stabilization
// round ΔG (the paper fixes it at 5 ms). Faster gossip buys
// fresher snapshots (lower update visibility latency, smaller client write
// caches) at the price of more gossip messages; throughput is expected to
// be nearly flat because gossip is tiny compared to transaction work.

#include "bench_common.h"

using namespace paris;
using namespace paris::bench;

int main() {
  print_title("Ablation A1: stabilization round ΔG",
              "PaRiS, default workload, 5 DCs, 45 partitions, R=2");

  std::printf("%-10s %10s %14s %14s %14s %12s\n", "ΔG(ms)", "ktx/s", "vis_p50_ms",
              "vis_p99_ms", "gossip_msgs", "max_cache");

  for (sim::SimTime delta_ms : {1u, 5u, 20u, 50u}) {
    auto cfg = default_config(System::kParis);
    cfg.threads_per_process = fast_mode() ? 16 : 32;
    cfg.protocol.delta_g_us = delta_ms * 1000;
    cfg.measure_visibility = true;
    cfg.visibility_sample_shift = 4;
    const auto res = run_experiment(cfg);
    std::printf("%-10llu %10.1f %14.2f %14.2f %14llu %12zu\n",
                static_cast<unsigned long long>(delta_ms), res.throughput_tx_s / 1000.0,
                res.visibility_hist.percentile(0.5) / 1000.0,
                res.visibility_hist.percentile(0.99) / 1000.0,
                static_cast<unsigned long long>(res.gossip_msgs), res.max_client_cache);
    std::fflush(stdout);
  }
  std::printf("\nExpectation: visibility latency grows by at most about half a ΔG per ΔG\n"
              "(the wait for the next clock-aligned round; rounds are forwarded up the\n"
              "tree on arrival and the UST goes down once per round, so tree depth adds\n"
              "no ΔG; on this WAN the 1-20 ms rows are within noise), gossip messages\n"
              "fall as 1/ΔG, and throughput stays flat — the UST gossip is off the\n"
              "critical path.\n");
  return 0;
}
