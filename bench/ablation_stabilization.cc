// Ablation A1 (not in the paper): sensitivity of PaRiS to the stabilization
// intervals ΔG/ΔU (the paper fixes both at 5 ms). Faster gossip buys
// fresher snapshots (lower update visibility latency, smaller client write
// caches) at the price of more gossip messages; throughput is expected to
// be nearly flat because gossip is tiny compared to transaction work.

#include "bench_common.h"

using namespace paris;
using namespace paris::bench;

int main() {
  print_title("Ablation A1: stabilization interval ΔG = ΔU",
              "PaRiS, default workload, 5 DCs, 45 partitions, R=2");

  std::printf("%-10s %10s %14s %14s %14s %12s\n", "Δ(ms)", "ktx/s", "vis_p50_ms",
              "vis_p99_ms", "gossip_msgs", "max_cache");

  for (sim::SimTime delta_ms : {1u, 5u, 20u, 50u}) {
    auto cfg = default_config(System::kParis);
    cfg.threads_per_process = fast_mode() ? 16 : 32;
    cfg.protocol.delta_g_us = delta_ms * 1000;
    cfg.protocol.delta_u_us = delta_ms * 1000;
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
  std::printf("\nExpectation: visibility latency grows by about one Δ per Δ (a leaf round\n"
              "plus the ΔU throttle; rounds are forwarded up the tree on arrival, so\n"
              "tree depth adds no Δ), gossip messages fall as 1/Δ, and throughput\n"
              "stays flat — the UST gossip is off the critical path.\n");
  return 0;
}
