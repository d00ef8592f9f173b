// realtime_chaos — goodput and update visibility under faults on the REAL
// thread runtime: the paper's reliability story, measured instead of
// assumed.
//
// PaRiS and BPR both presume reliable FIFO channels (TCP). The
// ReliableTransport decorator supplies that guarantee on top of a lossy
// stack, so this bench can ask what each system's *clients* experience when
// the network misbehaves underneath a working transport:
//
//  * drop 1% / 10% of EVERY message class (requests, 2PC, replication,
//    acks): goodput degrades with retransmission stalls, but both systems
//    stay correct — the run would pass the exactness checker (asserted in
//    tests/test_reliable_transport.cc; the bench measures, the tests prove).
//  * a 60-second inter-DC blackout (healed on deadline): PaRiS keeps
//    serving non-blocking reads from the stalled-but-stable snapshot and
//    local commits continue, while BPR's fresh-snapshot reads block on the
//    frozen version vector — the paper's availability trade-off, now
//    visible as a goodput gap through the outage. Update visibility p99
//    stretches to roughly the blackout length for both (nothing can be
//    installed across a dead link).
//
// Cluster: 3 DCs (AWS matrix + jitter), 6 partitions, R=2, 4 workers.
// Results land in BENCH_realtime_chaos.json (hardware_concurrency recorded:
// a single-core box serializes the workers).
//
// Environment knobs: PARIS_BENCH_FAST=1 (short runs, 3s partition),
// PARIS_BENCH_SEED, PARIS_BENCH_OUT.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace paris;
using namespace paris::bench;

namespace {

ExperimentConfig chaos_config(System sys) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = runtime::Kind::kThreads;
  cfg.worker_threads = 4;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.ops_per_tx = 8;
  cfg.workload.partitions_per_tx = 2;
  cfg.seed = bench_seed();
  cfg.aws_latency = true;  // IAD/PDX/DUB: one-way 35..68 ms
  cfg.latency_model = runtime::LatencyModelKind::kJitter;
  cfg.reliable = true;
  // RTO above the worst modeled RTT (2 x 68 ms) so loss-free channels never
  // retransmit spuriously; fast retransmit recovers busy channels in ~RTT.
  cfg.reliable_cfg.rto_us = 200'000;
  cfg.reliable_cfg.max_rto_us = 1'000'000;
  cfg.warmup_us = 500'000;
  cfg.measure_us = fast_mode() ? 1'000'000 : 4'000'000;
  cfg.measure_visibility = true;
  cfg.visibility_sample_shift = 2;
  return cfg;
}

struct Row {
  std::string scenario;
  const char* system;
  double drop_p;
  std::uint64_t partition_ms;
  ExperimentResult result;
};

void print_row(const Row& r) {
  std::printf("%-26s %8.2f ktx/s  lat p50 %8.2f ms  vis p50 %8.2f ms  vis p99 %9.2f ms"
              "  retx %llu\n",
              (std::string(r.system) + " " + r.scenario).c_str(),
              r.result.throughput_tx_s / 1000.0, r.result.latency_us.p50 / 1000.0,
              r.result.visibility_hist.percentile(0.5) / 1000.0,
              r.result.visibility_hist.percentile(0.99) / 1000.0,
              static_cast<unsigned long long>(r.result.reliable.retransmits));
  std::fflush(stdout);
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint64_t partition_ms = fast_mode() ? 3'000 : 60'000;
  print_title("realtime_chaos — goodput + visibility under faults (thread runtime)",
              "3 DCs (AWS matrix + jitter), 6 partitions, R=2, reliable transport; "
              "drop {1%, 10%} of everything and a " + std::to_string(partition_ms / 1000) +
                  "s DC0<->DC1 blackout (hw concurrency " + std::to_string(hw) + ")");

  std::vector<Row> rows;

  for (const auto sys : {System::kParis, System::kBpr}) {
    // Baseline: reliable layer on, fault-free (its framing/ack overhead is
    // part of every other row, so this is the fair zero point).
    {
      auto cfg = chaos_config(sys);
      rows.push_back(Row{"baseline", proto::system_name(sys), 0, 0,
                         workload::run_experiment(cfg)});
      print_row(rows.back());
    }
    for (const double p : {0.01, 0.10}) {
      auto cfg = chaos_config(sys);
      cfg.chaos.drop_p = p;
      cfg.chaos.drop_class = runtime::ChaosDropClass::kAll;
      rows.push_back(Row{"drop " + std::to_string(static_cast<int>(p * 100)) + "%",
                         proto::system_name(sys), p, 0, workload::run_experiment(cfg)});
      print_row(rows.back());
    }
    {
      // Blackout DC0 <-> DC1 for partition_ms, healing on deadline. The
      // post-heal slack must cover retransmission backoff (max_rto 1s) plus
      // the gossip cascade that re-advances the UST, or the stalled
      // updates' visibility events never fire inside the window and the
      // tail silently under-reports.
      auto cfg = chaos_config(sys);
      const std::uint64_t start_us = 1'000'000;
      cfg.partitions.windows.push_back(runtime::PartitionWindow{
          0, 1, false, start_us, start_us + partition_ms * 1'000});
      cfg.measure_us = start_us + partition_ms * 1'000 + 6'000'000;
      rows.push_back(Row{"partition " + std::to_string(partition_ms / 1000) + "s",
                         proto::system_name(sys), 0, partition_ms,
                         workload::run_experiment(cfg)});
      print_row(rows.back());
    }
  }

  // Self-check the availability story: PaRiS goodput through the blackout
  // window must beat BPR's (reported, not asserted — the JSON is the
  // artifact readers consume).
  double paris_part = 0, bpr_part = 0;
  for (const auto& r : rows) {
    if (r.partition_ms == 0) continue;
    (std::string(r.system) == "PaRiS" ? paris_part : bpr_part) = r.result.throughput_tx_s;
  }
  std::printf("\npartition availability: PaRiS %.2f ktx/s vs BPR %.2f ktx/s through the "
              "blackout (%s)\n",
              paris_part / 1000.0, bpr_part / 1000.0,
              paris_part > bpr_part ? "PaRiS stays available, paper-consistent"
                                    : "NOT separated");

  const char* path = std::getenv("PARIS_BENCH_OUT");
  if (path == nullptr) path = "BENCH_realtime_chaos.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"realtime_chaos\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"cluster\": {\"dcs\": 3, \"partitions\": 6, \"replication\": 2, "
                  "\"latency\": \"aws+jitter\", \"reliable_rto_ms\": 200},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"system\": \"%s\", \"scenario\": \"%s\", \"loop_mode\": \"%s\", "
        "\"drop_p\": %.2f, "
        "\"partition_ms\": %llu, \"goodput_tx_s\": %.1f, \"lat_p50_ms\": %.3f, "
        "\"lat_p99_ms\": %.3f, \"vis_p50_ms\": %.3f, \"vis_p99_ms\": %.3f, "
        "\"committed\": %llu, \"chaos_dropped\": %llu, \"partition_dropped\": %llu, "
        "\"frames\": %llu, \"retransmits\": %llu, \"coalesced\": %llu}%s\n",
        r.system, r.scenario.c_str(), loop_mode(chaos_config(System::kParis)), r.drop_p,
        static_cast<unsigned long long>(r.partition_ms), r.result.throughput_tx_s,
        r.result.latency_us.p50 / 1000.0, r.result.latency_us.p99 / 1000.0,
        r.result.visibility_hist.percentile(0.5) / 1000.0,
        r.result.visibility_hist.percentile(0.99) / 1000.0,
        static_cast<unsigned long long>(r.result.committed),
        static_cast<unsigned long long>(r.result.chaos.dropped),
        static_cast<unsigned long long>(r.result.partition.dropped),
        static_cast<unsigned long long>(r.result.reliable.frames_sent),
        static_cast<unsigned long long>(r.result.reliable.retransmits),
        static_cast<unsigned long long>(r.result.reliable.coalesced),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
