// realtime_socket — the process boundary, measured: the same cluster on the
// thread runtime (one address space) vs the socket runtime (3 real OS
// processes over TCP loopback), and the selective-repeat payoff under loss.
//
// Rows (all PaRiS, 3 DCs, 6 partitions, R=2, reliable transport on
// everywhere so framing/ack overhead is part of every row):
//
//  * threads_reliable   — the cluster in one address space (no process
//                         boundary).
//  * sockets_reliable   — identical cluster, one process per DC over the
//                         poll pump; the delta is what crossing real process
//                         boundaries changes (on 4 cores the sockets row is
//                         the faster one).
//  * sockets_sack_loss  — 3% uniform drop of EVERY message class, under the
//                         jittered 40 ms WAN model (deep windows: an RTT of
//                         replication traffic is in flight per channel, so
//                         retransmission POLICY matters), with SACK on:
//                         receivers advertise buffered [lo,hi] ranges and
//                         senders retransmit only the gaps.
//  * sockets_gbn_loss   — the same loss with SACK off (go-back-N over the
//                         in-flight burst): the retransmission waste the
//                         60s-blackout bench measured, isolated. On bare
//                         loopback both rows would look alike — sub-ms acks
//                         let fast-retransmit (head-only, gap-shaped by
//                         nature) repair holes before the RTO scan ever
//                         fires; the WAN model is what makes the scan, and
//                         therefore the policy, load-bearing.
//
// The headline metric for the loss rows is retransmits_per_drop —
// retransmissions per chaos-eaten frame. Go-back-N resends whole bursts per
// hole, SACK about one frame per hole, so the ratio separates by an order
// of magnitude; tools/bench_guard.py guards the SACK row's value (and every
// row's goodput) against this committed baseline.
//
// This binary self-spawns its socket children (maybe_run_socket_child), so
// it must run from a real filesystem path. Environment knobs:
// PARIS_BENCH_FAST=1, PARIS_BENCH_SEED, PARIS_BENCH_OUT.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/endpoint.h"
#include "workload/socket_runner.h"

using namespace paris;
using namespace paris::bench;

namespace {

ExperimentConfig socket_config(bool sockets) {
  ExperimentConfig cfg;
  cfg.system = System::kParis;
  cfg.runtime = sockets ? runtime::Kind::kSockets : runtime::Kind::kThreads;
  cfg.worker_threads = sockets ? 2 : 6;  // 3 children x 2 = the threads run's 6
  cfg.socket.processes = 3;
  cfg.socket.hosts = runtime::loopback_host_list(3, 7451);
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.ops_per_tx = 8;
  cfg.workload.partitions_per_tx = 2;
  cfg.seed = bench_seed();
  cfg.aws_latency = false;  // loopback question: no WAN model on top
  cfg.reliable = true;
  cfg.reliable_cfg.rto_us = 60'000;
  cfg.reliable_cfg.max_rto_us = 500'000;
  cfg.warmup_us = 500'000;
  cfg.measure_us = fast_mode() ? 1'000'000 : 3'000'000;
  return cfg;
}

struct Row {
  std::string name;
  ExperimentResult result;
  double retx_per_drop = 0;
};

Row run_row(std::string name, const ExperimentConfig& cfg) {
  Row r{std::move(name), workload::run_experiment(cfg), 0};
  if (r.result.chaos.dropped != 0) {
    r.retx_per_drop = static_cast<double>(r.result.reliable.retransmits) /
                      static_cast<double>(r.result.chaos.dropped);
  }
  std::printf("%-20s %8.2f ktx/s  lat p50 %7.2f ms  frames %9llu  retx %7llu"
              "  dropped %6llu  retx/drop %6.2f  sack-skips %llu"
              "  sys/frame %5.2f  B/sys %6.0f\n",
              r.name.c_str(), r.result.throughput_tx_s / 1000.0,
              r.result.latency_us.p50 / 1000.0,
              static_cast<unsigned long long>(r.result.reliable.frames_sent),
              static_cast<unsigned long long>(r.result.reliable.retransmits),
              static_cast<unsigned long long>(r.result.chaos.dropped), r.retx_per_drop,
              static_cast<unsigned long long>(r.result.reliable.sacked_skips),
              r.result.socket.syscalls_per_frame(), r.result.socket.bytes_per_syscall());
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  workload::maybe_run_socket_child(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  print_title("realtime_socket — threads vs 3 real processes + SACK under loss",
              "PaRiS, 3 DCs / 6 partitions / R=2, reliable transport everywhere "
              "(hw concurrency " + std::to_string(hw) + ")");

  std::vector<Row> rows;

  {
    auto cfg = socket_config(/*sockets=*/false);
    rows.push_back(run_row("threads_reliable", cfg));
  }
  {
    auto cfg = socket_config(/*sockets=*/true);
    rows.push_back(run_row("sockets_reliable", cfg));
  }
  for (const bool sack : {true, false}) {
    auto cfg = socket_config(/*sockets=*/true);
    cfg.chaos.drop_p = 0.03;
    cfg.chaos.drop_class = runtime::ChaosDropClass::kAll;
    cfg.latency_model = runtime::LatencyModelKind::kJitter;  // 40 ms WAN
    cfg.reliable_cfg.rto_us = 150'000;  // > worst modeled RTT
    cfg.reliable_cfg.sack = sack;
    rows.push_back(run_row(sack ? "sockets_sack_loss" : "sockets_gbn_loss", cfg));
  }

  // Self-check the selective-repeat story (reported; the guard asserts).
  const double sack = rows[rows.size() - 2].retx_per_drop;
  const double gbn = rows[rows.size() - 1].retx_per_drop;
  std::printf("\nretransmits per dropped frame: SACK %.2f vs go-back-N %.2f (%s)\n", sack,
              gbn,
              sack < gbn ? "selective repeat wins, as designed" : "NOT separated");

  const char* path = std::getenv("PARIS_BENCH_OUT");
  if (path == nullptr) path = "BENCH_realtime_socket.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"realtime_socket\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  // The committed baseline is measured in the same fast mode CI runs, so
  // the guard compares like against like; record which mode produced this
  // document.
  std::fprintf(f, "  \"measure_ms\": %d,\n", fast_mode() ? 1000 : 3000);
  std::fprintf(f, "  \"cluster\": {\"dcs\": 3, \"partitions\": 6, \"replication\": 2, "
                  "\"processes\": 3, \"reliable_rto_ms\": 60, "
                  "\"loss_rows\": {\"drop_p\": 0.03, \"latency\": \"uniform40ms+jitter\", "
                  "\"rto_ms\": 150}},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"loop_mode\": \"%s\", \"goodput_tx_s\": %.1f, "
        "\"lat_p50_ms\": %.3f, "
        "\"committed\": %llu, \"frames\": %llu, \"retransmits\": %llu, "
        "\"dropped\": %llu, \"retransmits_per_drop\": %.3f, \"sack_skips\": %llu, "
        "\"socket_frames_out\": %llu, \"syscalls_per_frame\": %.3f, "
        "\"bytes_per_syscall\": %.1f, \"flushes\": %llu, "
        "\"backpressure_stalls\": %llu}%s\n",
        r.name.c_str(), loop_mode(socket_config(/*sockets=*/true)),
        r.result.throughput_tx_s, r.result.latency_us.p50 / 1000.0,
        static_cast<unsigned long long>(r.result.committed),
        static_cast<unsigned long long>(r.result.reliable.frames_sent),
        static_cast<unsigned long long>(r.result.reliable.retransmits),
        static_cast<unsigned long long>(r.result.chaos.dropped), r.retx_per_drop,
        static_cast<unsigned long long>(r.result.reliable.sacked_skips),
        static_cast<unsigned long long>(r.result.socket.frames_out),
        r.result.socket.syscalls_per_frame(), r.result.socket.bytes_per_syscall(),
        static_cast<unsigned long long>(r.result.socket.flushes),
        static_cast<unsigned long long>(r.result.socket.backpressure_stalls),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
