// realtime_recovery — self-healing, measured: the same supervised 3-process
// socket cluster with and without a SIGKILL of rank 1 mid-measurement.
//
// Rows (all PaRiS, 3 DCs / 3 partitions / R=3 so every partition survives
// the crash at full read locality, reliable transport on, supervision on
// everywhere so its bookkeeping cost is part of both rows):
//
//  * sockets_steady     — supervised but unharmed: the goodput ceiling, and
//                         the proof that supervision + epoch beacons cost
//                         nothing when nobody dies.
//  * sockets_kill_heal  — rank 1 is SIGKILLed 1/3 into the measurement
//                         window; the supervisor respawns it with a bumped
//                         epoch, the respawn streams a snapshot from a
//                         donor survivor plus catch-up deltas, and the
//                         cluster reconverges. Goodput includes the dip;
//                         time_to_rejoin_ms is the respawned child's
//                         mesh-join + state-transfer time.
//
// Both rows run the offline exactness checker over the merged cross-process
// history — a nonzero "violations" in the JSON is a consistency bug, not a
// performance number. tools/bench_guard.py guards both rows' goodput
// against this committed baseline; the kill row's floor is what keeps the
// healing path honest (a respawn that stops recovering shows up as a
// collapsed goodput or a failed run, not a silent skew).
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

ExperimentConfig recovery_config(bool kill) {
  ExperimentConfig cfg;
  cfg.system = System::kParis;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.socket.processes = 3;
  cfg.socket.hosts = runtime::loopback_host_list(3, kill ? 7471 : 7461);
  cfg.socket.supervise = true;
  cfg.socket.max_respawns = 2;
  cfg.num_dcs = 3;
  cfg.num_partitions = 3;
  cfg.replication = 3;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.ops_per_tx = 8;
  cfg.workload.partitions_per_tx = 2;
  // DESIGN §11: single-DC transactions, so a SIGKILL cannot separate a
  // multi-DC coordinator from its replicated writes mid-2PC.
  cfg.workload.multi_dc_ratio = 0.0;
  cfg.seed = bench_seed();
  cfg.aws_latency = false;  // loopback question: no WAN model on top
  cfg.reliable = true;
  cfg.reliable_cfg.rto_us = 60'000;
  cfg.reliable_cfg.max_rto_us = 500'000;
  cfg.check_consistency = true;  // the healed history must also be CORRECT
  cfg.warmup_us = 500'000;
  cfg.measure_us = fast_mode() ? 1'500'000 : 3'000'000;
  if (kill) {
    cfg.socket.kill_rank = 1;
    // 1/3 into the measurement window: the respawn's recovery and rejoin
    // land inside the measured region, so the goodput includes the dip.
    cfg.socket.kill_after_ms =
        static_cast<std::uint64_t>((cfg.warmup_us + cfg.measure_us / 3) / 1000);
  }
  return cfg;
}

struct Row {
  std::string name;
  ExperimentResult result;
};

Row run_row(std::string name, const ExperimentConfig& cfg) {
  Row r{std::move(name), workload::run_experiment(cfg)};
  std::printf("%-20s %8.2f ktx/s  lat p50 %7.2f ms  committed %8llu  respawns %llu"
              "  snapshots %llu  catchups %llu  rejoin %llu ms  violations %zu\n",
              r.name.c_str(), r.result.throughput_tx_s / 1000.0,
              r.result.latency_us.p50 / 1000.0,
              static_cast<unsigned long long>(r.result.committed),
              static_cast<unsigned long long>(r.result.respawns),
              static_cast<unsigned long long>(r.result.snapshots_served),
              static_cast<unsigned long long>(r.result.catchups_served),
              static_cast<unsigned long long>(r.result.recovery_ms),
              r.result.violations.size());
  for (const auto& v : r.result.violations) std::printf("  VIOLATION: %s\n", v.c_str());
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  workload::maybe_run_socket_child(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  print_title("realtime_recovery — SIGKILL a rank under load, measure the heal",
              "PaRiS, 3 DCs / 3 partitions / R=3, 3 supervised processes, reliable "
              "transport, exactness checker on (hw concurrency " + std::to_string(hw) + ")");

  std::vector<Row> rows;
  rows.push_back(run_row("sockets_steady", recovery_config(/*kill=*/false)));
  rows.push_back(run_row("sockets_kill_heal", recovery_config(/*kill=*/true)));

  const auto& heal = rows[1].result;
  const bool healed = heal.respawns >= 1 && heal.snapshots_served >= 1 &&
                      heal.violations.empty() && rows[0].result.violations.empty();
  std::printf("\n%s: %llu respawn(s), %llu snapshot transfer(s), rejoin in %llu ms\n",
              healed ? "healed, checker clean" : "DID NOT HEAL",
              static_cast<unsigned long long>(heal.respawns),
              static_cast<unsigned long long>(heal.snapshots_served),
              static_cast<unsigned long long>(heal.recovery_ms));

  const char* path = std::getenv("PARIS_BENCH_OUT");
  if (path == nullptr) path = "BENCH_realtime_recovery.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"realtime_recovery\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"cluster\": {\"dcs\": 3, \"partitions\": 3, \"replication\": 3, "
                  "\"processes\": 3, \"supervised\": true, \"kill_rank\": 1, "
                  "\"respawn_budget\": 2, \"checker\": \"exactness, merged history\"},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"loop_mode\": \"%s\", \"goodput_tx_s\": %.1f, "
        "\"lat_p50_ms\": %.3f, "
        "\"committed\": %llu, \"respawns\": %llu, \"snapshots_served\": %llu, "
        "\"catchups_served\": %llu, \"prepared_fenced\": %llu, "
        "\"stale_epoch_fenced\": %llu, \"time_to_rejoin_ms\": %llu, "
        "\"violations\": %zu}%s\n",
        r.name.c_str(), loop_mode(recovery_config(/*kill=*/false)),
        r.result.throughput_tx_s, r.result.latency_us.p50 / 1000.0,
        static_cast<unsigned long long>(r.result.committed),
        static_cast<unsigned long long>(r.result.respawns),
        static_cast<unsigned long long>(r.result.snapshots_served),
        static_cast<unsigned long long>(r.result.catchups_served),
        static_cast<unsigned long long>(r.result.prepared_fenced),
        static_cast<unsigned long long>(r.result.socket.fenced_stale_epoch),
        static_cast<unsigned long long>(r.result.recovery_ms),
        r.result.violations.size(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return healed ? 0 : 1;
}
