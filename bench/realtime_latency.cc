// realtime_latency — latency-sensitive figures on the REAL thread runtime.
//
// The LatencyTransport decorator gives the thread backend the same AWS
// per-DC-pair WAN model the simulator uses, which unlocks the paper's
// latency results outside the simulator:
//
//  * fig4 shape — update-visibility latency, PaRiS vs BPR: PaRiS makes an
//    update visible only once the UST passes its commit timestamp (a full
//    stabilization round behind), BPR as soon as it is applied. The
//    visibility CDFs must separate the same way on threads as on sim.
//  * fig3 shape — transaction latency vs locality: multi-DC transactions
//    pay WAN round trips, local ones do not.
//
// Each (system, runtime) cell runs the identical deployment: 3 DCs (N.
// Virginia, Oregon, Ireland), 6 partitions, R=2, AWS latency matrix with
// jitter. Results land in BENCH_realtime_latency.json; threads runs record
// wall-clock behavior, so hardware_concurrency is captured alongside.
//
// Environment knobs: PARIS_BENCH_FAST=1, PARIS_BENCH_SEED, PARIS_BENCH_OUT.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace paris;
using namespace paris::bench;

namespace {

ExperimentConfig latency_config(System sys, runtime::Kind kind) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = kind;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.ops_per_tx = 8;
  cfg.workload.partitions_per_tx = 2;
  cfg.seed = bench_seed();
  cfg.aws_latency = true;  // IAD/PDX/DUB: one-way 35..68 ms
  cfg.warmup_us = fast_mode() ? 300'000 : 500'000;
  cfg.measure_us = fast_mode() ? 700'000 : 1'500'000;
  cfg.measure_visibility = true;
  cfg.visibility_sample_shift = 2;  // sample 1/4: short windows need samples
  if (kind == runtime::Kind::kThreads) {
    cfg.worker_threads = 4;
    cfg.latency_model = runtime::LatencyModelKind::kJitter;
  }
  return cfg;
}

struct Row {
  std::string label;
  const char* system;
  const char* runtime;
  double multi_ratio;
  ExperimentResult result;
};

void print_row(const Row& r) {
  std::printf("%-22s %8.1f ktx/s  lat p50 %7.2f ms  vis p50 %7.2f ms  "
              "vis p99 %7.2f ms  (n=%llu)\n",
              r.label.c_str(), r.result.throughput_tx_s / 1000.0,
              r.result.latency_us.p50 / 1000.0,
              r.result.visibility_hist.percentile(0.5) / 1000.0,
              r.result.visibility_hist.percentile(0.99) / 1000.0,
              static_cast<unsigned long long>(r.result.committed));
  std::fflush(stdout);
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  print_title("realtime_latency — WAN latency model on the thread runtime",
              "3 DCs (AWS matrix + jitter), 6 partitions, R=2; fig4 visibility + "
              "fig3 locality shapes, sim vs threads (hw concurrency " +
                  std::to_string(hw) + ")");

  std::vector<Row> rows;

  // fig4 shape: visibility latency, both systems on both runtimes.
  for (const auto kind : {runtime::Kind::kSim, runtime::Kind::kThreads}) {
    for (const auto sys : {System::kParis, System::kBpr}) {
      auto cfg = latency_config(sys, kind);
      Row r{std::string(proto::system_name(sys)) + "/" + runtime::kind_name(kind),
            proto::system_name(sys), runtime::kind_name(kind),
            cfg.workload.multi_dc_ratio, workload::run_experiment(cfg)};
      print_row(r);
      rows.push_back(std::move(r));
    }
  }

  // fig3 shape: PaRiS-on-threads transaction latency vs locality.
  for (const double multi : {0.0, 0.5}) {
    auto cfg = latency_config(System::kParis, runtime::Kind::kThreads);
    cfg.workload.multi_dc_ratio = multi;
    cfg.measure_visibility = false;
    Row r{"PaRiS/threads multi=" + std::to_string(multi).substr(0, 3),
          "PaRiS", "threads", multi, workload::run_experiment(cfg)};
    print_row(r);
    rows.push_back(std::move(r));
  }

  // Self-check the fig4 shape on both runtimes: PaRiS visibility must sit
  // above BPR's (the paper's headline trade-off). Reported, not asserted —
  // the JSON is the artifact CI and readers consume.
  for (const char* rt : {"sim", "threads"}) {
    double paris_p50 = 0, bpr_p50 = 0;
    for (const auto& r : rows) {
      if (std::string(r.runtime) != rt || r.multi_ratio != 0.05) continue;
      (std::string(r.system) == "PaRiS" ? paris_p50 : bpr_p50) =
          r.result.visibility_hist.percentile(0.5);
    }
    std::printf("\n%s fig4 separation: PaRiS vis p50 %.2f ms vs BPR %.2f ms (%s)\n", rt,
                paris_p50 / 1000.0, bpr_p50 / 1000.0,
                paris_p50 > bpr_p50 ? "separated, paper-consistent" : "NOT separated");
  }

  const char* path = std::getenv("PARIS_BENCH_OUT");
  if (path == nullptr) path = "BENCH_realtime_latency.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"realtime_latency\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"cluster\": {\"dcs\": 3, \"partitions\": 6, \"replication\": 2, "
                  "\"latency\": \"aws+jitter\"},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"system\": \"%s\", \"runtime\": \"%s\", "
        "\"loop_mode\": \"%s\", \"multi_dc_ratio\": %.2f, "
        "\"throughput_tx_s\": %.1f, \"lat_p50_ms\": %.3f, \"lat_p99_ms\": %.3f, "
        "\"vis_p50_ms\": %.3f, \"vis_p99_ms\": %.3f, \"committed\": %llu}%s\n",
        r.label.c_str(), r.system, r.runtime, loop_mode(latency_config(System::kParis, runtime::Kind::kSim)),
        r.multi_ratio, r.result.throughput_tx_s,
        r.result.latency_us.p50 / 1000.0, r.result.latency_us.p99 / 1000.0,
        r.result.visibility_hist.percentile(0.5) / 1000.0,
        r.result.visibility_hist.percentile(0.99) / 1000.0,
        static_cast<unsigned long long>(r.result.committed),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
