// realtime_workload — the open-loop engine as a committed, guarded artifact
// (DESIGN §14).
//
// Two rows, both OPEN loop (every other realtime bench is closed loop; the
// loop_mode field keeps bench_guard from ever comparing across that line):
//
//  * openloop_zipf_threads  — Poisson arrivals over Zipf(0.99) keys on the
//    thread runtime. The headline pair is achieved vs intended rate (the
//    engine must keep up with its own schedule on an unloaded box) and the
//    intended/service p99 split (coordinated-omission-safe latency: intended
//    charges queueing from the scheduled instant, service only the in-flight
//    time).
//  * openloop_zipf_sockets  — the identical schedule against 3 real
//    processes over TCP loopback.
//
// The guard rules wired to this document: goodput floor (goodput_tx_s),
// achieved/intended ratio floor (achieved_intended_ratio — a scheduler that
// silently falls behind its arrival process fails even if raw goodput looks
// healthy), and loop_mode mismatch.
//
// Environment knobs: PARIS_BENCH_FAST=1, PARIS_BENCH_SEED, PARIS_BENCH_OUT.

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

constexpr std::uint16_t kBasePort = 7481;

ExperimentConfig openloop_config(runtime::Kind kind) {
  ExperimentConfig cfg;
  cfg.system = System::kParis;
  cfg.runtime = kind;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.threads_per_process = 4;
  if (kind == runtime::Kind::kSockets) {
    cfg.socket.processes = 3;
    cfg.socket.hosts = runtime::loopback_host_list(3, kBasePort);
  }
  cfg.workload.key_dist = workload::KeyDistKind::kZipfRejection;
  cfg.workload.zipf_theta = 0.99;
  cfg.workload.keys_per_partition = 1000;
  cfg.openloop.enabled = true;
  cfg.openloop.arrival_rate = 3000;  // cluster-total tx/s, well under capacity
  cfg.warmup_us = 300'000;
  cfg.measure_us = fast_mode() ? 1'200'000 : 3'000'000;
  cfg.check_consistency = true;
  cfg.aws_latency = false;
  cfg.seed = bench_seed();
  return cfg;
}

struct Row {
  std::string name;
  const char* loop;
  ExperimentResult result;
};

Row run_row(std::string name, const ExperimentConfig& cfg) {
  Row r{std::move(name), loop_mode(cfg), workload::run_experiment(cfg)};
  const auto& res = r.result;
  std::printf("%-24s %8.2f ktx/s  intended %7.0f/s achieved %7.0f/s  "
              "int p99 %7.2f ms  svc p99 %7.2f ms  overdue %6llu  viol %zu\n",
              r.name.c_str(), res.throughput_tx_s / 1000.0, res.intended_rate_tx_s,
              res.achieved_rate_tx_s,
              static_cast<double>(res.intended_hist.percentile(0.99)) / 1000.0,
              static_cast<double>(res.service_hist.percentile(0.99)) / 1000.0,
              static_cast<unsigned long long>(res.overdue), res.violations.size());
  std::fflush(stdout);
  return r;
}

double ratio(const ExperimentResult& res) {
  return res.intended_rate_tx_s > 0 ? res.achieved_rate_tx_s / res.intended_rate_tx_s
                                    : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  workload::maybe_run_socket_child(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  print_title("realtime_workload — open-loop engine",
              "PaRiS, 3 DCs / 6 partitions / R=2, Poisson arrivals, CO-safe "
              "latency (hw concurrency " + std::to_string(hw) + ")");

  std::vector<Row> rows;
  rows.push_back(run_row("openloop_zipf_threads", openloop_config(runtime::Kind::kThreads)));
  rows.push_back(run_row("openloop_zipf_sockets", openloop_config(runtime::Kind::kSockets)));

  bool clean = true;
  for (const auto& r : rows) {
    for (const auto& v : r.result.violations) {
      std::fprintf(stderr, "%s: VIOLATION %s\n", r.name.c_str(), v.c_str());
      clean = false;
    }
  }

  const char* path = std::getenv("PARIS_BENCH_OUT");
  if (path == nullptr) path = "BENCH_realtime_workload.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"realtime_workload\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"measure_ms\": %d,\n", fast_mode() ? 1200 : 3000);
  std::fprintf(f, "  \"cluster\": {\"dcs\": 3, \"partitions\": 6, \"replication\": 2, "
                  "\"keys_per_partition\": 1000, \"openloop_rows\": "
                  "{\"key_dist\": \"zipf_rejection\", \"theta\": 0.99, "
                  "\"arrival_tx_s\": 3000}},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& res = r.result;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"loop_mode\": \"%s\", \"goodput_tx_s\": %.1f, "
        "\"intended_rate_tx_s\": %.1f, \"achieved_rate_tx_s\": %.1f, "
        "\"achieved_intended_ratio\": %.4f, "
        "\"intended_p50_ms\": %.3f, \"intended_p99_ms\": %.3f, "
        "\"service_p50_ms\": %.3f, \"service_p99_ms\": %.3f, "
        "\"scheduled\": %llu, \"overdue\": %llu, \"max_backlog\": %llu, "
        "\"committed\": %llu, \"violations\": %zu",
        r.name.c_str(), r.loop, res.throughput_tx_s, res.intended_rate_tx_s,
        res.achieved_rate_tx_s, ratio(res),
        static_cast<double>(res.intended_hist.percentile(0.5)) / 1000.0,
        static_cast<double>(res.intended_hist.percentile(0.99)) / 1000.0,
        static_cast<double>(res.service_hist.percentile(0.5)) / 1000.0,
        static_cast<double>(res.service_hist.percentile(0.99)) / 1000.0,
        static_cast<unsigned long long>(res.scheduled),
        static_cast<unsigned long long>(res.overdue),
        static_cast<unsigned long long>(res.max_backlog),
        static_cast<unsigned long long>(res.committed), res.violations.size());
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return clean ? 0 : 1;
}
