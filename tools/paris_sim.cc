// paris_sim — command-line driver for one-off experiments.
//
// Examples:
//   paris_sim --system=paris --dcs=5 --partitions=45 --replication=2
//     --threads=32 --writes=1 --multi=0.05 --measure-ms=1000
//   paris_sim --system=bpr --threads=256 --visibility
//   paris_sim --runtime=threads --workers=4 --dcs=3 --partitions=9 --check
//   paris_sim --runtime=sockets --processes=3 --dcs=3 --partitions=6 --check
//
// --runtime=sim runs the deterministic discrete-event simulator (default;
// same seed => byte-identical output); --runtime=threads runs the same
// protocol code on real worker threads; --runtime=sockets spawns one child
// process per rank, connected over TCP loopback speaking length-prefixed
// ReliableFrames, and merges their stats/histories (the checker then runs
// over the complete cross-process execution). Prints throughput, the
// latency distribution, blocking statistics (BPR) and, with --visibility,
// the update-visibility percentiles.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "cluster/membership.h"
#include "scenario/scenario.h"
#include "workload/experiment.h"
#include "runtime/endpoint.h"
#include "workload/socket_runner.h"

using namespace paris;

namespace {

[[noreturn]] void usage(const char* argv0, int exit_code = 2) {
  std::printf(
      "usage: %s [options]\n"
      "  --system=paris|bpr      protocol under test (default paris)\n"
      "  --runtime=sim|threads|sockets\n"
      "                          deterministic simulator, real worker threads,\n"
      "                          or real OS processes over TCP loopback\n"
      "                          (default sim)\n"
      "  --workers=W             threads/sockets: worker threads per process\n"
      "                          (default: one per server hosted locally)\n"
      "  --processes=N           sockets: child processes; process r owns the\n"
      "                          DCs with dc mod N == r (default: one per DC)\n"
      "  --hosts=H1:P1,H2:P2,... sockets: explicit listen endpoint per rank\n"
      "                          (one entry per process, in rank order); this\n"
      "                          is how a cluster spans hosts or distinct\n"
      "                          loopback IPs (default 127.0.0.1:7421+rank)\n"
      "  --join-rank=R:MS        elastic membership: the DCs owned by rank R\n"
      "                          start OUTSIDE the replica sets and join MS ms\n"
      "                          into the run (snapshot + catch-up from a\n"
      "                          donor replica, then serve in the new view).\n"
      "                          threads: R names a DC. Repeatable\n"
      "  --leave-rank=R:MS       elastic membership: rank R's DCs leave the\n"
      "                          replica sets MS ms into the run (drained:\n"
      "                          peers stop routing to them, their clients\n"
      "                          stop at the boundary). Repeatable\n"
      "  --socket-dir=PATH       sockets: per-child logs + result files\n"
      "                          (default: a fresh dir under $TMPDIR, removed\n"
      "                          after a clean run; path is printed)\n"
      "  --supervise             sockets: respawn a dead rank (bumped\n"
      "                          incarnation epoch + snapshot state transfer\n"
      "                          from a surviving replica) instead of failing\n"
      "                          the whole run fast\n"
      "  --max-respawns=K        sockets: total respawn budget under\n"
      "                          --supervise (default 2)\n"
      "  --kill-rank=R:MS        sockets: SIGKILL rank R once MS ms of the\n"
      "                          supervised run have elapsed (fault schedule;\n"
      "                          requires --supervise)\n"
      "  --socket-outbound-kb=K  sockets: per-peer outbound ring budget in\n"
      "                          KiB (K >= 1); a full ring backpressures\n"
      "                          senders (parked envelopes, not loss)\n"
      "                          (default 4096)\n"
      "  --latency-model=none|matrix|jitter\n"
      "                          threads/sockets: inject per-DC-pair WAN\n"
      "                          delay (matrix), plus jitter (default none;\n"
      "                          the sim models latency itself)\n"
      "  --reliable              threads/sockets: at-least-once delivery —\n"
      "                          every protocol message is sequenced,\n"
      "                          retransmitted on timeout and deduplicated at\n"
      "                          the receiver, so chaos drops/partitions of\n"
      "                          ANY class still converge (exactly-once at\n"
      "                          the actor)\n"
      "  --reliable-rto-ms=R|auto\n"
      "                          retransmission timeout in ms (default 100),\n"
      "                          or 'auto': per-channel Jacobson/Karels RTT\n"
      "                          estimation (srtt + 4*rttvar, Karn's rule)\n"
      "  --reliable-sack=on|off  selective-repeat acks: receivers report\n"
      "                          buffered [lo,hi] seq ranges and senders\n"
      "                          retransmit only the gaps instead of the\n"
      "                          whole go-back-N burst (default on)\n"
      "  --scenario-seed=S       threads/sockets: draw a full adversarial\n"
      "                          fault schedule (DC partitions, WAN link\n"
      "                          episodes, chaos knobs, live frame fuzzing,\n"
      "                          clock skew, rank kills on supervised\n"
      "                          sockets) from seed S and fold it onto the\n"
      "                          run. The schedule owns cluster shape, run\n"
      "                          window and fault knobs; --system/--runtime\n"
      "                          pick the cell. See tools/scenario_runner\n"
      "                          for whole fuzzing campaigns\n"
      "  --scenario-file=PATH    replay a pinned corpus schedule\n"
      "                          (tests/corpus/*.scenario) instead of\n"
      "                          generating one; the file pins system AND\n"
      "                          runtime\n"
      "  --scenario-print        print the materialized schedule text and\n"
      "                          exit without running (requires one of\n"
      "                          --scenario-seed/--scenario-file)\n"
      "  --partition-spec=SPEC   threads/sockets: scheduled inter-DC\n"
      "                          blackouts, times in ms on the runtime clock.\n"
      "                          SPEC is comma-separated windows:\n"
      "                          A-B:start:end (pair) or A:start:end (isolate\n"
      "                          DC A). Messages crossing an active window\n"
      "                          are DROPPED; pair with --reliable to\n"
      "                          converge after heal\n"
      "  --chaos-reorder=P       threads/sockets: stall probability (cross-\n"
      "                          channel reorder; per-channel FIFO preserved)\n"
      "  --chaos-stall-ms=S      stall length for --chaos-reorder (default 10)\n"
      "  --chaos-duplicate=P     threads/sockets: duplicate replication\n"
      "                          messages\n"
      "  --chaos-drop=[CLASS:]P  threads/sockets: drop messages with\n"
      "                          probability P.\n"
      "                          CLASS is replication (default), requests or\n"
      "                          all. Without --reliable, replication drops\n"
      "                          surface as --check violations and request\n"
      "                          drops wedge transactions; with --reliable any\n"
      "                          class must converge checker-clean\n"
      "  --dcs=M                 number of data centers (default 5)\n"
      "  --partitions=N          number of partitions (default 45)\n"
      "  --replication=R         replication factor (default 2)\n"
      "  --threads=T             client threads per (DC, partition) process (default 8)\n"
      "  --ops=K                 operations per transaction (default 20)\n"
      "  --writes=W              writes among those (default 1)\n"
      "  --parts-per-tx=P        partitions touched per transaction (default 4)\n"
      "  --multi=F               multi-DC transaction ratio in [0,1] (default 0.05)\n"
      "  --keys=K                keys per partition (default 10000)\n"
      "  --zipf=T                zipfian theta (default 0.99)\n"
      "  --key-dist=zipf|uniform|zipf-ri|hotspot\n"
      "                          key-popularity distribution within a\n"
      "                          partition: YCSB zipfian (default), uniform,\n"
      "                          zipfian via rejection-inversion (exact PMF,\n"
      "                          supports theta >= 1), or hot-spot\n"
      "  --hot-keys=F            hotspot: fraction of keys in the hot set\n"
      "                          (default 0.01)\n"
      "  --hot-access=F          hotspot: fraction of accesses landing on the\n"
      "                          hot set (default 0.90)\n"
      "  --arrival-rate=R        OPEN-LOOP mode: replace the closed-loop\n"
      "                          sessions with a pre-drawn Poisson arrival\n"
      "                          process at R tx/s total. Latency is measured\n"
      "                          from each request's SCHEDULED arrival\n"
      "                          (coordinated-omission-safe); both the\n"
      "                          intended and the achieved rate are reported\n"
      "  --sessions=S            open loop: logical sessions multiplexed per\n"
      "                          engine (default 1024)\n"
      "  --rate-profile=constant|diurnal|flash\n"
      "                          open loop: shape the arrival rate — flat, a\n"
      "                          sinusoidal day/night ramp, or a flash crowd\n"
      "                          (default constant)\n"
      "  --flash-at-ms=T         flash profile: crowd arrives T ms into the\n"
      "                          run (default 300)\n"
      "  --flash-len-ms=L        flash profile: crowd lasts L ms (default 200)\n"
      "  --flash-mult=X          flash profile: rate multiplier (default 4)\n"
      "  --trace=PATH            open loop: replay arrivals from a text trace\n"
      "                          ('offset_us [key_rank]' per line, time-\n"
      "                          sorted, '#' comments) instead of drawing a\n"
      "                          Poisson process\n"
      "  --warmup-ms=W           warmup (default 300)\n"
      "  --measure-ms=M          measurement window (default 1000)\n"
      "  --seed=S                RNG seed (default 42)\n"
      "  --uniform-latency       uniform 40ms WAN instead of the AWS matrix\n"
      "  --visibility            measure update visibility latency\n"
      "  --check                 run the offline exactness checker (slow)\n"
      "  --codec-bytes           encode/decode every message (default: size only)\n"
      "  --help                  this text\n",
      argv0);
  std::exit(exit_code);
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // Socket children re-exec this binary; the hook runs their share of the
  // experiment and exits. A normal invocation falls straight through.
  workload::maybe_run_socket_child(argc, argv);

  workload::ExperimentConfig cfg;
  cfg.threads_per_process = 8;
  bool sessions_set = false;
  bool profile_set = false;
  bool sack_flag_set = false;
  bool socket_budget_set = false;
  bool scenario_seed_set = false;
  std::uint64_t scenario_seed = 0;
  std::string scenario_file;
  bool scenario_print = false;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--system", &v) && v) {
      if (std::string(v) == "paris") {
        cfg.system = proto::System::kParis;
      } else if (std::string(v) == "bpr") {
        cfg.system = proto::System::kBpr;
      } else {
        usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "--runtime", &v) && v) {
      if (std::string(v) == "sim") {
        cfg.runtime = runtime::Kind::kSim;
      } else if (std::string(v) == "threads") {
        cfg.runtime = runtime::Kind::kThreads;
      } else if (std::string(v) == "sockets") {
        cfg.runtime = runtime::Kind::kSockets;
      } else {
        usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "--workers", &v) && v) {
      cfg.worker_threads = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--processes", &v) && v) {
      cfg.socket.processes = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--hosts", &v) && v) {
      std::string host_err;
      if (!runtime::parse_host_list(v, &cfg.socket.hosts, &host_err)) {
        std::fprintf(stderr, "error: --hosts: %s\n", host_err.c_str());
        return 2;
      }
    } else if ((parse_flag(argv[i], "--join-rank", &v) ||
                parse_flag(argv[i], "--leave-rank", &v)) &&
               v) {
      const bool join = std::strncmp(argv[i], "--join-rank", 11) == 0;
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr || std::atoi(v) < 0) {
        std::fprintf(stderr, "error: %s takes R:MS with R >= 0, got '%s'\n",
                     join ? "--join-rank" : "--leave-rank", v);
        return 2;
      }
      proto::MembershipEvent ev;
      ev.join = join;
      ev.rank = static_cast<std::uint32_t>(std::atoi(v));
      ev.at_ms = std::strtoull(colon + 1, nullptr, 10);
      cfg.membership.events.push_back(ev);
    } else if (parse_flag(argv[i], "--socket-dir", &v) && v) {
      cfg.socket.dir = v;
    } else if (parse_flag(argv[i], "--supervise", &v)) {
      cfg.socket.supervise = true;
    } else if (parse_flag(argv[i], "--max-respawns", &v) && v) {
      cfg.socket.max_respawns = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--kill-rank", &v) && v) {
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "error: --kill-rank takes R:MS, got '%s'\n", v);
        return 2;
      }
      cfg.socket.kill_rank = std::atoi(v);
      cfg.socket.kill_after_ms = std::strtoull(colon + 1, nullptr, 10);
      if (cfg.socket.kill_rank < 0) {
        std::fprintf(stderr, "error: --kill-rank rank must be >= 0, got '%s'\n", v);
        return 2;
      }
    } else if (parse_flag(argv[i], "--socket-outbound-kb", &v) && v) {
      const long long kb = std::atoll(v);
      if (kb < 1) {
        std::fprintf(stderr, "error: --socket-outbound-kb must be >= 1, got '%s'\n", v);
        return 2;
      }
      cfg.socket.outbound_budget = static_cast<std::uint64_t>(kb) * 1024;
      socket_budget_set = true;
    } else if (parse_flag(argv[i], "--latency-model", &v) && v) {
      if (std::string(v) == "none") {
        cfg.latency_model = runtime::LatencyModelKind::kNone;
      } else if (std::string(v) == "matrix") {
        cfg.latency_model = runtime::LatencyModelKind::kMatrix;
      } else if (std::string(v) == "jitter") {
        cfg.latency_model = runtime::LatencyModelKind::kJitter;
      } else {
        usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "--reliable-rto-ms", &v) && v) {
      if (std::string(v) == "auto") {
        cfg.reliable_cfg.adaptive_rto = true;
        cfg.reliable = true;
        continue;
      }
      const long long rto_ms = std::atoll(v);
      if (rto_ms <= 0) {  // also catches non-numeric input (atoll -> 0)
        std::fprintf(stderr,
                     "error: --reliable-rto-ms must be a positive integer or 'auto', "
                     "got '%s'\n",
                     v);
        return 2;
      }
      cfg.reliable_cfg.rto_us = static_cast<std::uint64_t>(rto_ms) * 1000;
      cfg.reliable = true;
    } else if (parse_flag(argv[i], "--reliable-sack", &v) && v) {
      if (std::string(v) == "on") {
        cfg.reliable_cfg.sack = true;
      } else if (std::string(v) == "off") {
        cfg.reliable_cfg.sack = false;
      } else {
        std::fprintf(stderr, "error: --reliable-sack takes on|off, got '%s'\n", v);
        return 2;
      }
      sack_flag_set = true;
    } else if (parse_flag(argv[i], "--reliable", &v)) {
      cfg.reliable = true;
    } else if (parse_flag(argv[i], "--scenario-seed", &v) && v) {
      scenario_seed = std::strtoull(v, nullptr, 10);
      scenario_seed_set = true;
    } else if (parse_flag(argv[i], "--scenario-file", &v) && v) {
      scenario_file = v;
    } else if (parse_flag(argv[i], "--scenario-print", &v)) {
      scenario_print = true;
    } else if (parse_flag(argv[i], "--partition-spec", &v) && v) {
      if (!runtime::parse_partition_spec(v, cfg.partitions)) {
        std::fprintf(stderr, "error: malformed --partition-spec '%s'\n", v);
        return 2;
      }
    } else if (parse_flag(argv[i], "--chaos-reorder", &v) && v) {
      cfg.chaos.reorder_p = std::atof(v);
    } else if (parse_flag(argv[i], "--chaos-stall-ms", &v) && v) {
      cfg.chaos.reorder_stall_us = static_cast<std::uint64_t>(std::atoll(v)) * 1000;
    } else if (parse_flag(argv[i], "--chaos-duplicate", &v) && v) {
      cfg.chaos.duplicate_p = std::atof(v);
    } else if (parse_flag(argv[i], "--chaos-drop", &v) && v) {
      // [CLASS:]P — e.g. "0.1", "replication:0.1", "all:0.05".
      std::string spec(v);
      if (const auto colon = spec.find(':'); colon != std::string::npos) {
        const std::string cls = spec.substr(0, colon);
        if (cls == "replication") {
          cfg.chaos.drop_class = runtime::ChaosDropClass::kReplication;
        } else if (cls == "requests") {
          cfg.chaos.drop_class = runtime::ChaosDropClass::kRequests;
        } else if (cls == "all") {
          cfg.chaos.drop_class = runtime::ChaosDropClass::kAll;
        } else {
          std::fprintf(stderr, "error: unknown --chaos-drop class '%s'\n", cls.c_str());
          return 2;
        }
        spec = spec.substr(colon + 1);
      }
      cfg.chaos.drop_p = std::atof(spec.c_str());
    } else if (parse_flag(argv[i], "--dcs", &v) && v) {
      cfg.num_dcs = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--partitions", &v) && v) {
      cfg.num_partitions = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--replication", &v) && v) {
      cfg.replication = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--threads", &v) && v) {
      cfg.threads_per_process = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--ops", &v) && v) {
      cfg.workload.ops_per_tx = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--writes", &v) && v) {
      cfg.workload.writes_per_tx = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--parts-per-tx", &v) && v) {
      cfg.workload.partitions_per_tx = static_cast<std::uint32_t>(std::atoi(v));
    } else if (parse_flag(argv[i], "--multi", &v) && v) {
      cfg.workload.multi_dc_ratio = std::atof(v);
    } else if (parse_flag(argv[i], "--keys", &v) && v) {
      cfg.workload.keys_per_partition = static_cast<std::uint64_t>(std::atoll(v));
    } else if (parse_flag(argv[i], "--zipf", &v) && v) {
      cfg.workload.zipf_theta = std::atof(v);
    } else if (parse_flag(argv[i], "--key-dist", &v) && v) {
      if (!workload::parse_key_dist(v, &cfg.workload.key_dist)) {
        std::fprintf(stderr,
                     "error: --key-dist takes zipf|uniform|zipf-ri|hotspot, got '%s'\n", v);
        return 2;
      }
    } else if (parse_flag(argv[i], "--hot-keys", &v) && v) {
      cfg.workload.hot_key_frac = std::atof(v);
    } else if (parse_flag(argv[i], "--hot-access", &v) && v) {
      cfg.workload.hot_access_frac = std::atof(v);
    } else if (parse_flag(argv[i], "--arrival-rate", &v) && v) {
      cfg.openloop.arrival_rate = std::atof(v);
      cfg.openloop.enabled = true;
    } else if (parse_flag(argv[i], "--sessions", &v) && v) {
      cfg.openloop.sessions = static_cast<std::uint32_t>(std::atoi(v));
      sessions_set = true;
    } else if (parse_flag(argv[i], "--rate-profile", &v) && v) {
      if (!workload::parse_rate_profile(v, &cfg.openloop.profile)) {
        std::fprintf(stderr,
                     "error: --rate-profile takes constant|diurnal|flash, got '%s'\n", v);
        return 2;
      }
      profile_set = true;
    } else if (parse_flag(argv[i], "--flash-at-ms", &v) && v) {
      cfg.openloop.flash_at_us = static_cast<std::uint64_t>(std::atoll(v)) * 1000;
    } else if (parse_flag(argv[i], "--flash-len-ms", &v) && v) {
      cfg.openloop.flash_len_us = static_cast<std::uint64_t>(std::atoll(v)) * 1000;
    } else if (parse_flag(argv[i], "--flash-mult", &v) && v) {
      cfg.openloop.flash_mult = std::atof(v);
    } else if (parse_flag(argv[i], "--trace", &v) && v) {
      cfg.openloop.trace_path = v;
      cfg.openloop.enabled = true;
    } else if (parse_flag(argv[i], "--warmup-ms", &v) && v) {
      cfg.warmup_us = static_cast<sim::SimTime>(std::atoll(v)) * 1000;
    } else if (parse_flag(argv[i], "--measure-ms", &v) && v) {
      cfg.measure_us = static_cast<sim::SimTime>(std::atoll(v)) * 1000;
    } else if (parse_flag(argv[i], "--seed", &v) && v) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--uniform-latency", &v)) {
      cfg.aws_latency = false;
    } else if (parse_flag(argv[i], "--visibility", &v)) {
      cfg.measure_visibility = true;
    } else if (parse_flag(argv[i], "--check", &v)) {
      cfg.check_consistency = true;
    } else if (parse_flag(argv[i], "--codec-bytes", &v)) {
      cfg.codec = sim::CodecMode::kBytes;
    } else if (parse_flag(argv[i], "--help", &v)) {
      usage(argv[0], 0);
    } else {
      usage(argv[0]);
    }
  }

  // Scenario resolution: generate from seed (cell picked by --system/
  // --runtime) or decode a corpus file (which pins both), then fold the
  // schedule onto the config. Folding overwrites cluster shape, run window
  // and every fault knob — socket port/dir flags still apply on top.
  if (scenario_seed_set && !scenario_file.empty()) {
    std::fprintf(stderr, "error: --scenario-seed and --scenario-file are exclusive\n");
    return 2;
  }
  if (scenario_print && !scenario_seed_set && scenario_file.empty()) {
    std::fprintf(stderr,
                 "error: --scenario-print needs --scenario-seed or --scenario-file\n");
    return 2;
  }
  if (scenario_seed_set || !scenario_file.empty()) {
    scenario::Scenario sc;
    if (!scenario_file.empty()) {
      std::ifstream in(scenario_file);
      if (!in.good()) {
        std::fprintf(stderr, "error: cannot read --scenario-file '%s'\n",
                     scenario_file.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      if (!scenario::decode_scenario(text.str(), sc)) {
        std::fprintf(stderr, "error: malformed scenario file '%s'\n",
                     scenario_file.c_str());
        return 2;
      }
    } else {
      if (cfg.runtime == runtime::Kind::kSim) {
        std::fprintf(stderr,
                     "error: --scenario-seed requires --runtime=threads or sockets "
                     "(schedules drive the transport decorator chain)\n");
        return 2;
      }
      scenario::ScenarioOptions opts;
      opts.system = cfg.system;
      opts.runtime = cfg.runtime;
      sc = scenario::generate_scenario(scenario_seed, opts);
    }
    if (scenario_print) {
      std::fputs(scenario::encode_scenario(sc).c_str(), stdout);
      return 0;
    }
    scenario::apply_scenario(sc, cfg);
    std::printf("scenario: %s\n", scenario::describe(sc).c_str());
  }

  if (cfg.runtime == runtime::Kind::kSim &&
      (cfg.latency_model != runtime::LatencyModelKind::kNone || cfg.chaos.enabled() ||
       cfg.reliable || cfg.partitions.enabled())) {
    std::fprintf(stderr,
                 "error: --latency-model/--chaos-*/--reliable/--partition-spec require "
                 "--runtime=threads or sockets (the simulator models the network "
                 "itself)\n");
    return 2;
  }
  if (sack_flag_set && !cfg.reliable) {
    std::fprintf(stderr,
                 "error: --reliable-sack requires --reliable (there is no ack "
                 "machinery to configure without it)\n");
    return 2;
  }
  if (cfg.runtime != runtime::Kind::kSockets &&
      (cfg.socket.processes != 0 || !cfg.socket.dir.empty() || cfg.socket.supervise ||
       cfg.socket.kill_rank >= 0 || socket_budget_set)) {
    std::fprintf(stderr,
                 "error: --processes/--socket-dir/--supervise/--kill-rank/"
                 "--socket-outbound-kb require --runtime=sockets\n");
    return 2;
  }
  if (cfg.socket.kill_rank >= 0 && !cfg.socket.supervise) {
    std::fprintf(stderr,
                 "error: --kill-rank without --supervise would just fail the run "
                 "fast (nothing respawns the killed rank)\n");
    return 2;
  }
  if (cfg.runtime == runtime::Kind::kSockets) {
    const std::uint32_t nprocs = cfg.socket.resolve_processes(cfg.num_dcs);
    if (nprocs < 1 || nprocs > cfg.num_dcs) {
      std::fprintf(stderr,
                   "error: --processes must be in [1, dcs] (process r owns the DCs "
                   "with dc mod N == r)\n");
      return 2;
    }
    if (!cfg.socket.hosts.empty()) {
      std::string host_err;
      if (!runtime::validate_host_list(cfg.socket.hosts, nprocs, &host_err)) {
        std::fprintf(stderr, "error: --hosts: %s\n", host_err.c_str());
        return 2;
      }
    }
  } else if (!cfg.socket.hosts.empty()) {
    std::fprintf(stderr, "error: --hosts requires --runtime=sockets\n");
    return 2;
  }
  if (cfg.membership.enabled()) {
    if (cfg.runtime == runtime::Kind::kSim) {
      std::fprintf(stderr,
                   "error: --join-rank/--leave-rank require --runtime=threads or "
                   "sockets (view changes ride the live runtimes)\n");
      return 2;
    }
    if (cfg.socket.supervise) {
      std::fprintf(stderr,
                   "error: --join-rank/--leave-rank are exclusive with --supervise "
                   "(elastic membership and rank respawn fence epochs differently)\n");
      return 2;
    }
    // sockets: R is a process rank (its DCs are dc mod N == R); threads: R
    // names the DC itself.
    const std::uint32_t ranks = cfg.runtime == runtime::Kind::kSockets
                                    ? cfg.socket.resolve_processes(cfg.num_dcs)
                                    : cfg.num_dcs;
    for (const proto::MembershipEvent& ev : cfg.membership.events) {
      if (ev.rank >= ranks) {
        std::fprintf(stderr, "error: %s names rank %u outside [0, %u)\n",
                     ev.join ? "--join-rank" : "--leave-rank", ev.rank, ranks);
        return 2;
      }
      if (ev.at_ms * 1000 >= cfg.warmup_us + cfg.measure_us) {
        std::fprintf(stderr,
                     "error: %s=%u:%llu schedules the view change after the run ends "
                     "(%llu ms)\n",
                     ev.join ? "--join-rank" : "--leave-rank", ev.rank,
                     static_cast<unsigned long long>(ev.at_ms),
                     static_cast<unsigned long long>((cfg.warmup_us + cfg.measure_us) /
                                                     1000));
        return 2;
      }
    }
  }
  if (!cfg.reliable && cfg.chaos.drop_p > 0 &&
      cfg.chaos.drop_class != runtime::ChaosDropClass::kReplication) {
    std::fprintf(stderr,
                 "warning: --chaos-drop=%s without --reliable will wedge request/"
                 "response traffic (transactions stall instead of converging)\n",
                 runtime::chaos_drop_class_name(cfg.chaos.drop_class));
  }
  if (!cfg.reliable && cfg.partitions.enabled()) {
    std::fprintf(stderr,
                 "warning: --partition-spec without --reliable loses every message "
                 "crossing a blackout (no retransmission after heal)\n");
  }
  if (!cfg.openloop.trace_path.empty() && profile_set) {
    std::fprintf(stderr,
                 "error: --trace and --rate-profile are exclusive (a trace IS the "
                 "arrival process)\n");
    return 2;
  }
  if ((sessions_set || profile_set) && !cfg.openloop.enabled) {
    std::fprintf(stderr,
                 "error: --sessions/--rate-profile require open-loop mode "
                 "(--arrival-rate or --trace)\n");
    return 2;
  }
  if (cfg.openloop.enabled && cfg.openloop.trace_path.empty() &&
      cfg.openloop.arrival_rate <= 0) {
    std::fprintf(stderr, "error: --arrival-rate must be positive\n");
    return 2;
  }
  if (!cfg.openloop.trace_path.empty() &&
      cfg.openloop.trace_path.find_first_of(" \t") != std::string::npos) {
    std::fprintf(stderr,
                 "error: --trace paths with whitespace are not supported (the socket "
                 "config codec is line-oriented)\n");
    return 2;
  }
  if (cfg.workload.key_dist == workload::KeyDistKind::kHotspot &&
      (cfg.workload.hot_key_frac <= 0 || cfg.workload.hot_key_frac >= 1 ||
       cfg.workload.hot_access_frac <= 0 || cfg.workload.hot_access_frac >= 1)) {
    std::fprintf(stderr, "error: --hot-keys/--hot-access must be in (0, 1)\n");
    return 2;
  }
  if (cfg.workload.key_dist != workload::KeyDistKind::kZipfRejection &&
      cfg.workload.zipf_theta >= 1.0) {
    std::fprintf(stderr,
                 "error: --zipf >= 1 needs --key-dist=zipf-ri (the YCSB generator's "
                 "zeta diverges)\n");
    return 2;
  }

  std::printf("system=%s M=%u N=%u R=%u (%.0f machines/DC) threads=%u\n",
              proto::system_name(cfg.system), cfg.num_dcs, cfg.num_partitions,
              cfg.replication, cfg.machines_per_dc(), cfg.threads_per_process);
  // Only announced for the real runtimes: the default sim header stays
  // byte-identical across releases (the determinism tests diff it).
  if (cfg.runtime != runtime::Kind::kSim) {
    if (cfg.runtime == runtime::Kind::kThreads) {
      // Same default as the deployment: one worker per server node.
      const cluster::Topology topo({cfg.num_dcs, cfg.num_partitions, cfg.replication});
      std::printf("runtime: threads, %u workers (hw concurrency %u), latency model %s\n",
                  cfg.worker_threads != 0 ? cfg.worker_threads : topo.total_servers(),
                  std::thread::hardware_concurrency(),
                  runtime::latency_model_name(cfg.latency_model));
    } else {
      std::printf(
          "runtime: sockets, %u processes (hw concurrency %u), latency model %s, "
          "outbound budget %llu KiB\n",
          cfg.socket.resolve_processes(cfg.num_dcs), std::thread::hardware_concurrency(),
          runtime::latency_model_name(cfg.latency_model),
          static_cast<unsigned long long>(cfg.socket.outbound_budget / 1024));
      if (cfg.socket.supervise) {
        std::printf("supervise: respawn budget %u", cfg.socket.max_respawns);
        if (cfg.socket.kill_rank >= 0) {
          std::printf(", SIGKILL rank %d at %llu ms", cfg.socket.kill_rank,
                      static_cast<unsigned long long>(cfg.socket.kill_after_ms));
        }
        std::printf("\n");
      }
    }
    for (const proto::MembershipEvent& ev : cfg.membership.events) {
      std::printf("membership: rank %u %s at %llu ms\n", ev.rank,
                  ev.join ? "joins" : "leaves",
                  static_cast<unsigned long long>(ev.at_ms));
    }
    if (cfg.chaos.enabled()) {
      std::printf("chaos: reorder=%.2f (stall %llu ms) duplicate=%.2f drop=%s:%.2f\n",
                  cfg.chaos.reorder_p,
                  static_cast<unsigned long long>(cfg.chaos.reorder_stall_us / 1000),
                  cfg.chaos.duplicate_p,
                  runtime::chaos_drop_class_name(cfg.chaos.drop_class), cfg.chaos.drop_p);
    }
    if (cfg.reliable) {
      if (cfg.reliable_cfg.adaptive_rto) {
        std::printf("reliable: at-least-once, rto auto (Jacobson/Karels), sack %s\n",
                    cfg.reliable_cfg.sack ? "on" : "off");
      } else {
        std::printf("reliable: at-least-once, rto %llu ms, sack %s\n",
                    static_cast<unsigned long long>(cfg.reliable_cfg.rto_us / 1000),
                    cfg.reliable_cfg.sack ? "on" : "off");
      }
    }
    for (const auto& w : cfg.partitions.windows) {
      if (w.isolate_all) {
        std::printf("partition: DC %u isolated %llu..%llu ms\n", w.a,
                    static_cast<unsigned long long>(w.start_us / 1000),
                    static_cast<unsigned long long>(w.end_us / 1000));
      } else {
        std::printf("partition: DC %u <-> DC %u cut %llu..%llu ms\n", w.a, w.b,
                    static_cast<unsigned long long>(w.start_us / 1000),
                    static_cast<unsigned long long>(w.end_us / 1000));
      }
    }
  }
  std::printf("workload: %s\n", cfg.workload.describe().c_str());
  // Announced only when the new modes are on: the default sim stdout stays
  // byte-identical across releases (the determinism tests diff it).
  if (cfg.openloop.enabled) {
    if (!cfg.openloop.trace_path.empty()) {
      std::printf("open loop: trace replay from %s, %u logical sessions/engine\n",
                  cfg.openloop.trace_path.c_str(), cfg.openloop.sessions);
    } else {
      std::printf("open loop: %.0f tx/s target, %s profile, %u logical sessions/engine\n",
                  cfg.openloop.arrival_rate,
                  workload::rate_profile_name(cfg.openloop.profile), cfg.openloop.sessions);
    }
  }

  const auto res = workload::run_experiment(cfg);

  std::printf("\nthroughput      %10.1f ktx/s (%s tx in %.0f ms)\n",
              res.throughput_tx_s / 1000.0, stats::with_commas(res.committed).c_str(),
              cfg.measure_us / 1000.0);
  std::printf("latency mean    %10.2f ms\n", res.latency_us.mean / 1000.0);
  std::printf("latency p50     %10.2f ms\n", res.latency_us.p50 / 1000.0);
  std::printf("latency p95     %10.2f ms\n", res.latency_us.p95 / 1000.0);
  std::printf("latency p99     %10.2f ms\n", res.latency_us.p99 / 1000.0);
  if (cfg.openloop.enabled) {
    const double ratio = res.intended_rate_tx_s > 0
                             ? res.achieved_rate_tx_s / res.intended_rate_tx_s
                             : 0.0;
    std::printf("open loop       %10.1f tx/s intended -> %.1f tx/s achieved (%.1f %%)\n",
                res.intended_rate_tx_s, res.achieved_rate_tx_s, ratio * 100.0);
    std::printf("intended p50    %10.2f ms   p99 %10.2f ms  (from scheduled arrival)\n",
                res.intended_us.p50 / 1000.0, res.intended_us.p99 / 1000.0);
    std::printf("service  p50    %10.2f ms   p99 %10.2f ms  (from actual start)\n",
                res.service_us.p50 / 1000.0, res.service_us.p99 / 1000.0);
    std::printf("overdue         %10s of %s scheduled, max backlog %s\n",
                stats::with_commas(res.overdue).c_str(),
                stats::with_commas(res.scheduled).c_str(),
                stats::with_commas(res.max_backlog).c_str());
    std::printf("workload digest %#18llx\n",
                static_cast<unsigned long long>(res.workload_digest));
  }
  if (res.blocked_reads > 0) {
    std::printf("blocked reads   %10s (avg %.1f ms)\n",
                stats::with_commas(res.blocked_reads).c_str(), res.avg_block_ms);
  }
  if (cfg.measure_visibility && res.visibility_hist.count() > 0) {
    std::printf("visibility p50  %10.2f ms\n",
                res.visibility_hist.percentile(0.5) / 1000.0);
    std::printf("visibility p99  %10.2f ms\n",
                res.visibility_hist.percentile(0.99) / 1000.0);
  }
  if (res.chaos.stalled + res.chaos.duplicated + res.chaos.dropped > 0) {
    std::printf("chaos injected  %10s stalls, %s duplicates, %s drops\n",
                stats::with_commas(res.chaos.stalled).c_str(),
                stats::with_commas(res.chaos.duplicated).c_str(),
                stats::with_commas(res.chaos.dropped).c_str());
  }
  if (res.partition.dropped > 0) {
    std::printf("partition drops %10s messages eaten by blackouts\n",
                stats::with_commas(res.partition.dropped).c_str());
  }
  if (res.wan.shaped > 0) {
    std::printf("wan shaping     %10s shaped, %s burst-dropped, %s duplicated, "
                "%s queued behind pipes (%s ms total wait)\n",
                stats::with_commas(res.wan.shaped).c_str(),
                stats::with_commas(res.wan.ge_dropped).c_str(),
                stats::with_commas(res.wan.duplicated).c_str(),
                stats::with_commas(res.wan.bw_queued).c_str(),
                stats::with_commas(res.wan.bw_wait_us / 1000).c_str());
  }
  if (res.fuzz.mutated + res.fuzz.replays > 0) {
    std::printf("frame fuzzing   %10s mutated (%s rejected / %s parsed-then-"
                "discarded), %s replays of %s captured\n",
                stats::with_commas(res.fuzz.mutated).c_str(),
                stats::with_commas(res.fuzz.rejected_validate).c_str(),
                stats::with_commas(res.fuzz.accepted_validate).c_str(),
                stats::with_commas(res.fuzz.replays).c_str(),
                stats::with_commas(res.fuzz.captured).c_str());
  }
  if (cfg.reliable) {
    std::printf("reliable layer  %10s frames, %s retransmits, %s dup-frames dropped, "
                "%s coalesced, %s sack-skips\n",
                stats::with_commas(res.reliable.frames_sent).c_str(),
                stats::with_commas(res.reliable.retransmits).c_str(),
                stats::with_commas(res.reliable.dup_frames).c_str(),
                stats::with_commas(res.reliable.coalesced).c_str(),
                stats::with_commas(res.reliable.sacked_skips).c_str());
  }
  if (cfg.runtime == runtime::Kind::kSockets) {
    std::printf("socket pump     %10s frames out, %s in, %s partial reads, "
                "%s short writes, %s reconnects\n",
                stats::with_commas(res.socket.frames_out).c_str(),
                stats::with_commas(res.socket.frames_in).c_str(),
                stats::with_commas(res.socket.partial_reads).c_str(),
                stats::with_commas(res.socket.short_writes).c_str(),
                stats::with_commas(res.socket.reconnects).c_str());
    std::printf("socket io       %10s syscalls (%.2f/frame, %s bytes/syscall), "
                "%s flushes, %s backpressure stalls%s\n",
                stats::with_commas(res.socket.read_syscalls +
                                   res.socket.write_syscalls).c_str(),
                res.socket.syscalls_per_frame(),
                stats::with_commas(
                    static_cast<std::uint64_t>(res.socket.bytes_per_syscall())).c_str(),
                stats::with_commas(res.socket.flushes).c_str(),
                stats::with_commas(res.socket.backpressure_stalls).c_str(),
                res.socket.backpressure_drops != 0 ? " (some shed)" : "");
    if (cfg.socket.supervise) {
      std::printf("self-healing    %10s respawns, %s snapshots / %s catchups served, "
                  "%s prepared fenced, %s stale-epoch fenced, %s redials\n",
                  stats::with_commas(res.respawns).c_str(),
                  stats::with_commas(res.snapshots_served).c_str(),
                  stats::with_commas(res.catchups_served).c_str(),
                  stats::with_commas(res.prepared_fenced).c_str(),
                  stats::with_commas(res.socket.fenced_stale_epoch).c_str(),
                  stats::with_commas(res.socket.redial_attempts).c_str());
    }
  }
  std::printf("local-hit rate  %10.1f %%   max client cache %zu entries\n",
              res.local_hit_rate * 100.0, res.max_client_cache);
  std::printf("sim events      %10s    bytes on wire %s\n",
              stats::with_commas(res.sim_events).c_str(),
              stats::with_commas(res.bytes_sent).c_str());

  // Violations can also arrive without --check (a socket child crashing or
  // timing out is reported this way); any of them fails the run.
  if (!res.violations.empty()) {
    for (const auto& viol : res.violations) std::printf("VIOLATION: %s\n", viol.c_str());
    return 1;
  }
  if (cfg.check_consistency) {
    std::printf("consistency     OK (exactness checker passed)\n");
  }
  return 0;
}
