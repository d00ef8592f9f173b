// scenario_runner — seeded adversarial fault-schedule fuzzing (DESIGN §13).
//
// Fuzz mode (default): draws N seeded scenarios (DC partitions, WAN link
// episodes, chaos, live channel fuzzing, clock skew, rank kills), runs each
// through run_experiment with the consistency checker on, and expects every
// one to converge checker-clean. A violating schedule is greedily shrunk to
// a minimal repro (every remaining event is load-bearing) and written as a
// corpus file for CI to replay forever.
//
// Replay mode (--replay/--replay-dir): re-runs committed corpus scenarios
// and fails if any violates again.
//
// Examples:
//   scenario_runner --seeds=25 --system=both --runtime=threads
//   scenario_runner --seeds=5 --runtime=sockets --listen-base-port=7850
//   scenario_runner --replay-dir=tests/corpus
//   scenario_runner --seeds=6 --emit-corpus=tests/corpus   # pin green seeds

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/endpoint.h"
#include "scenario/scenario.h"
#include "workload/socket_runner.h"

using namespace paris;

namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kDefaultTimeScale = 5;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr std::uint64_t kDefaultTimeScale = 5;
#else
constexpr std::uint64_t kDefaultTimeScale = 1;
#endif
#else
constexpr std::uint64_t kDefaultTimeScale = 1;
#endif

[[noreturn]] void usage(const char* argv0, int exit_code = 2) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds=N               scenarios per (system, runtime) cell (default 20)\n"
      "  --seed-base=S           first seed (default 1)\n"
      "  --system=paris|bpr|both protocol(s) under test (default both)\n"
      "  --runtime=threads|sockets|both\n"
      "                          backend(s) to fuzz (default threads)\n"
      "  --no-minimize           keep violating schedules as drawn (default:\n"
      "                          greedy event-drop shrink to a minimal repro)\n"
      "  --corpus-out=DIR        write violating (shrunk) schedules here\n"
      "                          (default scenario-corpus)\n"
      "  --emit-corpus=DIR       also write every CLEAN schedule here (used to\n"
      "                          pin regression seeds into tests/corpus)\n"
      "  --replay=FILE           replay one corpus file (repeatable; disables\n"
      "                          fuzz mode)\n"
      "  --replay-dir=DIR        replay every *.scenario file in DIR\n"
      "  --print                 print each schedule before running it\n"
      "  --time-scale=K          stretch all schedule windows by K (default %llu;\n"
      "                          sanitizer builds auto-scale)\n"
      "  --listen-base-port=P    sockets: this runner's own port block; each\n"
      "                          scenario's N ranks listen on 127.0.0.1:P..P+N-1\n"
      "                          (default 7800; paris_sim has no such flag,\n"
      "                          it takes --hosts)\n"
      "  --socket-dir=PATH       sockets: per-child logs + results (default:\n"
      "                          fresh temp dirs)\n"
      "  --help                  this text\n",
      argv0, static_cast<unsigned long long>(kDefaultTimeScale));
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

struct RunnerOptions {
  std::uint64_t seeds = 20;
  std::uint64_t seed_base = 1;
  std::vector<proto::System> systems{proto::System::kParis, proto::System::kBpr};
  std::vector<runtime::Kind> runtimes{runtime::Kind::kThreads};
  bool minimize = true;
  bool print = false;
  std::string corpus_out = "scenario-corpus";
  std::string emit_corpus;
  std::vector<std::string> replay_files;
  std::uint64_t time_scale = kDefaultTimeScale;
  std::uint16_t base_port = 7800;
  std::string socket_dir;
};

struct RunOutcome {
  bool clean = false;
  std::vector<std::string> violations;
  workload::ExperimentResult res;
};

/// One full experiment for the scenario; socket fields the scenario does not
/// own (host list, artifact dir) come from the runner options. The host list
/// is expanded here, after apply_scenario, because each scenario picks its
/// own process count.
RunOutcome run_scenario(const scenario::Scenario& s, const RunnerOptions& opt,
                        const char* tag) {
  workload::ExperimentConfig cfg;
  scenario::apply_scenario(s, cfg);
  if (s.runtime == runtime::Kind::kSockets) {
    cfg.socket.hosts = runtime::loopback_host_list(
        cfg.socket.resolve_processes(cfg.num_dcs), opt.base_port);
    if (!opt.socket_dir.empty()) {
      cfg.socket.dir = opt.socket_dir + "/" + tag;
    }
  }
  RunOutcome out;
  out.res = workload::run_experiment(cfg);
  out.violations = out.res.violations;
  out.clean = out.violations.empty();
  return out;
}

void print_outcome(const scenario::Scenario& s, const RunOutcome& o) {
  const auto& r = o.res;
  std::printf("  %s: %s committed=%llu retx=%llu wan[shaped=%llu ge_drop=%llu "
              "bw_q=%llu dup=%llu] fuzz[mut=%llu rej=%llu acc=%llu replay=%llu] "
              "partition_drop=%llu respawns=%llu\n",
              scenario::describe(s).c_str(), o.clean ? "OK" : "VIOLATION",
              static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.reliable.retransmits),
              static_cast<unsigned long long>(r.wan.shaped),
              static_cast<unsigned long long>(r.wan.ge_dropped),
              static_cast<unsigned long long>(r.wan.bw_queued),
              static_cast<unsigned long long>(r.wan.duplicated),
              static_cast<unsigned long long>(r.fuzz.mutated),
              static_cast<unsigned long long>(r.fuzz.rejected_validate),
              static_cast<unsigned long long>(r.fuzz.accepted_validate),
              static_cast<unsigned long long>(r.fuzz.replays),
              static_cast<unsigned long long>(r.partition.dropped),
              static_cast<unsigned long long>(r.respawns));
  std::fflush(stdout);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  return out.good();
}

void mkdir_p(const std::string& dir) {
  std::string cmd = "mkdir -p '" + dir + "'";
  (void)std::system(cmd.c_str());
}

std::string corpus_name(const scenario::Scenario& s) {
  std::ostringstream o;
  o << "seed-" << s.seed << '-' << (s.system == proto::System::kBpr ? "bpr" : "paris")
    << '-' << (s.runtime == runtime::Kind::kSockets ? "sockets" : "threads")
    << ".scenario";
  return o.str();
}

/// Fuzz one (seed, system, runtime) cell; returns true when checker-clean.
bool fuzz_one(std::uint64_t seed, proto::System sys, runtime::Kind rt,
              const RunnerOptions& opt) {
  scenario::ScenarioOptions gen;
  gen.system = sys;
  gen.runtime = rt;
  gen.time_scale = opt.time_scale;
  scenario::Scenario s = scenario::generate_scenario(seed, gen);
  if (opt.print) std::printf("%s", scenario::encode_scenario(s).c_str());
  const std::string tag = corpus_name(s);
  RunOutcome o = run_scenario(s, opt, tag.c_str());
  print_outcome(s, o);
  if (o.clean) {
    if (!opt.emit_corpus.empty()) {
      mkdir_p(opt.emit_corpus);
      write_file(opt.emit_corpus + "/" + tag, scenario::encode_scenario(s));
    }
    return true;
  }
  for (const auto& v : o.violations) std::printf("    %s\n", v.c_str());

  scenario::Scenario repro = s;
  if (opt.minimize && !s.events.empty()) {
    std::uint32_t probes = 0;
    repro = scenario::shrink_scenario(
        s,
        [&opt, &tag](const scenario::Scenario& cand) {
          return !run_scenario(cand, opt, tag.c_str()).clean;
        },
        &probes);
    std::printf("  shrunk %zu -> %zu events in %u probes\n", s.events.size(),
                repro.events.size(), probes);
  }
  mkdir_p(opt.corpus_out);
  std::ostringstream text;
  text << scenario::encode_scenario(repro);
  text << "# violating schedule";
  if (opt.minimize) text << " (minimized)";
  text << "; first violation:\n";
  text << "# " << (o.violations.empty() ? "(none recorded)" : o.violations.front())
       << '\n';
  const std::string path = opt.corpus_out + "/" + tag;
  write_file(path, text.str());
  std::printf("  repro written to %s\n", path.c_str());
  return false;
}

bool replay_one(const std::string& path, const RunnerOptions& opt) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  scenario::Scenario s;
  if (!in.good() && ss.str().empty()) {
    std::fprintf(stderr, "replay: cannot read %s\n", path.c_str());
    return false;
  }
  if (!scenario::decode_scenario(ss.str(), s)) {
    std::fprintf(stderr, "replay: malformed scenario file %s\n", path.c_str());
    return false;
  }
  // Corpus files are pinned at real-time scale; sanitizer builds (or an
  // explicit --time-scale) stretch every window before running.
  scenario::scale_time(s, opt.time_scale);
  std::printf("replay %s\n", path.c_str());
  const std::string tag = "replay-" + corpus_name(s);
  const RunOutcome o = run_scenario(s, opt, tag.c_str());
  print_outcome(s, o);
  for (const auto& v : o.violations) std::printf("    %s\n", v.c_str());
  return o.clean;
}

}  // namespace

int main(int argc, char** argv) {
  // Socket children re-exec this binary; the hook runs their share of the
  // experiment and exits. A normal invocation falls straight through.
  workload::maybe_run_socket_child(argc, argv);

  RunnerOptions opt;
  std::string replay_dir;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--seeds", &v) && v) {
      opt.seeds = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--seed-base", &v) && v) {
      opt.seed_base = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--system", &v) && v) {
      if (std::string(v) == "paris") {
        opt.systems = {proto::System::kParis};
      } else if (std::string(v) == "bpr") {
        opt.systems = {proto::System::kBpr};
      } else if (std::string(v) == "both") {
        opt.systems = {proto::System::kParis, proto::System::kBpr};
      } else {
        usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "--runtime", &v) && v) {
      if (std::string(v) == "threads") {
        opt.runtimes = {runtime::Kind::kThreads};
      } else if (std::string(v) == "sockets") {
        opt.runtimes = {runtime::Kind::kSockets};
      } else if (std::string(v) == "both") {
        opt.runtimes = {runtime::Kind::kThreads, runtime::Kind::kSockets};
      } else {
        usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "--no-minimize", &v)) {
      opt.minimize = false;
    } else if (parse_flag(argv[i], "--corpus-out", &v) && v) {
      opt.corpus_out = v;
    } else if (parse_flag(argv[i], "--emit-corpus", &v) && v) {
      opt.emit_corpus = v;
    } else if (parse_flag(argv[i], "--replay", &v) && v) {
      opt.replay_files.push_back(v);
    } else if (parse_flag(argv[i], "--replay-dir", &v) && v) {
      replay_dir = v;
    } else if (parse_flag(argv[i], "--print", &v)) {
      opt.print = true;
    } else if (parse_flag(argv[i], "--time-scale", &v) && v) {
      opt.time_scale = std::strtoull(v, nullptr, 10);
    } else if (parse_flag(argv[i], "--listen-base-port", &v) && v) {
      const long port = std::atol(v);
      if (port <= 0 || port > 65000) {
        std::fprintf(stderr, "error: --listen-base-port must be in [1, 65000]\n");
        return 2;
      }
      opt.base_port = static_cast<std::uint16_t>(port);
    } else if (parse_flag(argv[i], "--socket-dir", &v) && v) {
      opt.socket_dir = v;
    } else if (parse_flag(argv[i], "--help", &v)) {
      usage(argv[0], 0);
    } else {
      usage(argv[0]);
    }
  }

  if (!replay_dir.empty()) {
    DIR* d = opendir(replay_dir.c_str());
    if (d == nullptr) {
      std::fprintf(stderr, "replay: cannot open directory %s\n", replay_dir.c_str());
      return 2;
    }
    std::vector<std::string> found;
    while (dirent* ent = readdir(d)) {
      const std::string name = ent->d_name;
      if (name.size() > 9 && name.substr(name.size() - 9) == ".scenario") {
        found.push_back(replay_dir + "/" + name);
      }
    }
    closedir(d);
    std::sort(found.begin(), found.end());  // deterministic replay order
    opt.replay_files.insert(opt.replay_files.end(), found.begin(), found.end());
    if (found.empty()) {
      std::fprintf(stderr, "replay: no *.scenario files in %s\n", replay_dir.c_str());
      return 2;
    }
  }

  if (!opt.replay_files.empty()) {
    int failures = 0;
    for (const auto& f : opt.replay_files) {
      if (!replay_one(f, opt)) ++failures;
    }
    std::printf("replayed %zu corpus scenarios, %d violating\n", opt.replay_files.size(),
                failures);
    return failures == 0 ? 0 : 1;
  }

  std::uint64_t total = 0, failed = 0;
  for (const auto rt : opt.runtimes) {
    for (const auto sys : opt.systems) {
      std::printf("fuzzing %s/%s: seeds %llu..%llu\n", proto::system_name(sys),
                  rt == runtime::Kind::kSockets ? "sockets" : "threads",
                  static_cast<unsigned long long>(opt.seed_base),
                  static_cast<unsigned long long>(opt.seed_base + opt.seeds - 1));
      for (std::uint64_t seed = opt.seed_base; seed < opt.seed_base + opt.seeds; ++seed) {
        ++total;
        if (!fuzz_one(seed, sys, rt, opt)) ++failed;
      }
    }
  }
  std::printf("%llu scenarios, %llu violating%s\n", static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(failed),
              failed != 0 ? " (repros in corpus dir)" : "");
  return failed == 0 ? 0 : 1;
}
