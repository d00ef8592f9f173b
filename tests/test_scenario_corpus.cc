// Corpus-replay suite: every committed tests/corpus/*.scenario file — each
// one a schedule that either found a real bug (minimized repro) or pins a
// representative generated cell — must replay checker-clean forever. The
// files are pinned at real-time scale; sanitizer builds stretch them through
// scenario::scale_time so instrumentation slowdown never reads as loss.
//
// Socket scenarios re-exec this binary as children, so it defines its own
// main() with the maybe_run_socket_child() hook (same pattern as
// test_recovery.cc). Port registry: this suite owns the block
// [kCorpusBasePort, kCorpusBasePort + kCorpusPortBlock), disjoint from every
// other suite so `ctest -j` never collides; socket scenarios take
// consecutive sub-ranges of it, and the suite fails if the corpus outgrows
// the block rather than spilling into a neighbour's ports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/endpoint.h"
#include "scenario/scenario.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::test {
namespace {

namespace fs = std::filesystem;
using scenario::Scenario;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kTimeScale = 5;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr std::uint64_t kTimeScale = 5;
#else
constexpr std::uint64_t kTimeScale = 1;
#endif
#else
constexpr std::uint64_t kTimeScale = 1;
#endif

constexpr std::uint16_t kCorpusBasePort = 7740;
constexpr std::uint16_t kCorpusPortBlock = 60;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(PARIS_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioCorpus, EveryPinnedScheduleReplaysClean) {
  const std::vector<fs::path> files = corpus_files();
  // The acceptance floor: a thinned-out corpus is a silent loss of
  // regression coverage, so the suite fails rather than passing vacuously.
  ASSERT_GE(files.size(), 5u) << "corpus at " << PARIS_CORPUS_DIR << " lost files";

  std::uint32_t next_port = kCorpusBasePort;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "unreadable corpus file";
    std::ostringstream text;
    text << in.rdbuf();

    Scenario s;
    ASSERT_TRUE(scenario::decode_scenario(text.str(), s))
        << "corpus file no longer decodes — codec/version skew";
    scenario::scale_time(s, kTimeScale);
    SCOPED_TRACE(scenario::describe(s));

    workload::ExperimentConfig cfg;
    scenario::apply_scenario(s, cfg);
    if (s.runtime == runtime::Kind::kSockets) {
      ASSERT_LE(next_port + s.socket_processes, kCorpusBasePort + kCorpusPortBlock)
          << "the corpus outgrew its port block; widen kCorpusPortBlock into free "
             "ports (tools/check_docs.py lists the registry)";
      cfg.socket.hosts = runtime::loopback_host_list(s.socket_processes,
                                                     static_cast<std::uint16_t>(next_port));
      next_port += s.socket_processes;
    }
    const workload::ExperimentResult res = workload::run_experiment(cfg);

    for (const auto& v : res.violations) ADD_FAILURE() << v;
    EXPECT_GT(res.committed, 0u) << "replay starved the workload";
    if (s.has_kill()) {
      EXPECT_GE(res.respawns, 1u) << "kill schedule replayed without a respawn";
    }
  }
}

}  // namespace
}  // namespace paris::test

// Socket scenarios re-exec this binary as children; the hook must intercept
// them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
