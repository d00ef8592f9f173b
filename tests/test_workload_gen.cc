// Workload-generator statistics and determinism (DESIGN §14):
//  - chi-square goodness-of-fit of every key distribution against
//    KeyPicker::pmf() over 1M draws (the pmf IS the analytic oracle),
//  - the hot-spot split is exact in expectation,
//  - draw sequences are byte-identical per seed across concurrent threads,
//  - the open-loop schedule digest is identical across the sim, thread and
//    3-process socket runtimes for the same (config, seed),
//  - trace / flag parsing rejects malformed input.
//
// This binary defines its own main(): the cross-runtime digest test re-execs
// it as socket children, which maybe_run_socket_child() intercepts before
// gtest runs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/endpoint.h"
#include "workload/experiment.h"
#include "workload/keydist.h"
#include "workload/openloop.h"
#include "workload/socket_runner.h"

namespace paris::workload {
namespace {

constexpr std::uint64_t kDraws = 1'000'000;

// Pearson chi-square statistic of `draws` samples from `picker` against its
// own analytic pmf, one bucket per rank. With n = 1000 ranks and 1M draws the
// smallest expected bucket is still > 40, so no tail merging is needed.
double chi_square(const KeyPicker& picker, std::uint64_t seed, std::uint64_t draws) {
  std::vector<std::uint64_t> observed(picker.n(), 0);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < draws; ++i) {
    const std::uint64_t r = picker.draw(rng);
    EXPECT_LT(r, picker.n());
    ++observed[r];
  }
  double chi2 = 0;
  for (std::uint64_t r = 0; r < picker.n(); ++r) {
    const double expected = picker.pmf(r) * static_cast<double>(draws);
    EXPECT_GT(expected, 5.0) << "bucket too thin for chi-square at rank " << r;
    const double d = static_cast<double>(observed[r]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// dof = n - 1 = 999. mean 999, stddev sqrt(2*999) ~ 44.7; 1250 is ~5.6 sigma
// — astronomically unlikely under the null, and the seeds are fixed anyway.
constexpr double kChi2Bound999 = 1250.0;

WorkloadSpec spec_with(KeyDistKind kind, double theta = 0.99) {
  WorkloadSpec w;
  w.keys_per_partition = 1000;
  w.key_dist = kind;
  w.zipf_theta = theta;
  return w;
}

TEST(KeyDist, PmfSumsToOneForEveryKind) {
  for (const KeyDistKind kind :
       {KeyDistKind::kZipfGray, KeyDistKind::kUniform, KeyDistKind::kZipfRejection,
        KeyDistKind::kHotspot}) {
    const KeyPicker picker(spec_with(kind));
    double sum = 0;
    for (std::uint64_t r = 0; r < picker.n(); ++r) sum += picker.pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9) << key_dist_name(kind);
  }
}

TEST(KeyDist, ZipfRejectionChiSquareMatchesAnalyticPmf) {
  const KeyPicker picker(spec_with(KeyDistKind::kZipfRejection, 0.99));
  EXPECT_LT(chi_square(picker, /*seed=*/1234, kDraws), kChi2Bound999);
}

TEST(KeyDist, ZipfRejectionSupportsThetaAboveOne) {
  // The Gray generator cannot do theta >= 1; rejection-inversion is exact.
  const KeyPicker picker(spec_with(KeyDistKind::kZipfRejection, 1.2));
  EXPECT_LT(chi_square(picker, /*seed=*/5678, kDraws), kChi2Bound999);
  // Skew sanity: pmf is strictly decreasing in rank.
  EXPECT_GT(picker.pmf(0), picker.pmf(1));
  EXPECT_GT(picker.pmf(1), picker.pmf(999));
}

TEST(KeyDist, UniformChiSquare) {
  const KeyPicker picker(spec_with(KeyDistKind::kUniform));
  EXPECT_LT(chi_square(picker, /*seed=*/42, kDraws), kChi2Bound999);
}

TEST(KeyDist, HotspotSplitIsExactInExpectation) {
  WorkloadSpec w = spec_with(KeyDistKind::kHotspot);
  w.hot_key_frac = 0.10;     // 100 hot ranks out of 1000
  w.hot_access_frac = 0.90;  // absorbing 90% of accesses
  const KeyPicker picker(w);
  ASSERT_EQ(picker.hot_n(), 100u);

  std::uint64_t hot_hits = 0;
  Rng rng(99);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    if (picker.draw(rng) < picker.hot_n()) ++hot_hits;
  }
  // Binomial stddev at p=0.9, 1M draws is ~3e-4; 0.005 is > 16 sigma.
  EXPECT_NEAR(static_cast<double>(hot_hits) / static_cast<double>(kDraws), 0.90, 0.005);
  // And the chi-square against pmf() covers uniformity within each set.
  EXPECT_LT(chi_square(picker, /*seed=*/99, kDraws), kChi2Bound999);
}

TEST(KeyDist, DrawSequenceIsByteIdenticalPerSeedAcrossThreads) {
  const KeyPicker picker(spec_with(KeyDistKind::kZipfRejection, 0.99));
  constexpr std::uint64_t kN = 100'000;
  constexpr std::uint64_t kSeed = 7;

  std::vector<std::uint64_t> reference;
  reference.reserve(kN);
  {
    Rng rng(kSeed);
    for (std::uint64_t i = 0; i < kN; ++i) reference.push_back(picker.draw(rng));
  }

  // Four threads hammer the SAME picker concurrently (draw() is const and
  // stateless) with private rngs; every sequence must equal the reference.
  std::vector<std::vector<std::uint64_t>> got(4);
  std::vector<std::thread> threads;
  for (auto& out : got) {
    threads.emplace_back([&picker, &out] {
      Rng rng(kSeed);
      out.reserve(kN);
      for (std::uint64_t i = 0; i < kN; ++i) out.push_back(picker.draw(rng));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& out : got) EXPECT_EQ(out, reference);
}

TEST(KeyDist, ParseNames) {
  KeyDistKind k;
  EXPECT_TRUE(parse_key_dist("zipf", &k));
  EXPECT_EQ(k, KeyDistKind::kZipfGray);
  EXPECT_TRUE(parse_key_dist("zipf-ri", &k));
  EXPECT_EQ(k, KeyDistKind::kZipfRejection);
  EXPECT_TRUE(parse_key_dist("uniform", &k));
  EXPECT_EQ(k, KeyDistKind::kUniform);
  EXPECT_TRUE(parse_key_dist("hotspot", &k));
  EXPECT_EQ(k, KeyDistKind::kHotspot);
  EXPECT_FALSE(parse_key_dist("zipfian", &k));
  RateProfile p;
  EXPECT_TRUE(parse_rate_profile("flash", &p));
  EXPECT_EQ(p, RateProfile::kFlash);
  EXPECT_FALSE(parse_rate_profile("spike", &p));
}

// ---------------------------------------------------------------------------
// Trace parsing.
// ---------------------------------------------------------------------------

std::string write_temp(const char* contents) {
  char path[] = "/tmp/paris_trace_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::write(fd, contents, std::strlen(contents)),
            static_cast<ssize_t>(std::strlen(contents)));
  ::close(fd);
  return path;
}

TEST(Trace, ParsesOffsetsKeysAndComments) {
  const std::string path = write_temp(
      "# comment\n"
      "0\n"
      "150 7\n"
      "\n"
      "900 42\n");
  std::vector<TraceEntry> out;
  std::string err;
  ASSERT_TRUE(load_trace(path, &out, &err)) << err;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].offset_us, 0u);
  EXPECT_FALSE(out[0].has_key);
  EXPECT_EQ(out[1].offset_us, 150u);
  EXPECT_TRUE(out[1].has_key);
  EXPECT_EQ(out[1].key_rank, 7u);
  EXPECT_EQ(out[2].key_rank, 42u);
  ::unlink(path.c_str());
}

TEST(Trace, RejectsUnsortedAndJunk) {
  std::vector<TraceEntry> out;
  std::string err;
  const std::string unsorted = write_temp("100\n50\n");
  EXPECT_FALSE(load_trace(unsorted, &out, &err));
  EXPECT_FALSE(err.empty());
  ::unlink(unsorted.c_str());

  const std::string junk = write_temp("100 notakey\n");
  EXPECT_FALSE(load_trace(junk, &out, &err));
  ::unlink(junk.c_str());

  EXPECT_FALSE(load_trace("/nonexistent/trace.txt", &out, &err));
}

// ---------------------------------------------------------------------------
// Cross-runtime schedule digest: the open-loop arrival schedule is a pure
// function of (config, seed), so the XOR-of-FNV digest must be identical on
// the deterministic simulator, real worker threads, and 3 real processes
// over TCP — regardless of scheduling, timing or process boundaries.
// ---------------------------------------------------------------------------

ExperimentConfig digest_config(runtime::Kind rt, std::uint16_t base_port) {
  ExperimentConfig cfg;
  cfg.runtime = rt;
  cfg.num_dcs = 3;
  cfg.num_partitions = 3;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload.keys_per_partition = 1000;
  cfg.workload.key_dist = KeyDistKind::kZipfRejection;
  cfg.workload.zipf_theta = 0.99;
  cfg.openloop.enabled = true;
  cfg.openloop.arrival_rate = 1200;
  cfg.warmup_us = 200'000;
  cfg.measure_us = 800'000;
  cfg.seed = 424242;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  if (rt == runtime::Kind::kSockets) {
    cfg.socket.processes = 3;
    cfg.socket.hosts = runtime::loopback_host_list(3, base_port);
  }
  return cfg;
}

TEST(OpenLoopDigest, IdenticalAcrossSimThreadsAndSocketProcesses) {
  const auto sim = run_experiment(digest_config(runtime::Kind::kSim, 0));
  const auto thr = run_experiment(digest_config(runtime::Kind::kThreads, 0));
  const auto sock = run_experiment(digest_config(runtime::Kind::kSockets, 7880));

  EXPECT_NE(sim.workload_digest, 0u);
  EXPECT_EQ(sim.workload_digest, thr.workload_digest);
  EXPECT_EQ(sim.workload_digest, sock.workload_digest)
      << "socket children must draw the same schedules and XOR-merge cleanly";

  for (const auto* r : {&sim, &thr, &sock}) {
    EXPECT_TRUE(r->violations.empty());
    EXPECT_GT(r->committed, 0u);
    EXPECT_GT(r->intended_rate_tx_s, 0.0);
  }

  // A different seed must change the schedule.
  auto reseeded = digest_config(runtime::Kind::kSim, 0);
  reseeded.seed = 424243;
  EXPECT_NE(run_experiment(reseeded).workload_digest, sim.workload_digest);
}

// ---------------------------------------------------------------------------
// Release precision: each arrival is released by a one-shot task at its
// scheduled instant, so on the simulator an arrival that finds an idle
// client starts at exactly its scheduled time and intended == service.
// ---------------------------------------------------------------------------

TEST(OpenLoopRelease, SimArrivalsWithIdleClientsStartAtTheirScheduledInstant) {
  ExperimentConfig cfg = digest_config(runtime::Kind::kSim, 0);
  // A pool far wider than the concurrency the rate needs: no arrival ever
  // waits for a client.
  cfg.threads_per_process = 8;
  cfg.openloop.arrival_rate = 600;
  const auto res = run_experiment(cfg);
  ASSERT_GT(res.committed, 100u);
  EXPECT_EQ(res.overdue, 0u);

  // started >= scheduled for every sample, so intended >= service per
  // sample; equal sums (the exact sum-over-count means) therefore mean every
  // single sample has intended == service.
  ASSERT_EQ(res.intended_hist.count(), res.service_hist.count());
  EXPECT_EQ(res.intended_hist.mean(), res.service_hist.mean())
      << "some arrival started after its scheduled instant";
  EXPECT_EQ(res.intended_hist.min(), res.service_hist.min());
  EXPECT_EQ(res.intended_hist.max(), res.service_hist.max());
}

}  // namespace
}  // namespace paris::workload

// The digest test above re-execs this binary as socket children; the hook
// must intercept them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
