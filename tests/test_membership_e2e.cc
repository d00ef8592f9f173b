// Elastic membership end to end (DESIGN §11): a DC scheduled to join
// mid-run starts outside every replica set, state-transfers from a donor
// replica once its view change fires, then serves in the new replica sets —
// and the whole history (including the cross-process merge on sockets) stays
// checker-clean. A scheduled leave drains without violations. Both systems
// are covered on real worker threads and on 3 real OS processes over TCP;
// the socket launcher additionally fails the run if a joined DC never served
// a read slice, so "join happened on paper only" cannot pass silently.
//
// Also covered here: the cross-host addressing surface (--hosts) driving a
// 2-process cluster across two DISTINCT loopback IPs, and the versioned
// launcher/child config codec (cfgver header, clear mixed-version errors).
//
// This binary defines its own main(): the socket tests re-exec it as socket
// children, which maybe_run_socket_child() intercepts before gtest runs.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "runtime/endpoint.h"
#include "workload/experiment.h"
#include "workload/socket_runner.h"

namespace paris::workload {
namespace {

ExperimentConfig memb_config(proto::System sys, runtime::Kind rt,
                             std::uint16_t base_port, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.runtime = rt;
  cfg.num_dcs = 3;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.keys_per_partition = 500;
  cfg.warmup_us = 200'000;
  // Sockets crawl under sanitizers; give the joiner a longer serving tail.
  cfg.measure_us = rt == runtime::Kind::kSockets ? 1'600'000 : 1'000'000;
  cfg.seed = seed;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  cfg.codec = sim::CodecMode::kBytes;
  if (rt == runtime::Kind::kSockets) {
    cfg.socket.processes = 3;
    // base_port 0: a codec-only config, encoded but never launched.
    if (base_port != 0) cfg.socket.hosts = runtime::loopback_host_list(3, base_port);
    cfg.reliable = true;  // beacons converge views; retransmission heals data
  }
  return cfg;
}

// On threads rank R IS the DC; on 3-process sockets rank R owns exactly DC R
// (dc mod 3 == R), so the same event means the same DC everywhere here.
void schedule_join(ExperimentConfig& cfg, std::uint32_t rank, std::uint64_t at_ms) {
  proto::MembershipEvent ev;
  ev.join = true;
  ev.rank = rank;
  ev.at_ms = at_ms;
  cfg.membership.events.push_back(ev);
}

void schedule_leave(ExperimentConfig& cfg, std::uint32_t rank, std::uint64_t at_ms) {
  proto::MembershipEvent ev;
  ev.join = false;
  ev.rank = rank;
  ev.at_ms = at_ms;
  cfg.membership.events.push_back(ev);
}

void expect_clean(const ExperimentResult& res) {
  for (const auto& v : res.violations) ADD_FAILURE() << v;
  EXPECT_GT(res.committed, 100u);
}

// ---------------------------------------------------------------------------
// Threads: join under load, leave under load, both systems.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, ParisJoinOnThreadsIsCheckerClean) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kThreads, 0, 101);
  schedule_join(cfg, 2, 400);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprJoinOnThreadsIsCheckerClean) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kThreads, 0, 102);
  schedule_join(cfg, 2, 400);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, ParisLeaveOnThreadsDrainsCleanly) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kThreads, 0, 103);
  schedule_leave(cfg, 1, 700);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprLeaveOnThreadsDrainsCleanly) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kThreads, 0, 104);
  schedule_leave(cfg, 1, 700);
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Sockets: the same schedules across 3 real processes. The launcher merges
// every child's history, runs the exactness checker on the union, and
// asserts the joined DC actually served slices.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, ParisJoinAcrossThreeProcessesIsCheckerClean) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 7951, 105);
  schedule_join(cfg, 2, 500);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, BprJoinAcrossThreeProcessesIsCheckerClean) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kSockets, 7961, 106);
  schedule_join(cfg, 2, 500);
  expect_clean(run_experiment(cfg));
}

TEST(MembershipE2E, ParisLeaveAcrossThreeProcessesDrainsCleanly) {
  auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 7971, 107);
  schedule_leave(cfg, 1, 1000);
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Cross-host addressing: an explicit host list drives a 2-process cluster
// across two DISTINCT loopback IPs — no base_port + rank arithmetic anywhere
// in the path.
// ---------------------------------------------------------------------------

TEST(MembershipE2E, HostListSpansTwoLoopbackIPs) {
  ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.num_dcs = 2;
  cfg.num_partitions = 4;
  cfg.replication = 2;
  cfg.threads_per_process = 2;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.keys_per_partition = 500;
  cfg.warmup_us = 200'000;
  cfg.measure_us = 800'000;
  cfg.seed = 108;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  cfg.reliable = true;
  cfg.socket.processes = 2;
  std::string err;
  ASSERT_TRUE(runtime::parse_host_list("127.0.0.1:7981,127.0.0.2:7981",
                                       &cfg.socket.hosts, &err))
      << err;
  expect_clean(run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Versioned launcher/child config codec.
// ---------------------------------------------------------------------------

TEST(ConfigCodec, RoundtripsHostsAndMembershipSchedule) {
  auto cfg = memb_config(proto::System::kBpr, runtime::Kind::kSockets, 0, 42);
  schedule_join(cfg, 2, 500);
  schedule_leave(cfg, 1, 900);
  std::string err;
  ASSERT_TRUE(runtime::parse_host_list("127.0.0.1:9001,10.0.0.2:9002,hostc:9003",
                                       &cfg.socket.hosts, &err))
      << err;

  const std::string text = detail::encode_experiment_config(cfg);
  EXPECT_EQ(text.rfind("cfgver ", 0), 0u) << "cfgver must be the first line";

  ExperimentConfig out;
  ASSERT_TRUE(detail::decode_experiment_config(text, out, &err)) << err;
  ASSERT_EQ(out.socket.hosts.size(), 3u);
  EXPECT_EQ(out.socket.hosts[1].host, "10.0.0.2");
  EXPECT_EQ(out.socket.hosts[1].port, 9002);
  EXPECT_EQ(out.socket.hosts[2].str(), "hostc:9003");
  ASSERT_EQ(out.membership.events.size(), 2u);
  EXPECT_TRUE(out.membership.events[0].join);
  EXPECT_EQ(out.membership.events[0].rank, 2u);
  EXPECT_EQ(out.membership.events[0].at_ms, 500u);
  EXPECT_FALSE(out.membership.events[1].join);
  EXPECT_EQ(out.membership.events[1].rank, 1u);
  EXPECT_EQ(out.membership.events[1].at_ms, 900u);
}

TEST(ConfigCodec, MissingHeaderFailsWithClearMessage) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 0, 1);
  std::string text = detail::encode_experiment_config(cfg);
  text = text.substr(text.find('\n') + 1);  // strip the cfgver line

  ExperimentConfig out;
  std::string err;
  EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
  EXPECT_NE(err.find("cfgver"), std::string::npos) << err;
  EXPECT_NE(err.find("older"), std::string::npos) << err;
}

TEST(ConfigCodec, VersionSkewNamesBothVersions) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 0, 1);
  std::string text = detail::encode_experiment_config(cfg);
  const std::size_t eol = text.find('\n');
  text = "cfgver 999\n" + text.substr(eol + 1);

  ExperimentConfig out;
  std::string err;
  EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
  EXPECT_NE(err.find("v999"), std::string::npos) << err;
  EXPECT_NE(err.find("version skew"), std::string::npos) << err;
}

TEST(ConfigCodec, UnknownKeyWithinMatchingVersionStillFails) {
  const auto cfg = memb_config(proto::System::kParis, runtime::Kind::kSockets, 0, 1);
  // A knob from the future, and keys that codec v3 retired: the io_uring pump
  // switch, the unbatched-I/O switch and the base-port alias.
  const std::pair<std::string, std::string> lines[] = {{"some_future_knob", "7"},
                                                       {"socket_pump", "1"},
                                                       {"socket_batch_io", "0"},
                                                       {"socket_base_port", "7421"}};
  for (const auto& [key, value] : lines) {
    SCOPED_TRACE(key);
    const std::string text =
        detail::encode_experiment_config(cfg) + key + " " + value + "\n";

    ExperimentConfig out;
    std::string err;
    EXPECT_FALSE(detail::decode_experiment_config(text, out, &err));
    EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace paris::workload

// The socket tests re-exec this binary as children; the hook must intercept
// them before gtest parses argv (it exits in the child).
int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
