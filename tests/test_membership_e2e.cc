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
// 2-process cluster across two DISTINCT loopback IPs, the launcher's
// artifact-dir lifetime, the versioned launcher/child config codec (cfgver
// header, clear mixed-version errors), and the positional child-result codec
// (roundtrip, truncation, magic).
//
// This binary defines its own main(): the socket tests re-exec it as socket
// children, which maybe_run_socket_child() intercepts before gtest runs.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

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
// Artifact dirs: a dir the launcher made itself (under $TMPDIR) is removed
// after a clean run and kept, with the child logs, after a failed one; a
// --socket-dir belongs to the caller and is always kept.
// ---------------------------------------------------------------------------

ExperimentConfig one_process_config() {
  ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.runtime = runtime::Kind::kSockets;
  cfg.num_dcs = 1;
  cfg.num_partitions = 2;
  cfg.replication = 1;
  cfg.threads_per_process = 1;
  cfg.workload = WorkloadSpec::read_heavy();
  cfg.workload.keys_per_partition = 100;
  cfg.warmup_us = 50'000;
  cfg.measure_us = 150'000;
  cfg.seed = 109;
  cfg.aws_latency = false;
  cfg.check_consistency = true;
  cfg.socket.processes = 1;
  cfg.socket.hosts = runtime::loopback_host_list(1, 7991);
  return cfg;
}

/// Points $TMPDIR at a fresh dir for the test's lifetime.
class ScopedTmpdir {
 public:
  ScopedTmpdir() {
    std::string tmpl = "/tmp/paris-artifact-test-XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
    if (const char* old = std::getenv("TMPDIR")) old_ = old;
    setenv("TMPDIR", path_.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (old_.empty()) unsetenv("TMPDIR");
    else setenv("TMPDIR", old_.c_str(), 1);
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::vector<std::filesystem::path> entries() const {
    std::vector<std::filesystem::path> out;
    for (const auto& e : std::filesystem::directory_iterator(path_)) out.push_back(e.path());
    return out;
  }

 private:
  std::string path_;
  std::string old_;
};

TEST(SocketArtifacts, OwnDirIsRemovedAfterACleanRunAndKeptAfterAFailedOne) {
  ScopedTmpdir tmp;
  ASSERT_FALSE(tmp.path().empty());
  const ExperimentConfig cfg = one_process_config();
  const ExperimentResult clean = run_experiment(cfg);
  EXPECT_TRUE(clean.violations.empty());
  EXPECT_GT(clean.committed, 0u);
  EXPECT_TRUE(tmp.entries().empty()) << "a clean run left its artifact dir behind";

  // Hold the rank's listen port: the child cannot bind it and exits nonzero.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(7991);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  const ExperimentResult failed = run_experiment(cfg);
  ::close(fd);
  EXPECT_FALSE(failed.violations.empty());
  const auto kept = tmp.entries();
  ASSERT_EQ(kept.size(), 1u) << "a failed run must keep its artifact dir";
  EXPECT_TRUE(std::filesystem::exists(kept[0] / "child-0.log"));
}

TEST(SocketArtifacts, SocketDirIsKeptAfterACleanRun) {
  ScopedTmpdir tmp;
  ASSERT_FALSE(tmp.path().empty());
  ExperimentConfig cfg = one_process_config();
  cfg.socket.dir = tmp.path() + "/mine";
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_TRUE(res.violations.empty());
  EXPECT_TRUE(std::filesystem::exists(cfg.socket.dir + "/child-0.log"));
  EXPECT_TRUE(std::filesystem::exists(cfg.socket.dir + "/experiment.cfg"));
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

// ---------------------------------------------------------------------------
// Positional child-result codec.
// ---------------------------------------------------------------------------

ExperimentResult every_field_nonzero() {
  ExperimentResult r;
  std::uint64_t next = 1;  // distinct values expose a swapped or skipped slot
  for (std::uint64_t* f :
       {&r.committed, &r.blocked_reads, &r.gossip_msgs, &r.keys_read, &r.local_hits,
        &r.max_client_cache, &r.sim_events, &r.bytes_sent, &r.chaos.stalled,
        &r.chaos.duplicated, &r.chaos.dropped, &r.reliable.frames_sent,
        &r.reliable.retransmits, &r.reliable.fast_retransmits, &r.reliable.acks_sent,
        &r.reliable.dup_frames, &r.reliable.ooo_frames, &r.reliable.stale_acks,
        &r.reliable.coalesced, &r.reliable.sacked_skips, &r.reliable.malformed_acks,
        &r.reliable.rtt_samples, &r.reliable.channel_resets, &r.reliable.fenced_frames,
        &r.partition.dropped, &r.socket.frames_out, &r.socket.frames_in,
        &r.socket.bytes_out, &r.socket.bytes_in, &r.socket.partial_reads,
        &r.socket.short_writes, &r.socket.reconnects, &r.socket.dropped_dead,
        &r.socket.redial_attempts, &r.socket.redial_giveups, &r.socket.fenced_stale_epoch,
        &r.socket.malformed_frames, &r.socket.read_syscalls, &r.socket.write_syscalls,
        &r.socket.flushes, &r.socket.backpressure_stalls, &r.socket.backpressure_drops,
        &r.snapshots_served, &r.catchups_served, &r.prepared_fenced, &r.recovery_ms,
        &r.wan.shaped, &r.wan.ge_dropped, &r.wan.duplicated, &r.wan.bw_queued,
        &r.wan.bw_wait_us, &r.fuzz.mutated, &r.fuzz.flips, &r.fuzz.truncations,
        &r.fuzz.splices, &r.fuzz.rejected_validate, &r.fuzz.accepted_validate,
        &r.fuzz.replays, &r.fuzz.captured, &r.scheduled, &r.overdue, &r.max_backlog,
        &r.workload_digest}) {
    *f = next++;
  }
  r.avg_block_ms = 2.5;  // rides as blocked time: 2.5 ms x blocked_reads, exact
  for (stats::Histogram* h : {&r.latency_hist, &r.latency_local_hist, &r.latency_multi_hist,
                              &r.visibility_hist, &r.intended_hist, &r.service_hist}) {
    h->record(next++);
    h->record(1000 * next++);
  }
  return r;
}

TEST(ChildResultCodec, RoundtripsAndRejectsCorruption) {
  const ExperimentResult res = every_field_nonzero();
  const std::vector<std::uint8_t> history = {7, 0, 255, 42};
  std::vector<std::uint8_t> bytes;
  detail::encode_child_result(res, history, bytes);

  ExperimentResult out;
  std::vector<std::uint8_t> out_history;
  ASSERT_TRUE(detail::decode_child_result(bytes, out, out_history));
  EXPECT_EQ(out_history, history);
  EXPECT_EQ(out.committed, res.committed);
  EXPECT_EQ(out.avg_block_ms, res.avg_block_ms);
  EXPECT_EQ(out.workload_digest, res.workload_digest);
  EXPECT_EQ(out.service_hist.count(), res.service_hist.count());
  EXPECT_EQ(out.service_hist.max(), res.service_hist.max());
  // Every slot at once: the decoded result encodes to the very same bytes.
  std::vector<std::uint8_t> again;
  detail::encode_child_result(out, out_history, again);
  EXPECT_EQ(again, bytes);

  // Truncation at every length, which always loses the end-of-file trailer.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE(n);
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(n));
    ExperimentResult r;
    std::vector<std::uint8_t> h;
    EXPECT_FALSE(detail::decode_child_result(cut, r, h));
  }

  // A child from another build: the leading magic varint differs.
  std::vector<std::uint8_t> wrong_magic = bytes;
  wrong_magic[0] ^= 0x01;
  ExperimentResult r;
  std::vector<std::uint8_t> h;
  EXPECT_FALSE(detail::decode_child_result(wrong_magic, r, h));
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
