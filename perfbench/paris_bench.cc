// paris_bench — one pass of the repository benchmark. perfbench/run.py runs
// the passes in fresh processes and turns their JSON into metrics;
// perfbench/README.md says what each workload and metric is for.
//
//   paris_bench --pass P --workload W --seed N --seconds S
//               [--out FILE] [--dir DIR] [--rank R --start-at NS]
//
// Passes (every layer is measured from outside, through public entry points):
//   timed    builds the proto::Deployment here and drives it with the
//            library's own OpenLoopEngines, tracing off: latency histograms,
//            layer counters, the schedule digest and a fixed host
//            calibration kernel timed before and after the run.
//   traced   the same deployment driven by this file's replayer, which issues
//            the same pre-drawn schedules with steady-clock spans around
//            every proto::Client call.
//   setup    kSetupProbes set-up probes: build the share, start, tear down.
//   checked  run_experiment() with the exactness, causal and session checkers.
//   digest   the open-loop schedule digest only (recorded in baseline.json).
//
// timed and traced write the events of sampled transactions, recorded by a
// proto::Tracer subclass and the spans, to DIR/events-<rank>.tsv. On the
// socket workload run.py starts one timed or traced process per rank.
//
// The deployment's own randomness (clock offsets, timer phases) is drawn
// from a fixed seed, and only the workload from --seed: update visibility
// depends on the timer phases, and across deployment seeds it moves by a
// fifth, which would drown any change a benchmark run should show.
//
// The JSON written to --out (stdout when absent) is read by run.py only.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "proto/deployment.h"
#include "proto/tracer.h"
#include "runtime/endpoint.h"
#include "stats/histogram.h"
#include "stats/latency_recorder.h"
#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/openloop.h"
#include "workload/socket_runner.h"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARIS_BENCH_UNTIMEABLE 1
#endif

namespace paris::bench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::OpenLoopEngine;
using workload::TxPlan;

constexpr std::uint64_t kWarmupUs = 1'000'000;
constexpr std::uint64_t kDeploymentSeed = 1;
/// Visibility and trace sampling: 1 in 16 TxIds, the protocol's own default.
constexpr std::uint32_t kSampleShift = 4;
constexpr std::uint64_t kSampleMask = (1u << kSampleShift) - 1;
/// Per setup pass; run.py runs one before the timed pass and one after the
/// checked pass, so the probes span the run instead of one moment of it.
constexpr int kSetupProbes = 7;
/// Checked pass: short windows, because the checkers keep the whole history.
constexpr std::uint64_t kCheckedWarmupUs = 300'000;
constexpr std::uint64_t kCheckedMeasureUs = 2'000'000;
/// The open-loop engine's release cadence, mirrored by the traced replayer.
constexpr std::uint64_t kPumpPeriodUs = 200;
/// Ports 7521-7523 are this benchmark's; no test or other bench uses them.
constexpr const char* kSocketHosts = "127.0.0.1:7521,127.0.0.1:7522,127.0.0.1:7523";

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "paris_bench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads. All are PaRiS on 3 DCs x 6 partitions x R=2 (12 servers), 20
// operations over 4 partitions per transaction, Zipf 0.99 over 100k keys per
// partition, open-loop Poisson arrivals. README.md gives the reason for each.
// ---------------------------------------------------------------------------

bool is_sockets(const std::string& w) { return w == "read95-sockets"; }

ExperimentConfig make_config(const std::string& w, std::uint64_t seed, std::uint64_t seconds) {
  ExperimentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.runtime = runtime::Kind::kThreads;
  cfg.num_dcs = 3;
  cfg.num_partitions = 6;
  cfg.replication = 2;
  cfg.workload.ops_per_tx = 20;
  cfg.workload.partitions_per_tx = 4;
  cfg.workload.keys_per_partition = 100'000;
  cfg.workload.zipf_theta = 0.99;
  cfg.workload.multi_dc_ratio = 0.05;
  cfg.seed = seed;
  cfg.warmup_us = kWarmupUs;
  cfg.measure_us = seconds * 1'000'000;
  cfg.measure_visibility = true;
  cfg.visibility_sample_shift = kSampleShift;
  cfg.aws_latency = false;
  cfg.openloop.enabled = true;
  cfg.threads_per_process = 4;  // clients per open-loop engine
  if (w == "read95" || w == "read95-sockets") {
    cfg.workload.writes_per_tx = 1;
    cfg.openloop.arrival_rate = 25'000;
    cfg.worker_threads = 3;
    if (is_sockets(w)) {
      cfg.runtime = runtime::Kind::kSockets;
      cfg.worker_threads = 1;
      cfg.socket.processes = 3;
      std::string err;
      if (!runtime::parse_host_list(kSocketHosts, &cfg.socket.hosts, &err)) die(err);
    }
  } else if (w == "write50") {
    cfg.workload.writes_per_tx = 10;
    // About a quarter of capacity. A saturating closed loop is not used: its
    // throughput follows the host's speed phases, which halve it on a shared
    // 4-vCPU host, far beyond any bound a change can be held to.
    cfg.openloop.arrival_rate = 12'000;
    cfg.worker_threads = 4;
  } else if (w == "geo-write50") {
    cfg.workload.writes_per_tx = 10;
    // 2% multi-DC keeps p95 among local transactions; at 5%, 4.7% of
    // transactions cross the WAN and p95 sits next to a 100x latency cliff.
    cfg.workload.multi_dc_ratio = 0.02;
    cfg.openloop.arrival_rate = 3'000;
    cfg.threads_per_process = 16;
    cfg.worker_threads = 3;
    cfg.aws_latency = true;
    cfg.latency_model = runtime::LatencyModelKind::kMatrix;
  } else {
    die("unknown workload '" + w + "'");
  }
  return cfg;
}

/// The open-loop engine of (dc, partition), seeded as run_experiment seeds
/// it, so every pass draws the same schedule (run.py compares digests).
std::unique_ptr<OpenLoopEngine> make_engine(const cluster::Topology& topo,
                                            const ExperimentConfig& cfg, DcId d,
                                            PartitionId p, std::uint32_t index) {
  const std::uint64_t seed = splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                                        (static_cast<std::uint64_t>(p) << 20) ^ 0xA5A5ULL);
  return std::make_unique<OpenLoopEngine>(topo, cfg.workload, cfg.openloop, d, p, index,
                                          cfg.num_partitions * cfg.replication,
                                          cfg.warmup_us + cfg.measure_us, seed, nullptr);
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

/// Peak resident set of this process, in MiB.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

/// Host drift guard: a fixed single-thread integer kernel, best of three
/// windows, in ns per step. A busier or slower host reads higher.
double calib_ns() {
  constexpr int kSteps = 1 << 22;
  static volatile std::uint64_t sink = 0;
  std::uint64_t x = sink + 1;
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) x = splitmix64(x);
    best = std::min(best, std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                              kSteps);
  }
  sink = x;
  return best;
}

/// Flat JSON object writer for run.py.
class Json {
 public:
  void num(const char* k, double v) { key(k) += fmt(v); }
  void num(const char* k, std::uint64_t v) { key(k) += std::to_string(v); }
  void nums(const char* k, const std::vector<double>& vs) {
    std::string& s = key(k);
    s += "[";
    for (std::size_t i = 0; i < vs.size(); ++i) s += (i ? ", " : "") + fmt(vs[i]);
    s += "]";
  }
  /// A histogram as [lower bound, width, count] per non-empty bucket: values
  /// are grouped by power of two, each group split into kSubBuckets linear
  /// buckets (group 0 holds the exact values below kSubBuckets).
  void hist(const char* k, const stats::Histogram& h) {
    std::string& s = key(k);
    s += "[";
    bool first = true;
    for (const auto& [idx, count] : h.raw().buckets) {
      const std::uint32_t group = idx / stats::Histogram::kSubBuckets;
      const std::uint64_t sub = idx % stats::Histogram::kSubBuckets;
      const std::uint64_t lo =
          group == 0 ? sub : (stats::Histogram::kSubBuckets + sub) << (group - 1);
      const std::uint64_t width = group == 0 ? 1 : 1ull << (group - 1);
      s += (first ? "[" : ", [") + std::to_string(lo) + ", " + std::to_string(width) + ", " +
           std::to_string(count) + "]";
      first = false;
    }
    s += "]";
  }
  void write(const std::string& path) const {
    std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (f == nullptr) die("cannot write " + path);
    std::fprintf(f, "{%s}\n", body_.c_str());
    if (f != stdout) std::fclose(f);
  }

 private:
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::string& key(const char* k) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(k) + "\": ";
    return body_;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Passes over run_experiment().
// ---------------------------------------------------------------------------

void pass_checked(ExperimentConfig cfg, const std::string& dir, const std::string& out) {
  cfg.socket.dir = dir;
  cfg.warmup_us = kCheckedWarmupUs;
  cfg.measure_us = kCheckedMeasureUs;
  cfg.check_consistency = true;
  const ExperimentResult r = workload::run_experiment(cfg);
  for (const auto& v : r.violations) std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
  Json j;
  j.num("committed", r.committed);
  j.num("violations", static_cast<std::uint64_t>(r.violations.size()));
  j.write(out);
}

void pass_digest(const ExperimentConfig& cfg, const std::string& out) {
  const cluster::Topology topo(
      cluster::TopologyConfig{cfg.num_dcs, cfg.num_partitions, cfg.replication});
  std::uint64_t digest = 0;
  std::uint32_t index = 0;
  for (DcId d = 0; d < topo.num_dcs(); ++d) {
    for (PartitionId p : topo.partitions_at(d)) {
      digest ^= make_engine(topo, cfg, d, p, index++)->digest();
    }
  }
  Json j;
  j.num("digest", digest);
  j.write(out);
}

// ---------------------------------------------------------------------------
// Events of sampled transactions.
// ---------------------------------------------------------------------------

enum EventKind : std::uint16_t {
  kTx = 0,            ///< span: scheduled arrival -> commit done
  kDispatch = 1,      ///< span: scheduled arrival -> start_tx call
  kStart = 2,         ///< span: Client::start_tx call -> callback
  kRead = 3,          ///< span: Client::read call -> callback
  kCommit = 4,        ///< span: Client::commit call -> callback
  kSnapshotAge = 5,   ///< instant: snapshot assigned; value = its age in us
  kCommitWrites = 6,  ///< instant: write set reached the coordinator
  kDecided = 7,       ///< instant: commit timestamp decided; dc = origin
  kApplied = 8,       ///< instant: replica (dc, partition) applied the writes
  kVisible = 9,       ///< instant: the writes became visible at (dc, partition)
};

/// One event of a sampled transaction; tx is the request id (TxId raw).
struct Event {
  std::uint64_t tx = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t value = 0;
  std::uint16_t kind = 0;
  std::uint32_t dc = 0;
  std::uint32_t partition = 0;
};

bool sampled(TxId tx) { return (splitmix64(tx.raw) & kSampleMask) == 0; }

/// Per-thread event buffers: appends take no lock; a thread registers its
/// buffer once per log. Read only after every worker thread has been joined.
class EventLog {
 public:
  EventLog() : id_(next_id_.fetch_add(1)) {}
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void add(const Event& e) { local().push_back(e); }

  void write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) die("cannot write " + path);
    for (const auto& buf : bufs_) {
      for (const Event& e : *buf) {
        std::fprintf(f, "%u\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRId64 "\t%u\t%u\n",
                     e.kind, e.tx, e.begin_ns, e.end_ns, e.value, e.dc, e.partition);
      }
    }
    std::fclose(f);
  }

 private:
  std::vector<Event>& local() {
    // Keyed by log id, not address: a later log may reuse a freed one's.
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<Event>* buf = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      bufs_.push_back(std::make_unique<std::vector<Event>>());
      buf = bufs_.back().get();
      buf->reserve(1 << 14);
      owner = id_;
    }
    return *buf;
  }

  static inline std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Event>>> bufs_;
};

/// Server-side layer boundaries through the public Tracer hooks. Untraced
/// runs record only what update visibility needs (commit decided, visible).
class BenchTracer : public proto::Tracer {
 public:
  BenchTracer(EventLog& log, bool traced) : log_(log), traced_(traced) {}

  void on_tx_started(NodeId, TxId tx, Timestamp snapshot, sim::SimTime now) override {
    if (!traced_ || !sampled(tx)) return;
    const std::uint64_t t = now_ns();
    log_.add({tx.raw, t, t,
              static_cast<std::int64_t>(now) - static_cast<std::int64_t>(snapshot.physical_us()),
              kSnapshotAge, 0, 0});
  }
  void on_commit_writes(TxId tx, DcId origin, const std::vector<wire::WriteKV>&) override {
    if (traced_) instant(tx, kCommitWrites, origin, 0);
  }
  void on_commit_decided(TxId tx, Timestamp, DcId origin, sim::SimTime) override {
    instant(tx, kDecided, origin, 0);
  }
  void on_applied(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime) override {
    if (traced_) instant(tx, kApplied, dc, p);
  }
  void on_visible(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime) override {
    instant(tx, kVisible, dc, p);
  }
  void on_slice_served(DcId, PartitionId, TxId, Timestamp, std::uint8_t,
                       const std::vector<wire::Item>&, sim::SimTime) override {
    if (traced_) slices_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_ust_advance(DcId, PartitionId, Timestamp, sim::SimTime) override {
    if (traced_) ust_advances_.fetch_add(1, std::memory_order_relaxed);
  }
  bool want_visibility(TxId tx) const override { return sampled(tx); }

  std::uint64_t slices() const { return slices_.load(); }
  std::uint64_t ust_advances() const { return ust_advances_.load(); }

 private:
  void instant(TxId tx, EventKind kind, DcId dc, PartitionId p) {
    if (!sampled(tx)) return;
    const std::uint64_t t = now_ns();
    log_.add({tx.raw, t, t, 0, kind, dc, p});
  }

  EventLog& log_;
  const bool traced_;
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> ust_advances_{0};
};

// ---------------------------------------------------------------------------
// Traced driver.
// ---------------------------------------------------------------------------

/// Issued/completed tallies shared by every replayer of the traced pass.
struct Tally {
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
};

/// Runs one transaction through the Client API with a steady-clock span
/// around each call. `due_ns` is when the transaction was due. `done` runs
/// on the client's context.
void run_traced_tx(proto::Client& c, const TxPlan& plan, std::uint64_t due_ns, EventLog& log,
                   Tally& tally, std::function<void()> done) {
  tally.issued.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t call_ns = now_ns();
  c.start_tx([&c, &plan, &log, &tally, due_ns, call_ns, done](TxId tx, Timestamp) {
    const std::uint64_t started_ns = now_ns();
    const auto commit = [&c, &plan, &log, &tally, tx, due_ns, call_ns, started_ns, done](
                            std::uint64_t read_ns, std::uint64_t read_done_ns) {
      if (!plan.writes.empty()) c.write(plan.writes);
      const std::uint64_t commit_ns = now_ns();
      c.commit([&log, &tally, tx, due_ns, call_ns, started_ns, read_ns, read_done_ns, commit_ns,
                done](Timestamp) {
        const std::uint64_t done_ns = now_ns();
        if (sampled(tx)) {
          log.add({tx.raw, due_ns, done_ns, 0, kTx, 0, 0});
          log.add({tx.raw, due_ns, call_ns, 0, kDispatch, 0, 0});
          log.add({tx.raw, call_ns, started_ns, 0, kStart, 0, 0});
          if (read_ns != 0) log.add({tx.raw, read_ns, read_done_ns, 0, kRead, 0, 0});
          log.add({tx.raw, commit_ns, done_ns, 0, kCommit, 0, 0});
        }
        tally.completed.fetch_add(1, std::memory_order_relaxed);
        done();
      });
    };
    if (plan.reads.empty()) {
      commit(0, 0);
      return;
    }
    const std::uint64_t read_ns = now_ns();
    c.read(plan.reads, [commit, read_ns](std::vector<wire::Item>) { commit(read_ns, now_ns()); });
  });
}

/// Releases one engine's pre-drawn schedule onto its client pool as
/// OpenLoopEngine does — a kPumpPeriodUs pump, a FIFO backlog, completions
/// chaining the next queued arrival — with every Client call traced.
class Replayer {
 public:
  Replayer(runtime::Executor& exec, std::unique_ptr<OpenLoopEngine> eng,
           std::vector<proto::Client*> clients, EventLog& log, Tally& tally)
      : exec_(exec), eng_(std::move(eng)), clients_(std::move(clients)), log_(log),
        tally_(tally) {}
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  std::uint64_t digest() const { return eng_->digest(); }

  /// Releases arrivals with offsets below until_us, anchored at t0_us
  /// (executor time) == t0_ns (steady clock).
  void start(std::uint64_t t0_us, std::uint64_t t0_ns, std::uint64_t until_us) {
    t0_us_ = t0_us;
    t0_ns_ = t0_ns;
    until_us_ = until_us;
    for (std::size_t i = 0; i < clients_.size(); ++i) idle_.push_back(i);
    pump_ = exec_.every(clients_[0]->node(), kPumpPeriodUs, kPumpPeriodUs, [this] { pump(); });
  }

 private:
  void pump() {
    const std::uint64_t now = exec_.now_us();
    const auto& sched = eng_->schedule();
    std::lock_guard<std::mutex> lk(mu_);
    while (next_ < sched.size() && sched[next_].at_us < until_us_ &&
           t0_us_ + sched[next_].at_us <= now) {
      backlog_.push_back(next_++);
    }
    while (!backlog_.empty() && !idle_.empty()) {
      const std::size_t ci = idle_.back();
      idle_.pop_back();
      const std::size_t ai = backlog_.front();
      backlog_.pop_front();
      exec_.post(clients_[ci]->node(), [this, ci, ai] { run(ci, ai); });
    }
  }

  void run(std::size_t ci, std::size_t ai) {
    const auto& a = eng_->schedule()[ai];
    run_traced_tx(*clients_[ci], a.plan, t0_ns_ + a.at_us * 1000, log_, tally_,
                  [this, ci] { done(ci); });
  }

  void done(std::size_t ci) {
    std::size_t next_ai = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (backlog_.empty()) {
        idle_.push_back(ci);
      } else {
        next_ai = backlog_.front();
        backlog_.pop_front();
      }
    }
    if (next_ai != SIZE_MAX) run(ci, next_ai);
  }

  runtime::Executor& exec_;
  std::unique_ptr<OpenLoopEngine> eng_;
  std::vector<proto::Client*> clients_;
  EventLog& log_;
  Tally& tally_;
  std::uint64_t t0_us_ = 0, t0_ns_ = 0, until_us_ = 0;
  std::mutex mu_;
  std::size_t next_ = 0;
  std::deque<std::size_t> backlog_;
  std::vector<std::size_t> idle_;
  runtime::TimerHandle pump_;
};

// ---------------------------------------------------------------------------
// Timed and traced passes: one process of the deployment (one rank on
// sockets), built here.
// ---------------------------------------------------------------------------

proto::DeploymentConfig deployment_config(const std::string& w, const ExperimentConfig& cfg,
                                          int rank) {
  proto::DeploymentConfig dc;
  dc.system = cfg.system;
  dc.runtime = cfg.runtime;
  dc.worker_threads = cfg.worker_threads;
  dc.socket = cfg.socket;
  if (is_sockets(w)) {
    if (rank < 0 || rank >= static_cast<int>(cfg.socket.processes)) die("--rank out of range");
    dc.socket.rank = rank;
    dc.socket.mesh_token = splitmix64(cfg.seed ^ 0x7521) | 1;
  }
  dc.topo = {cfg.num_dcs, cfg.num_partitions, cfg.replication};
  dc.protocol = cfg.protocol;
  dc.cost = cfg.cost;
  dc.codec = cfg.codec;
  dc.aws_latency = cfg.aws_latency;
  dc.latency_model = cfg.latency_model;
  dc.seed = kDeploymentSeed;
  return dc;
}

/// The clients of one client process (dc, partition) hosted here.
struct Group {
  DcId dc = 0;
  PartitionId partition = 0;
  std::uint32_t engine_index = 0;
  std::vector<proto::Client*> clients;
};

/// Registers every client in run_experiment's order — in every process, so
/// node ids (and TxIds) agree across socket ranks — and returns the groups
/// this process hosts. Clients are collocated with their server.
std::vector<Group> add_clients(proto::Deployment& dep, const ExperimentConfig& cfg) {
  std::vector<Group> groups;
  std::uint32_t index = 0;
  for (DcId d = 0; d < dep.topo().num_dcs(); ++d) {
    for (PartitionId p : dep.topo().partitions_at(d)) {
      Group g{d, p, index++, {}};
      for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
        proto::Client& c = dep.add_client(d, p);
        if (dep.backend().local(c.node())) g.clients.push_back(&c);
      }
      if (!g.clients.empty()) groups.push_back(std::move(g));
    }
  }
  return groups;
}

/// One process's share of a workload (one rank on sockets): the deployment,
/// its clients, and the library's open-loop engines (timed) or this file's
/// replayers of the same schedules (traced). Building one and tearing it
/// down is the set-up a run pays for.
class Share {
 public:
  Share(const std::string& w, const ExperimentConfig& cfg, bool traced, int rank)
      : cfg_(cfg),
        traced_(traced),
        tracer_(log_, traced),
        dep_(deployment_config(w, cfg, rank), &tracer_) {
    dep_.start();
    groups_ = add_clients(dep_, cfg);
    for (const Group& g : groups_) {
      auto eng = make_engine(dep_.topo(), cfg, g.dc, g.partition, g.engine_index);
      if (traced) {
        replayers_.push_back(
            std::make_unique<Replayer>(dep_.exec(), std::move(eng), g.clients, log_, tally_));
      } else {
        for (proto::Client* c : g.clients) eng->add_client(c);
        engines_.push_back(std::move(eng));
      }
    }
  }
  Share(const Share&) = delete;
  Share& operator=(const Share&) = delete;

  /// Starts the worker threads; on sockets also connects the rank mesh.
  void start() {
    if (!dep_.wait_recovered(cfg_.socket.connect_timeout_ms + 30'000)) {
      die("cluster did not start");
    }
  }

  /// Warm-up, measurement window, then a drain: no transaction starts after
  /// the horizon, and the drain lets every issued one finish (a multi-DC geo
  /// transaction takes WAN round trips) and the window's last commits
  /// become visible everywhere.
  void run() {
    const std::uint64_t horizon_us = cfg_.warmup_us + cfg_.measure_us;
    t0_us_ = dep_.exec().now_us();
    t0_ns_ = now_ns();
    for (auto& eng : engines_) {
      eng->recorder().set_window(t0_us_ + cfg_.warmup_us, t0_us_ + horizon_us);
      eng->start(dep_.exec(), t0_us_);
    }
    for (auto& r : replayers_) r->start(t0_us_, t0_ns_, horizon_us);
    drain_us_ = cfg_.latency_model == runtime::LatencyModelKind::kNone ? 500'000 : 1'500'000;
    dep_.run_for(horizon_us + drain_us_);
    dep_.stop();
    for (auto& eng : engines_) eng->finalize();
  }

  void report(Json& j) {
    const std::uint64_t horizon_us = cfg_.warmup_us + cfg_.measure_us;
    j.num("measure_from_ns", t0_ns_ + cfg_.warmup_us * 1000);
    j.num("measure_to_ns", t0_ns_ + horizon_us * 1000);
    j.num("measure_s", static_cast<double>(cfg_.measure_us) / 1e6);
    j.num("run_s", static_cast<double>(horizon_us + drain_us_) / 1e6);
    std::uint64_t digest = 0;
    for (const auto& e : engines_) digest ^= e->digest();
    for (const auto& r : replayers_) digest ^= r->digest();
    j.num("digest", digest);
    if (traced_) {
      j.num("issued", tally_.issued.load());
      j.num("completed", tally_.completed.load());
      j.num("slices", tracer_.slices());
      j.num("ust_advances", tracer_.ust_advances());
      j.num("local_servers", static_cast<std::uint64_t>(groups_.size()));
      return;
    }
    stats::LatencyRecorder rec;
    for (const auto& e : engines_) rec.merge(e->recorder());
    const stats::Histogram& lat = rec.intended();
    const stats::Histogram& svc = rec.service();
    j.num("scheduled", rec.scheduled());
    j.num("completed", rec.completed());
    j.num("overdue", rec.overdue());
    j.num("max_backlog", rec.max_backlog());
    j.hist("latency_us", lat);
    j.hist("service_us", svc);
    j.num("latency_mean_us", lat.mean());
    j.num("service_mean_us", svc.mean());
    std::uint64_t keys_read = 0, local_hits = 0;
    for (const auto& c : dep_.clients()) {
      keys_read += c->stats().keys_read;
      local_hits += c->stats().local_hits;
    }
    j.num("keys_read", keys_read);
    j.num("local_hits", local_hits);
    j.num("gossip_msgs", dep_.total_server_stats().gossip_msgs_sent);
    j.num("events", dep_.backend().events_executed());
    j.num("bytes_sent", dep_.transport().total_bytes_sent());
    const runtime::SocketStats sock = dep_.socket_backend() != nullptr
                                          ? dep_.socket_backend()->stats()
                                          : runtime::SocketStats{};
    j.num("frames_out", sock.frames_out);
    j.num("frames_in", sock.frames_in);
    j.num("socket_bytes", sock.bytes_out + sock.bytes_in);
    j.num("syscalls", sock.read_syscalls + sock.write_syscalls);
    j.num("backpressure_stalls", sock.backpressure_stalls);
  }

  const EventLog& log() const { return log_; }

 private:
  // Declaration order is destruction order in reverse: the drivers go
  // before the deployment whose executor their timers use.
  const ExperimentConfig& cfg_;
  const bool traced_;
  EventLog log_;
  BenchTracer tracer_;
  proto::Deployment dep_;
  std::vector<Group> groups_;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines_;
  Tally tally_;
  std::vector<std::unique_ptr<Replayer>> replayers_;
  std::uint64_t t0_us_ = 0, t0_ns_ = 0, drain_us_ = 0;
};

void pass_run(const std::string& w, const ExperimentConfig& cfg, bool traced, int rank,
              std::uint64_t start_at_ns, const std::string& dir, const std::string& out) {
  const double calib_before = traced ? 0.0 : calib_ns();
  // Socket ranks build their deployments at one instant: each process's
  // clock counts from its backend's construction, so a start skew between
  // ranks is a clock skew that update visibility pays for.
  while (now_ns() < start_at_ns) std::this_thread::sleep_for(std::chrono::microseconds(50));
  Json j;
  {
    Share share(w, cfg, traced, rank);
    share.start();
    share.run();
    share.log().write_tsv(dir + "/events-" + std::to_string(std::max(rank, 0)) + ".tsv");
    share.report(j);
  }
  if (!traced) {
    j.num("calib_ns_before", calib_before);
    j.num("calib_ns_after", calib_ns());
    j.num("peak_rss_mb", peak_rss_mb());
  }
  j.write(out);
}

/// Set-up probes. A probe builds a process's share of the workload, starts
/// it and tears it down; on sockets it builds every rank's share in turn and
/// takes the slowest, because the cluster is ready when its last process is.
/// A rank's mesh connect is left out: its dial retries every 50 ms, so the
/// time it adds is a race, not work.
void pass_setup(const std::string& w, const ExperimentConfig& cfg, const std::string& out) {
  const int ranks = is_sockets(w) ? static_cast<int>(cfg.socket.processes) : 1;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupProbes; ++i) {
    double slowest = 0.0;
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t t0 = now_ns();
      {
        Share probe(w, cfg, false, r);
        if (!is_sockets(w)) probe.start();
      }
      slowest = std::max(slowest, static_cast<double>(now_ns() - t0) / 1e9);
    }
    setup_s.push_back(slowest);
  }
  Json j;
  j.nums("setup_s", setup_s);
  j.write(out);
}

}  // namespace
}  // namespace paris::bench

int main(int argc, char** argv) {
  paris::workload::maybe_run_socket_child(argc, argv);
  using namespace paris::bench;

  std::string pass, w, out, dir = ".";
  std::uint64_t seed = 0, seconds = 0, start_at_ns = 0;
  int rank = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--pass") pass = v;
    else if (k == "--workload") w = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--out") out = v;
    else if (k == "--dir") dir = v;
    else if (k == "--rank") rank = std::atoi(v.c_str());
    else if (k == "--start-at") start_at_ns = std::strtoull(v.c_str(), nullptr, 10);
    else die("unknown flag " + k);
  }
  if (argc % 2 == 0 || pass.empty() || w.empty() || seconds == 0) {
    die("usage: paris_bench --pass timed|traced|setup|checked|digest --workload W "
        "--seed N --seconds S [--out FILE] [--dir DIR] [--rank R --start-at NS]");
  }
#ifdef PARIS_BENCH_UNTIMEABLE
  if (pass != "checked" && pass != "digest") {
    die("refusing to time a build without NDEBUG or with sanitizers");
  }
#endif
  const paris::workload::ExperimentConfig cfg = make_config(w, seed, seconds);
  if (pass == "timed" || pass == "traced") {
    pass_run(w, cfg, pass == "traced", rank, start_at_ns, dir, out);
  }
  else if (pass == "setup") pass_setup(w, cfg, out);
  else if (pass == "checked") pass_checked(cfg, dir, out);
  else if (pass == "digest") pass_digest(cfg, out);
  else die("unknown pass " + pass);
  return 0;
}
