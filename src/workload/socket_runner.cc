#include "workload/socket_runner.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "runtime/endpoint.h"
#include "runtime/process_group.h"
#include "verify/history.h"
#include "wire/buffer.h"

namespace paris::workload {
namespace detail {

namespace {

// ---------------------------------------------------------------------------
// Config codec (key value lines).
// ---------------------------------------------------------------------------

/// Codec version, the FIRST line of every encoded config (`cfgver N`). A
/// launcher and a child from different builds disagree loudly — "config is
/// cfgver X, this binary speaks Y" — instead of the old behavior where the
/// decoder's unknown-key rejection produced an unexplained failure (or,
/// worse, an OLDER child silently ignoring a key would run a different
/// experiment than the launcher believes). Bump on ANY codec change: new
/// key, removed key, or changed value semantics.
///   v1: unversioned historical format (no cfgver line).
///   v2: cfgver header; socket_hosts; membership_event lines.
///   v3: the launcher always writes socket_hosts (it expands the loopback
///       default itself); the port-base, pump-engine and unbatched-I/O keys
///       are gone.
///   v4: the six workload-aware placement keys are gone.
///   v5: the ΔU throttle key is gone (roots send the UST once per round).
constexpr std::uint64_t kConfigCodecVersion = 5;

void put(std::ostringstream& o, const char* k, std::uint64_t v) {
  o << k << ' ' << v << '\n';
}
void put(std::ostringstream& o, const char* k, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  o << k << ' ' << buf << '\n';
}

}  // namespace

std::string encode_experiment_config(const ExperimentConfig& c) {
  std::ostringstream o;
  put(o, "cfgver", kConfigCodecVersion);  // must stay the first line
  put(o, "system", static_cast<std::uint64_t>(c.system == proto::System::kBpr ? 1 : 0));
  put(o, "worker_threads", static_cast<std::uint64_t>(c.worker_threads));
  put(o, "num_dcs", static_cast<std::uint64_t>(c.num_dcs));
  put(o, "num_partitions", static_cast<std::uint64_t>(c.num_partitions));
  put(o, "replication", static_cast<std::uint64_t>(c.replication));
  put(o, "ops_per_tx", static_cast<std::uint64_t>(c.workload.ops_per_tx));
  put(o, "writes_per_tx", static_cast<std::uint64_t>(c.workload.writes_per_tx));
  put(o, "partitions_per_tx", static_cast<std::uint64_t>(c.workload.partitions_per_tx));
  put(o, "multi_dc_ratio", c.workload.multi_dc_ratio);
  put(o, "keys_per_partition", c.workload.keys_per_partition);
  put(o, "zipf_theta", c.workload.zipf_theta);
  put(o, "value_size", static_cast<std::uint64_t>(c.workload.value_size));
  put(o, "key_dist", static_cast<std::uint64_t>(c.workload.key_dist));
  put(o, "hot_key_frac", c.workload.hot_key_frac);
  put(o, "hot_access_frac", c.workload.hot_access_frac);
  put(o, "openloop_enabled", static_cast<std::uint64_t>(c.openloop.enabled));
  put(o, "arrival_rate", c.openloop.arrival_rate);
  put(o, "openloop_sessions", static_cast<std::uint64_t>(c.openloop.sessions));
  put(o, "rate_profile", static_cast<std::uint64_t>(c.openloop.profile));
  put(o, "diurnal_amp", c.openloop.diurnal_amp);
  put(o, "diurnal_period_us", c.openloop.diurnal_period_us);
  put(o, "flash_mult", c.openloop.flash_mult);
  put(o, "flash_at_us", c.openloop.flash_at_us);
  put(o, "flash_len_us", c.openloop.flash_len_us);
  // Single-token line: trace paths with whitespace are rejected up front by
  // the CLI, so the token-stream decoder below stays trivial.
  if (!c.openloop.trace_path.empty()) o << "trace_path " << c.openloop.trace_path << '\n';
  put(o, "threads_per_process", static_cast<std::uint64_t>(c.threads_per_process));
  put(o, "warmup_us", static_cast<std::uint64_t>(c.warmup_us));
  put(o, "measure_us", static_cast<std::uint64_t>(c.measure_us));
  put(o, "seed", c.seed);
  put(o, "check_consistency", static_cast<std::uint64_t>(c.check_consistency));
  put(o, "measure_visibility", static_cast<std::uint64_t>(c.measure_visibility));
  put(o, "visibility_sample_shift", static_cast<std::uint64_t>(c.visibility_sample_shift));
  put(o, "delta_r_us", static_cast<std::uint64_t>(c.protocol.delta_r_us));
  put(o, "delta_g_us", static_cast<std::uint64_t>(c.protocol.delta_g_us));
  put(o, "gc_interval_us", static_cast<std::uint64_t>(c.protocol.gc_interval_us));
  put(o, "tree_fanout", static_cast<std::uint64_t>(c.protocol.tree_fanout));
  put(o, "ntp_error_us", static_cast<std::uint64_t>(c.protocol.ntp_error_us));
  put(o, "drift_ppm", c.protocol.drift_ppm);
  put(o, "bpr_gc_retention_us", static_cast<std::uint64_t>(c.protocol.bpr_gc_retention_us));
  put(o, "tx_context_timeout_us",
      static_cast<std::uint64_t>(c.protocol.tx_context_timeout_us));
  put(o, "aws_latency", static_cast<std::uint64_t>(c.aws_latency));
  put(o, "uniform_inter_dc_us", c.uniform_inter_dc_us);
  put(o, "uniform_intra_dc_us", c.uniform_intra_dc_us);
  put(o, "latency_model", static_cast<std::uint64_t>(c.latency_model));
  put(o, "chaos_reorder_p", c.chaos.reorder_p);
  put(o, "chaos_reorder_stall_us", c.chaos.reorder_stall_us);
  put(o, "chaos_duplicate_p", c.chaos.duplicate_p);
  put(o, "chaos_drop_p", c.chaos.drop_p);
  put(o, "chaos_drop_class", static_cast<std::uint64_t>(c.chaos.drop_class));
  put(o, "chaos_seed", c.chaos.seed);
  put(o, "reliable", static_cast<std::uint64_t>(c.reliable));
  put(o, "rto_us", c.reliable_cfg.rto_us);
  put(o, "max_rto_us", c.reliable_cfg.max_rto_us);
  put(o, "scan_period_us", c.reliable_cfg.scan_period_us);
  put(o, "fast_retx_guard_us", c.reliable_cfg.fast_retx_guard_us);
  put(o, "max_in_flight", c.reliable_cfg.max_in_flight);
  put(o, "max_ooo_buffered", static_cast<std::uint64_t>(c.reliable_cfg.max_ooo_buffered));
  put(o, "sack", static_cast<std::uint64_t>(c.reliable_cfg.sack));
  put(o, "max_sack_ranges", static_cast<std::uint64_t>(c.reliable_cfg.max_sack_ranges));
  put(o, "adaptive_rto", static_cast<std::uint64_t>(c.reliable_cfg.adaptive_rto));
  put(o, "min_rto_us", c.reliable_cfg.min_rto_us);
  put(o, "codec", static_cast<std::uint64_t>(c.codec));
  put(o, "socket_processes", static_cast<std::uint64_t>(c.socket.processes));
  // Single token: "h1:p1,h2:p2,..." has no whitespace by construction.
  if (!c.socket.hosts.empty()) {
    o << "socket_hosts " << runtime::format_host_list(c.socket.hosts) << '\n';
  }
  put(o, "socket_connect_timeout_ms", c.socket.connect_timeout_ms);
  put(o, "socket_mesh_token", c.socket.mesh_token);
  put(o, "socket_supervise", static_cast<std::uint64_t>(c.socket.supervise));
  put(o, "socket_max_respawns", static_cast<std::uint64_t>(c.socket.max_respawns));
  // -1 (no scheduled kill) survives the unsigned line format: strtoull
  // negates a leading '-' and the cast back recovers the value.
  put(o, "socket_kill_rank",
      static_cast<std::uint64_t>(static_cast<std::int64_t>(c.socket.kill_rank)));
  put(o, "socket_kill_after_ms", c.socket.kill_after_ms);
  put(o, "socket_outbound_budget", c.socket.outbound_budget);
  put(o, "socket_stall_rank",
      static_cast<std::uint64_t>(static_cast<std::int64_t>(c.socket.stall_rank)));
  put(o, "socket_stall_peer", static_cast<std::uint64_t>(c.socket.stall_peer));
  put(o, "socket_stall_at_ms", c.socket.stall_at_ms);
  put(o, "socket_stall_len_ms", c.socket.stall_len_ms);
  put(o, "wan_seed", c.wan.seed);
  put(o, "fuzz_corrupt_p", c.fuzz.corrupt_p);
  put(o, "fuzz_replay_p", c.fuzz.replay_p);
  put(o, "fuzz_seed", c.fuzz.seed);
  put(o, "fuzz_max_capture_bytes", static_cast<std::uint64_t>(c.fuzz.max_capture_bytes));
  for (const proto::MembershipEvent& ev : c.membership.events) {
    o << "membership_event " << (ev.join ? 1 : 0) << ' ' << ev.rank << ' ' << ev.at_ms
      << '\n';
  }
  for (const auto& w : c.partitions.windows) {
    o << "partition_window " << w.a << ' ' << w.b << ' ' << (w.isolate_all ? 1 : 0) << ' '
      << w.start_us << ' ' << w.end_us << '\n';
  }
  for (const auto& e : c.wan.episodes) {
    char fp[160];
    std::snprintf(fp, sizeof(fp), "%.17g %.17g %.17g %.17g %.17g", e.p_good_bad,
                  e.p_bad_good, e.loss_good, e.loss_bad, e.duplicate_p);
    o << "wan_episode " << e.a << ' ' << e.b << ' ' << (e.symmetric ? 1 : 0) << ' '
      << e.start_us << ' ' << e.end_us << ' ' << e.extra_delay_start_us << ' '
      << e.extra_delay_end_us << ' ' << e.bandwidth_bytes_per_us << ' ' << fp << '\n';
  }
  return o.str();
}

bool decode_experiment_config(const std::string& text, ExperimentConfig& c,
                              std::string* err) {
  std::istringstream in(text);
  std::string key;
  // The version gate comes before everything else: a config written by a
  // different build must fail on the HEADER, with a message naming both
  // versions, not on whichever key happens to differ first.
  {
    std::string ver;
    if (!(in >> key >> ver) || key != "cfgver") {
      if (err != nullptr) {
        *err = "config file has no 'cfgver' header: the launcher binary is older "
               "than this child (it speaks codec v" +
               std::to_string(kConfigCodecVersion) + ") — rebuild so both sides match";
      }
      return false;
    }
    const std::uint64_t v = std::strtoull(ver.c_str(), nullptr, 10);
    if (v != kConfigCodecVersion) {
      if (err != nullptr) {
        *err = "config file is codec v" + std::to_string(v) +
               " but this binary speaks v" + std::to_string(kConfigCodecVersion) +
               ": launcher/child version skew — rebuild so both sides match";
      }
      return false;
    }
  }
  while (in >> key) {
    if (key == "membership_event") {
      proto::MembershipEvent ev;
      std::uint32_t join = 0;
      if (!(in >> join >> ev.rank >> ev.at_ms)) {
        if (err != nullptr) *err = "truncated membership_event line";
        return false;
      }
      ev.join = join != 0;
      c.membership.events.push_back(ev);
      continue;
    }
    if (key == "partition_window") {
      runtime::PartitionWindow w;
      std::uint32_t iso = 0;
      if (!(in >> w.a >> w.b >> iso >> w.start_us >> w.end_us)) {
        if (err != nullptr) *err = "truncated partition_window line";
        return false;
      }
      w.isolate_all = iso != 0;
      c.partitions.windows.push_back(w);
      continue;
    }
    if (key == "wan_episode") {
      runtime::WanLinkEpisode e;
      std::uint32_t sym = 0;
      if (!(in >> e.a >> e.b >> sym >> e.start_us >> e.end_us >> e.extra_delay_start_us >>
            e.extra_delay_end_us >> e.bandwidth_bytes_per_us >> e.p_good_bad >>
            e.p_bad_good >> e.loss_good >> e.loss_bad >> e.duplicate_p)) {
        if (err != nullptr) *err = "truncated wan_episode line";
        return false;
      }
      e.symmetric = sym != 0;
      c.wan.episodes.push_back(e);
      continue;
    }
    std::string val;
    if (!(in >> val)) {
      if (err != nullptr) *err = "config key '" + key + "' has no value (truncated file?)";
      return false;
    }
    const std::uint64_t u = std::strtoull(val.c_str(), nullptr, 10);
    const double d = std::atof(val.c_str());
    if (key == "system") {
      c.system = u != 0 ? proto::System::kBpr : proto::System::kParis;
    } else if (key == "worker_threads") {
      c.worker_threads = static_cast<std::uint32_t>(u);
    } else if (key == "num_dcs") {
      c.num_dcs = static_cast<std::uint32_t>(u);
    } else if (key == "num_partitions") {
      c.num_partitions = static_cast<std::uint32_t>(u);
    } else if (key == "replication") {
      c.replication = static_cast<std::uint32_t>(u);
    } else if (key == "ops_per_tx") {
      c.workload.ops_per_tx = static_cast<std::uint32_t>(u);
    } else if (key == "writes_per_tx") {
      c.workload.writes_per_tx = static_cast<std::uint32_t>(u);
    } else if (key == "partitions_per_tx") {
      c.workload.partitions_per_tx = static_cast<std::uint32_t>(u);
    } else if (key == "multi_dc_ratio") {
      c.workload.multi_dc_ratio = d;
    } else if (key == "keys_per_partition") {
      c.workload.keys_per_partition = u;
    } else if (key == "zipf_theta") {
      c.workload.zipf_theta = d;
    } else if (key == "value_size") {
      c.workload.value_size = static_cast<std::uint32_t>(u);
    } else if (key == "key_dist") {
      c.workload.key_dist = static_cast<KeyDistKind>(u);
    } else if (key == "hot_key_frac") {
      c.workload.hot_key_frac = d;
    } else if (key == "hot_access_frac") {
      c.workload.hot_access_frac = d;
    } else if (key == "openloop_enabled") {
      c.openloop.enabled = u != 0;
    } else if (key == "arrival_rate") {
      c.openloop.arrival_rate = d;
    } else if (key == "openloop_sessions") {
      c.openloop.sessions = static_cast<std::uint32_t>(u);
    } else if (key == "rate_profile") {
      c.openloop.profile = static_cast<RateProfile>(u);
    } else if (key == "diurnal_amp") {
      c.openloop.diurnal_amp = d;
    } else if (key == "diurnal_period_us") {
      c.openloop.diurnal_period_us = u;
    } else if (key == "flash_mult") {
      c.openloop.flash_mult = d;
    } else if (key == "flash_at_us") {
      c.openloop.flash_at_us = u;
    } else if (key == "flash_len_us") {
      c.openloop.flash_len_us = u;
    } else if (key == "trace_path") {
      c.openloop.trace_path = val;
    } else if (key == "threads_per_process") {
      c.threads_per_process = static_cast<std::uint32_t>(u);
    } else if (key == "warmup_us") {
      c.warmup_us = u;
    } else if (key == "measure_us") {
      c.measure_us = u;
    } else if (key == "seed") {
      c.seed = u;
    } else if (key == "check_consistency") {
      c.check_consistency = u != 0;
    } else if (key == "measure_visibility") {
      c.measure_visibility = u != 0;
    } else if (key == "visibility_sample_shift") {
      c.visibility_sample_shift = static_cast<std::uint32_t>(u);
    } else if (key == "delta_r_us") {
      c.protocol.delta_r_us = u;
    } else if (key == "delta_g_us") {
      c.protocol.delta_g_us = u;
    } else if (key == "gc_interval_us") {
      c.protocol.gc_interval_us = u;
    } else if (key == "tree_fanout") {
      c.protocol.tree_fanout = static_cast<std::uint32_t>(u);
    } else if (key == "ntp_error_us") {
      c.protocol.ntp_error_us = static_cast<std::int64_t>(u);
    } else if (key == "drift_ppm") {
      c.protocol.drift_ppm = d;
    } else if (key == "bpr_gc_retention_us") {
      c.protocol.bpr_gc_retention_us = u;
    } else if (key == "tx_context_timeout_us") {
      c.protocol.tx_context_timeout_us = u;
    } else if (key == "aws_latency") {
      c.aws_latency = u != 0;
    } else if (key == "uniform_inter_dc_us") {
      c.uniform_inter_dc_us = u;
    } else if (key == "uniform_intra_dc_us") {
      c.uniform_intra_dc_us = u;
    } else if (key == "latency_model") {
      c.latency_model = static_cast<runtime::LatencyModelKind>(u);
    } else if (key == "chaos_reorder_p") {
      c.chaos.reorder_p = d;
    } else if (key == "chaos_reorder_stall_us") {
      c.chaos.reorder_stall_us = u;
    } else if (key == "chaos_duplicate_p") {
      c.chaos.duplicate_p = d;
    } else if (key == "chaos_drop_p") {
      c.chaos.drop_p = d;
    } else if (key == "chaos_drop_class") {
      c.chaos.drop_class = static_cast<runtime::ChaosDropClass>(u);
    } else if (key == "chaos_seed") {
      c.chaos.seed = u;
    } else if (key == "reliable") {
      c.reliable = u != 0;
    } else if (key == "rto_us") {
      c.reliable_cfg.rto_us = u;
    } else if (key == "max_rto_us") {
      c.reliable_cfg.max_rto_us = u;
    } else if (key == "scan_period_us") {
      c.reliable_cfg.scan_period_us = u;
    } else if (key == "fast_retx_guard_us") {
      c.reliable_cfg.fast_retx_guard_us = u;
    } else if (key == "max_in_flight") {
      c.reliable_cfg.max_in_flight = u;
    } else if (key == "max_ooo_buffered") {
      c.reliable_cfg.max_ooo_buffered = u;
    } else if (key == "sack") {
      c.reliable_cfg.sack = u != 0;
    } else if (key == "max_sack_ranges") {
      c.reliable_cfg.max_sack_ranges = u;
    } else if (key == "adaptive_rto") {
      c.reliable_cfg.adaptive_rto = u != 0;
    } else if (key == "min_rto_us") {
      c.reliable_cfg.min_rto_us = u;
    } else if (key == "codec") {
      c.codec = static_cast<sim::CodecMode>(u);
    } else if (key == "socket_processes") {
      c.socket.processes = static_cast<std::uint32_t>(u);
    } else if (key == "socket_hosts") {
      if (!runtime::parse_host_list(val, &c.socket.hosts, err)) return false;
    } else if (key == "socket_connect_timeout_ms") {
      c.socket.connect_timeout_ms = u;
    } else if (key == "socket_mesh_token") {
      c.socket.mesh_token = u;
    } else if (key == "socket_supervise") {
      c.socket.supervise = u != 0;
    } else if (key == "socket_max_respawns") {
      c.socket.max_respawns = static_cast<std::uint32_t>(u);
    } else if (key == "socket_kill_rank") {
      c.socket.kill_rank = static_cast<std::int32_t>(static_cast<std::int64_t>(u));
    } else if (key == "socket_kill_after_ms") {
      c.socket.kill_after_ms = u;
    } else if (key == "socket_outbound_budget") {
      c.socket.outbound_budget = u;
    } else if (key == "socket_stall_rank") {
      c.socket.stall_rank = static_cast<std::int32_t>(static_cast<std::int64_t>(u));
    } else if (key == "socket_stall_peer") {
      c.socket.stall_peer = static_cast<std::uint32_t>(u);
    } else if (key == "socket_stall_at_ms") {
      c.socket.stall_at_ms = u;
    } else if (key == "socket_stall_len_ms") {
      c.socket.stall_len_ms = u;
    } else if (key == "wan_seed") {
      c.wan.seed = u;
    } else if (key == "fuzz_corrupt_p") {
      c.fuzz.corrupt_p = d;
    } else if (key == "fuzz_replay_p") {
      c.fuzz.replay_p = d;
    } else if (key == "fuzz_seed") {
      c.fuzz.seed = u;
    } else if (key == "fuzz_max_capture_bytes") {
      c.fuzz.max_capture_bytes = static_cast<std::uint32_t>(u);
    } else {
      // Same cfgver should mean the same key set, so reaching here suggests
      // a forgotten version bump — still refuse, a silently-dropped field
      // would make this child run a DIFFERENT experiment than the launcher.
      if (err != nullptr) {
        *err = "unknown config key '" + key +
               "' despite matching cfgver: the codec changed without a version bump";
      }
      return false;
    }
  }
  c.runtime = runtime::Kind::kSockets;
  return true;
}

// ---------------------------------------------------------------------------
// Child-result codec.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kResultMagic = 0x50534b32;  // "PSK2"
/// Literal end-of-file marker: a truncated result file (partial flush,
/// child killed mid-write) loses it, so decode can reject gracefully
/// instead of tripping the Decoder's abort-on-truncation checks mid-blob.
constexpr std::uint8_t kResultTrailer[4] = {'P', 'S', 'K', '$'};

void put_hist(wire::Encoder& e, const stats::Histogram& h) {
  const auto r = h.raw();
  e.put_varint(r.count);
  e.put_varint(r.sum);
  e.put_varint(r.min);
  e.put_varint(r.max);
  e.put_varint(r.buckets.size());
  for (const auto& [idx, n] : r.buckets) {
    e.put_varint(idx);
    e.put_varint(n);
  }
}

void get_hist(wire::Decoder& d, stats::Histogram& h) {
  stats::Histogram::Raw r;
  r.count = d.get_varint();
  r.sum = d.get_varint();
  r.min = d.get_varint();
  r.max = d.get_varint();
  for (std::uint64_t i = 0, n = d.get_varint(); i < n; ++i) {
    const auto idx = static_cast<std::uint32_t>(d.get_varint());
    r.buckets.emplace_back(idx, d.get_varint());
  }
  h.merge_raw(r);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  out.flush();
  return out.good();
}

void dump_log_tail(const std::string& path) {
  const std::string log = read_file(path);
  const std::size_t tail = 4000;
  const std::size_t from = log.size() > tail ? log.size() - tail : 0;
  std::fprintf(stderr, "---- %s%s ----\n%s\n", path.c_str(),
               from != 0 ? " (tail)" : "", log.c_str() + from);
}

}  // namespace

void encode_child_result(const ExperimentResult& res,
                         const std::vector<std::uint8_t>& history,
                         std::vector<std::uint8_t>& out) {
  wire::Encoder e(out);
  e.put_varint(kResultMagic);
  e.put_varint(res.committed);
  put_hist(e, res.latency_hist);
  put_hist(e, res.latency_local_hist);
  put_hist(e, res.latency_multi_hist);
  put_hist(e, res.visibility_hist);
  e.put_varint(res.blocked_reads);
  e.put_varint(static_cast<std::uint64_t>(res.avg_block_ms * 1000.0 *
                                          static_cast<double>(res.blocked_reads)));
  e.put_varint(res.gossip_msgs);
  e.put_varint(res.keys_read);
  e.put_varint(res.local_hits);
  e.put_varint(res.max_client_cache);
  e.put_varint(res.sim_events);
  e.put_varint(res.bytes_sent);
  e.put_varint(res.chaos.stalled);
  e.put_varint(res.chaos.duplicated);
  e.put_varint(res.chaos.dropped);
  e.put_varint(res.reliable.frames_sent);
  e.put_varint(res.reliable.retransmits);
  e.put_varint(res.reliable.fast_retransmits);
  e.put_varint(res.reliable.acks_sent);
  e.put_varint(res.reliable.dup_frames);
  e.put_varint(res.reliable.ooo_frames);
  e.put_varint(res.reliable.stale_acks);
  e.put_varint(res.reliable.coalesced);
  e.put_varint(res.reliable.sacked_skips);
  e.put_varint(res.reliable.malformed_acks);
  e.put_varint(res.reliable.rtt_samples);
  e.put_varint(res.partition.dropped);
  e.put_varint(res.socket.frames_out);
  e.put_varint(res.socket.frames_in);
  e.put_varint(res.socket.bytes_out);
  e.put_varint(res.socket.bytes_in);
  e.put_varint(res.socket.partial_reads);
  e.put_varint(res.socket.short_writes);
  e.put_varint(res.socket.reconnects);
  e.put_varint(res.socket.dropped_dead);
  e.put_varint(res.socket.redial_attempts);
  e.put_varint(res.socket.redial_giveups);
  e.put_varint(res.socket.fenced_stale_epoch);
  e.put_varint(res.socket.malformed_frames);
  e.put_varint(res.reliable.channel_resets);
  e.put_varint(res.reliable.fenced_frames);
  e.put_varint(res.snapshots_served);
  e.put_varint(res.catchups_served);
  e.put_varint(res.prepared_fenced);
  e.put_varint(res.recovery_ms);
  e.put_varint(res.socket.read_syscalls);
  e.put_varint(res.socket.write_syscalls);
  e.put_varint(res.socket.flushes);
  e.put_varint(res.socket.backpressure_stalls);
  e.put_varint(res.socket.backpressure_drops);
  e.put_varint(res.wan.shaped);
  e.put_varint(res.wan.ge_dropped);
  e.put_varint(res.wan.duplicated);
  e.put_varint(res.wan.bw_queued);
  e.put_varint(res.wan.bw_wait_us);
  e.put_varint(res.fuzz.mutated);
  e.put_varint(res.fuzz.flips);
  e.put_varint(res.fuzz.truncations);
  e.put_varint(res.fuzz.splices);
  e.put_varint(res.fuzz.rejected_validate);
  e.put_varint(res.fuzz.accepted_validate);
  e.put_varint(res.fuzz.replays);
  e.put_varint(res.fuzz.captured);
  e.put_varint(res.scheduled);
  e.put_varint(res.overdue);
  e.put_varint(res.max_backlog);
  e.put_varint(res.workload_digest);
  put_hist(e, res.intended_hist);
  put_hist(e, res.service_hist);
  e.put_blob(history);
  out.insert(out.end(), kResultTrailer, kResultTrailer + sizeof(kResultTrailer));
}

bool decode_child_result(const std::vector<std::uint8_t>& in, ExperimentResult& res,
                         std::vector<std::uint8_t>& history) {
  // Integrity gate first: magic needs a 5-byte varint, and the trailer must
  // close the file — any truncation loses it, keeping the Decoder's
  // abort-on-malformed checks out of reach for the common corruption case.
  if (in.size() < 5 + sizeof(kResultTrailer) ||
      std::memcmp(in.data() + in.size() - sizeof(kResultTrailer), kResultTrailer,
                  sizeof(kResultTrailer)) != 0) {
    return false;
  }
  wire::Decoder d(in.data(), in.size() - sizeof(kResultTrailer));
  if (d.get_varint() != kResultMagic) return false;
  res.committed = d.get_varint();
  get_hist(d, res.latency_hist);
  get_hist(d, res.latency_local_hist);
  get_hist(d, res.latency_multi_hist);
  get_hist(d, res.visibility_hist);
  res.blocked_reads = d.get_varint();
  const std::uint64_t blocked_time_us = d.get_varint();
  res.avg_block_ms = res.blocked_reads != 0
                         ? static_cast<double>(blocked_time_us) /
                               static_cast<double>(res.blocked_reads) / 1000.0
                         : 0.0;
  res.gossip_msgs = d.get_varint();
  res.keys_read = d.get_varint();
  res.local_hits = d.get_varint();
  res.max_client_cache = d.get_varint();
  res.sim_events = d.get_varint();
  res.bytes_sent = d.get_varint();
  res.chaos.stalled = d.get_varint();
  res.chaos.duplicated = d.get_varint();
  res.chaos.dropped = d.get_varint();
  res.reliable.frames_sent = d.get_varint();
  res.reliable.retransmits = d.get_varint();
  res.reliable.fast_retransmits = d.get_varint();
  res.reliable.acks_sent = d.get_varint();
  res.reliable.dup_frames = d.get_varint();
  res.reliable.ooo_frames = d.get_varint();
  res.reliable.stale_acks = d.get_varint();
  res.reliable.coalesced = d.get_varint();
  res.reliable.sacked_skips = d.get_varint();
  res.reliable.malformed_acks = d.get_varint();
  res.reliable.rtt_samples = d.get_varint();
  res.partition.dropped = d.get_varint();
  res.socket.frames_out = d.get_varint();
  res.socket.frames_in = d.get_varint();
  res.socket.bytes_out = d.get_varint();
  res.socket.bytes_in = d.get_varint();
  res.socket.partial_reads = d.get_varint();
  res.socket.short_writes = d.get_varint();
  res.socket.reconnects = d.get_varint();
  res.socket.dropped_dead = d.get_varint();
  res.socket.redial_attempts = d.get_varint();
  res.socket.redial_giveups = d.get_varint();
  res.socket.fenced_stale_epoch = d.get_varint();
  res.socket.malformed_frames = d.get_varint();
  res.reliable.channel_resets = d.get_varint();
  res.reliable.fenced_frames = d.get_varint();
  res.snapshots_served = d.get_varint();
  res.catchups_served = d.get_varint();
  res.prepared_fenced = d.get_varint();
  res.recovery_ms = d.get_varint();
  res.socket.read_syscalls = d.get_varint();
  res.socket.write_syscalls = d.get_varint();
  res.socket.flushes = d.get_varint();
  res.socket.backpressure_stalls = d.get_varint();
  res.socket.backpressure_drops = d.get_varint();
  res.wan.shaped = d.get_varint();
  res.wan.ge_dropped = d.get_varint();
  res.wan.duplicated = d.get_varint();
  res.wan.bw_queued = d.get_varint();
  res.wan.bw_wait_us = d.get_varint();
  res.fuzz.mutated = d.get_varint();
  res.fuzz.flips = d.get_varint();
  res.fuzz.truncations = d.get_varint();
  res.fuzz.splices = d.get_varint();
  res.fuzz.rejected_validate = d.get_varint();
  res.fuzz.accepted_validate = d.get_varint();
  res.fuzz.replays = d.get_varint();
  res.fuzz.captured = d.get_varint();
  res.scheduled = d.get_varint();
  res.overdue = d.get_varint();
  res.max_backlog = d.get_varint();
  res.workload_digest = d.get_varint();
  get_hist(d, res.intended_hist);
  get_hist(d, res.service_hist);
  d.get_blob_into(history);
  return d.done();
}

// ---------------------------------------------------------------------------
// Launcher.
// ---------------------------------------------------------------------------

ExperimentResult run_socket_parent(const ExperimentConfig& cfg) {
  // Fork-bomb guard: a child process re-running the launcher path means
  // some binary used --runtime=sockets without routing its argv through
  // maybe_run_socket_child() first — each generation would spawn N more.
  PARIS_CHECK_MSG(std::getenv("PARIS_SOCKET_CHILD") == nullptr,
                  "socket launcher invoked INSIDE a socket child: the binary "
                  "did not call workload::maybe_run_socket_child() at the top "
                  "of main()");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint32_t nprocs = cfg.socket.resolve_processes(cfg.num_dcs);
  PARIS_CHECK_MSG(nprocs >= 1 && nprocs <= cfg.num_dcs,
                  "sockets: --processes must be in [1, dcs] (ownership is dc %% processes)");

  // A dir of our own is removed after a clean run; a --socket-dir is kept.
  std::string dir = cfg.socket.dir;
  const bool own_dir = dir.empty();
  if (own_dir) {
    const char* tmp = std::getenv("TMPDIR");
    dir = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") + "/paris-sockets-XXXXXX";
    PARIS_CHECK_MSG(mkdtemp(dir.data()) != nullptr, "mkdtemp failed");
  } else {
    // mkdir -p: the CI jobs nest per-scenario dirs (socklogs/paris).
    for (std::size_t slash = dir.find('/', 1); slash != std::string::npos;
         slash = dir.find('/', slash + 1)) {
      (void)::mkdir(dir.substr(0, slash).c_str(), 0755);
    }
    (void)::mkdir(dir.c_str(), 0755);  // fine if any component already exists
  }

  ExperimentConfig child_cfg = cfg;
  // The one place the loopback default is decided: children and the
  // deployment only ever see a complete host list.
  std::vector<runtime::Endpoint>& hosts = child_cfg.socket.hosts;
  if (hosts.empty()) hosts = runtime::loopback_host_list(nprocs, runtime::kDefaultLoopbackPort);
  std::string host_err;
  PARIS_CHECK_MSG(runtime::validate_host_list(hosts, nprocs, &host_err),
                  ("sockets: " + host_err).c_str());
  // Every mesh gets a distinct hello token so two concurrent runs sharing
  // a port range reject each other's connections instead of silently
  // cross-wiring their clusters.
  if (child_cfg.socket.mesh_token == 0) {
    child_cfg.socket.mesh_token =
        (static_cast<std::uint64_t>(getpid()) << 32) ^ splitmix64(cfg.seed + 1);
  }
  const std::string cfgfile = dir + "/experiment.cfg";
  const std::string cfgtext = encode_experiment_config(child_cfg);
  PARIS_CHECK_MSG(write_file(cfgfile, cfgtext.data(), cfgtext.size()),
                  "cannot write the child config file");

  runtime::ProcessGroup pg;
  std::vector<std::string> outfiles;
  for (std::uint32_t r = 0; r < nprocs; ++r) {
    outfiles.push_back(dir + "/result-" + std::to_string(r) + ".bin");
    const std::string log = dir + "/child-" + std::to_string(r) + ".log";
    PARIS_CHECK_MSG(pg.spawn(r,
                             {"--paris-socket-child", cfgfile, std::to_string(r),
                              outfiles.back(), "0"},
                             log),
                    "fork/exec of a socket child failed");
  }
  std::printf("sockets: %u child processes on %s%s, artifacts in %s\n", nprocs,
              runtime::format_host_list(hosts).c_str(),
              cfg.socket.supervise ? ", supervised" : "", dir.c_str());
  std::fflush(stdout);

  ExperimentResult res;
  const std::uint64_t run_ms = (cfg.warmup_us + cfg.measure_us) / 1000;
  std::string err;
  // Generous deadline: mesh setup + 3x the run (sanitizer builds crawl) +
  // slack — a wedged child is killed instead of eating the CI job limit.
  // A respawned incarnation restarts its whole warmup+measure window after
  // the kill point, so supervised runs extend the budget accordingly.
  const std::uint64_t deadline_ms =
      cfg.socket.connect_timeout_ms + run_ms * 3 + 60'000 +
      (cfg.socket.supervise ? run_ms * 3 + cfg.socket.kill_after_ms : 0);
  bool ok;
  if (cfg.socket.supervise) {
    runtime::ProcessGroup::SuperviseOptions sup;
    sup.max_respawns = cfg.socket.max_respawns;
    sup.respawn = [&dir, &cfgfile, &outfiles](std::uint32_t rank, std::uint32_t incarnation,
                                              std::string& log) {
      log = dir + "/child-" + std::to_string(rank) + ".r" + std::to_string(incarnation) +
            ".log";
      return std::vector<std::string>{"--paris-socket-child", cfgfile,
                                      std::to_string(rank), outfiles[rank],
                                      std::to_string(incarnation)};
    };
    std::vector<runtime::ProcessGroup::KillEvent> kills;
    if (cfg.socket.kill_rank >= 0) {
      PARIS_CHECK_MSG(static_cast<std::uint32_t>(cfg.socket.kill_rank) < nprocs,
                      "sockets: --kill-rank out of range");
      kills.push_back(
          {static_cast<std::uint32_t>(cfg.socket.kill_rank), cfg.socket.kill_after_ms, false});
    }
    ok = pg.wait_supervised(deadline_ms, sup, kills, err);
    res.respawns = pg.respawns();
  } else {
    ok = pg.wait_all(deadline_ms, err);
  }
  if (!ok) {
    std::fprintf(stderr, "socket launcher: %s, artifacts kept in %s\n", err.c_str(), dir.c_str());
    for (const auto& c : pg.children()) dump_log_tail(c.log_path);
    res.violations.push_back("socket run failed: " + err);
    return res;
  }

  verify::HistoryRecorder merged;
  for (const auto& path : outfiles) {
    const std::string bytes = read_file(path);
    std::vector<std::uint8_t> buf(bytes.begin(), bytes.end());
    ExperimentResult part;
    std::vector<std::uint8_t> history;
    PARIS_CHECK_MSG(decode_child_result(buf, part, history),
                    "corrupt child result file (version skew?)");
    res.committed += part.committed;
    res.latency_hist.merge(part.latency_hist);
    res.latency_local_hist.merge(part.latency_local_hist);
    res.latency_multi_hist.merge(part.latency_multi_hist);
    res.visibility_hist.merge(part.visibility_hist);
    res.blocked_reads += part.blocked_reads;
    res.avg_block_ms += part.avg_block_ms * static_cast<double>(part.blocked_reads);
    res.gossip_msgs += part.gossip_msgs;
    res.keys_read += part.keys_read;
    res.local_hits += part.local_hits;
    res.max_client_cache = std::max(res.max_client_cache, part.max_client_cache);
    res.sim_events += part.sim_events;
    res.bytes_sent += part.bytes_sent;
    res.chaos.stalled += part.chaos.stalled;
    res.chaos.duplicated += part.chaos.duplicated;
    res.chaos.dropped += part.chaos.dropped;
    res.reliable.frames_sent += part.reliable.frames_sent;
    res.reliable.retransmits += part.reliable.retransmits;
    res.reliable.fast_retransmits += part.reliable.fast_retransmits;
    res.reliable.acks_sent += part.reliable.acks_sent;
    res.reliable.dup_frames += part.reliable.dup_frames;
    res.reliable.ooo_frames += part.reliable.ooo_frames;
    res.reliable.stale_acks += part.reliable.stale_acks;
    res.reliable.coalesced += part.reliable.coalesced;
    res.reliable.sacked_skips += part.reliable.sacked_skips;
    res.reliable.malformed_acks += part.reliable.malformed_acks;
    res.reliable.rtt_samples += part.reliable.rtt_samples;
    res.partition.dropped += part.partition.dropped;
    res.socket.frames_out += part.socket.frames_out;
    res.socket.frames_in += part.socket.frames_in;
    res.socket.bytes_out += part.socket.bytes_out;
    res.socket.bytes_in += part.socket.bytes_in;
    res.socket.partial_reads += part.socket.partial_reads;
    res.socket.short_writes += part.socket.short_writes;
    res.socket.reconnects += part.socket.reconnects;
    res.socket.dropped_dead += part.socket.dropped_dead;
    res.socket.redial_attempts += part.socket.redial_attempts;
    res.socket.redial_giveups += part.socket.redial_giveups;
    res.socket.fenced_stale_epoch += part.socket.fenced_stale_epoch;
    res.socket.malformed_frames += part.socket.malformed_frames;
    res.socket.read_syscalls += part.socket.read_syscalls;
    res.socket.write_syscalls += part.socket.write_syscalls;
    res.socket.flushes += part.socket.flushes;
    res.socket.backpressure_stalls += part.socket.backpressure_stalls;
    res.socket.backpressure_drops += part.socket.backpressure_drops;
    res.wan.shaped += part.wan.shaped;
    res.wan.ge_dropped += part.wan.ge_dropped;
    res.wan.duplicated += part.wan.duplicated;
    res.wan.bw_queued += part.wan.bw_queued;
    res.wan.bw_wait_us += part.wan.bw_wait_us;
    res.fuzz.mutated += part.fuzz.mutated;
    res.fuzz.flips += part.fuzz.flips;
    res.fuzz.truncations += part.fuzz.truncations;
    res.fuzz.splices += part.fuzz.splices;
    res.fuzz.rejected_validate += part.fuzz.rejected_validate;
    res.fuzz.accepted_validate += part.fuzz.accepted_validate;
    res.fuzz.replays += part.fuzz.replays;
    res.fuzz.captured += part.fuzz.captured;
    res.reliable.channel_resets += part.reliable.channel_resets;
    res.reliable.fenced_frames += part.reliable.fenced_frames;
    res.snapshots_served += part.snapshots_served;
    res.catchups_served += part.catchups_served;
    res.prepared_fenced += part.prepared_fenced;
    res.recovery_ms = std::max(res.recovery_ms, part.recovery_ms);
    res.scheduled += part.scheduled;
    res.overdue += part.overdue;
    res.max_backlog = std::max(res.max_backlog, part.max_backlog);
    // Every engine lives in exactly one child, so XOR across children equals
    // the global XOR over all engines (the cross-runtime digest invariant).
    res.workload_digest ^= part.workload_digest;
    res.intended_hist.merge(part.intended_hist);
    res.service_hist.merge(part.service_hist);
    if (cfg.check_consistency && !history.empty()) {
      merged.merge_serialized(history.data(), history.size());
    }
  }

  const double window_s = static_cast<double>(cfg.measure_us) / 1e6;
  res.throughput_tx_s =
      window_s > 0 ? static_cast<double>(res.committed) / window_s : 0.0;
  res.latency_us = stats::Summary::of(res.latency_hist);
  if (cfg.openloop.enabled) {
    res.intended_rate_tx_s =
        window_s > 0 ? static_cast<double>(res.scheduled) / window_s : 0.0;
    res.achieved_rate_tx_s = res.throughput_tx_s;
    res.intended_us = stats::Summary::of(res.intended_hist);
    res.service_us = stats::Summary::of(res.service_hist);
  }
  res.avg_block_ms = res.blocked_reads != 0
                         ? res.avg_block_ms / static_cast<double>(res.blocked_reads)
                         : 0.0;
  res.local_hit_rate =
      res.keys_read != 0
          ? static_cast<double>(res.local_hits) / static_cast<double>(res.keys_read)
          : 0.0;
  if (cfg.check_consistency) {
    res.violations = merged.check();
    // A scheduled join whose DCs never served a single read slice means the
    // new replica sets were installed on paper only — fail the run even
    // though the (empty) history is trivially consistent.
    for (const proto::MembershipEvent& ev : cfg.membership.events) {
      if (!ev.join) continue;
      for (DcId d = 0; d < cfg.num_dcs; ++d) {
        if (d % nprocs != ev.rank) continue;
        if (merged.slices_at_dc(d) == 0) {
          res.violations.push_back("membership: joined DC " + std::to_string(d) +
                                   " (rank " + std::to_string(ev.rank) +
                                   ") served no read slices after its join");
        }
      }
    }
  }
  std::error_code ec;  // removal is best effort: a leftover dir fails no run
  if (!res.violations.empty())
    std::fprintf(stderr, "socket launcher: violations, artifacts kept in %s\n", dir.c_str());
  else if (own_dir)
    std::filesystem::remove_all(dir, ec);
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return res;
}

}  // namespace detail

void maybe_run_socket_child(int argc, char** argv) {
  if (argc != 6 || std::strcmp(argv[1], "--paris-socket-child") != 0) return;
  ExperimentConfig cfg;
  const std::string text = detail::read_file(argv[2]);
  PARIS_CHECK_MSG(!text.empty(), "socket child: unreadable or empty config file");
  std::string codec_err;
  PARIS_CHECK_MSG(detail::decode_experiment_config(text, cfg, &codec_err),
                  ("socket child: " + codec_err).c_str());
  cfg.socket.rank = std::atoi(argv[3]);
  // The incarnation epoch rides argv, not the shared config file: every
  // respawn of a rank gets a bumped value while the siblings keep theirs.
  cfg.socket.epoch = static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 10));
  const std::uint32_t nprocs = cfg.socket.resolve_processes(cfg.num_dcs);
  const std::vector<runtime::Endpoint>& hosts = cfg.socket.hosts;
  std::string host_err;
  PARIS_CHECK_MSG(runtime::validate_host_list(hosts, nprocs, &host_err),
                  ("socket child: " + host_err).c_str());
  PARIS_CHECK_MSG(cfg.socket.rank >= 0 && static_cast<std::uint32_t>(cfg.socket.rank) < nprocs,
                  "socket child: rank outside the host list");
  std::printf("socket child: rank %d/%u epoch %u pid %d system=%s listen=%s\n",
              cfg.socket.rank, nprocs, cfg.socket.epoch, static_cast<int>(getpid()),
              proto::system_name(cfg.system),
              hosts[static_cast<std::size_t>(cfg.socket.rank)].str().c_str());
  std::fflush(stdout);

  std::vector<std::uint8_t> history;
  const ExperimentResult res = detail::run_local_experiment(
      cfg, cfg.check_consistency ? &history : nullptr);

  std::vector<std::uint8_t> out;
  detail::encode_child_result(res, history, out);
  PARIS_CHECK_MSG(detail::write_file(argv[4], out.data(), out.size()),
                  "socket child: cannot write the result file");
  std::printf(
      "socket child: done — %" PRIu64 " committed, %" PRIu64 " frames out / %" PRIu64
      " in, %" PRIu64 " retransmits, %" PRIu64 " redials (%" PRIu64 " giveups), %" PRIu64
      " stale-epoch fenced, %" PRIu64 " malformed, %" PRIu64 " snapshots / %" PRIu64
      " catchups served\n",
      res.committed, res.socket.frames_out, res.socket.frames_in,
      res.reliable.retransmits, res.socket.redial_attempts, res.socket.redial_giveups,
      res.socket.fenced_stale_epoch, res.socket.malformed_frames, res.snapshots_served,
      res.catchups_served);
  std::exit(0);
}

}  // namespace paris::workload
