#include "workload/openloop.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/assert.h"

namespace paris::workload {

namespace {

/// Schedule memory guard: ~100 bytes/arrival means 4M arrivals is ~400MB
/// worst case per engine — far above any configuration the tests or benches
/// use, but a runaway rate*horizon product fails loudly instead of OOMing.
constexpr std::size_t kMaxArrivals = 4'000'000;

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

const char* rate_profile_name(RateProfile p) {
  switch (p) {
    case RateProfile::kConstant: return "constant";
    case RateProfile::kDiurnal: return "diurnal";
    case RateProfile::kFlash: return "flash";
  }
  return "?";
}

bool parse_rate_profile(const char* text, RateProfile* out) {
  if (std::strcmp(text, "constant") == 0) {
    *out = RateProfile::kConstant;
  } else if (std::strcmp(text, "diurnal") == 0) {
    *out = RateProfile::kDiurnal;
  } else if (std::strcmp(text, "flash") == 0) {
    *out = RateProfile::kFlash;
  } else {
    return false;
  }
  return true;
}

bool load_trace(const std::string& path, std::vector<TraceEntry>* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    *err = "cannot open trace file: " + path;
    return false;
  }
  char line[256];
  std::uint64_t last = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char* s = line;
    while (*s == ' ' || *s == '\t') ++s;
    if (*s == '#' || *s == '\n' || *s == '\0') continue;
    TraceEntry e;
    char* end = nullptr;
    e.offset_us = std::strtoull(s, &end, 10);
    if (end == s) {
      *err = "bad trace line (expected 'offset_us [key_rank]'): " + std::string(line);
      std::fclose(f);
      return false;
    }
    s = end;
    while (*s == ' ' || *s == '\t') ++s;
    if (*s != '\n' && *s != '\0' && *s != '\r') {
      e.key_rank = std::strtoull(s, &end, 10);
      if (end == s) {
        *err = "bad trace key in line: " + std::string(line);
        std::fclose(f);
        return false;
      }
      e.has_key = true;
    }
    if (e.offset_us < last) {
      *err = "trace not time-sorted at offset " + std::to_string(e.offset_us);
      std::fclose(f);
      return false;
    }
    last = e.offset_us;
    out->push_back(e);
  }
  std::fclose(f);
  return true;
}

OpenLoopEngine::OpenLoopEngine(const cluster::Topology& topo, const WorkloadSpec& w,
                               const OpenLoopSpec& ol, DcId dc, PartitionId partition,
                               std::uint32_t engine_index, std::uint32_t num_engines,
                               std::uint64_t horizon_us, std::uint64_t seed,
                               const std::vector<TraceEntry>* trace)
    : horizon_us_(horizon_us) {
  PARIS_CHECK(num_engines > 0);
  const std::uint32_t sessions = ol.sessions > 0 ? ol.sessions : 1;
  // The generator and the arrival process use decoupled RNG streams so that
  // changing the rate never perturbs the transaction shapes and vice versa.
  TxGenerator gen(topo, w, dc, seed);
  Rng arrivals(splitmix64(seed ^ 0x9e3779b97f4a7c15ULL));

  if (trace != nullptr) {
    // Trace replay: lines are dealt round-robin across engines.
    for (std::size_t i = engine_index; i < trace->size(); i += num_engines) {
      const TraceEntry& e = (*trace)[i];
      if (e.offset_us > horizon_us) break;  // time-sorted: nothing later fits
      Arrival a;
      a.at_us = e.offset_us;
      a.session = static_cast<std::uint32_t>(i % sessions);
      a.plan = e.has_key
                   ? gen.next_for_key(topo.make_key(partition,
                                                    e.key_rank % w.keys_per_partition))
                   : gen.next();
      schedule_.push_back(std::move(a));
      if (schedule_.size() >= kMaxArrivals) break;
    }
  } else {
    const double base = ol.arrival_rate / static_cast<double>(num_engines);
    PARIS_CHECK_MSG(base > 0, "open-loop arrival rate must be positive");
    // Piecewise-Poisson: each inter-arrival gap is exponential at the
    // instantaneous rate. Exact for kConstant; for the shaped profiles the
    // rate is held over one gap, which is accurate while gaps are short
    // relative to the profile's timescale (they are: period >= 100ms,
    // gaps ~1/rate).
    double t = 0;
    std::uint64_t idx = 0;
    while (true) {
      double rate = base;
      switch (ol.profile) {
        case RateProfile::kConstant:
          break;
        case RateProfile::kDiurnal:
          rate = base * (1.0 + ol.diurnal_amp *
                                   std::sin(2.0 * M_PI * t /
                                            static_cast<double>(ol.diurnal_period_us)));
          if (rate < base * 0.01) rate = base * 0.01;
          break;
        case RateProfile::kFlash:
          if (t >= static_cast<double>(ol.flash_at_us) &&
              t < static_cast<double>(ol.flash_at_us + ol.flash_len_us)) {
            rate = base * ol.flash_mult;
          }
          break;
      }
      double u = arrivals.next_double();
      if (u < 1e-12) u = 1e-12;
      t += -std::log(u) / rate * 1e6;
      if (t > static_cast<double>(horizon_us)) break;
      Arrival a;
      a.at_us = static_cast<std::uint64_t>(t);
      a.session = static_cast<std::uint32_t>(idx % sessions);
      a.plan = gen.next();
      schedule_.push_back(std::move(a));
      ++idx;
      PARIS_CHECK_MSG(schedule_.size() < kMaxArrivals,
                      "open-loop schedule exceeds the arrival cap; lower "
                      "--arrival-rate or the run length");
    }
  }

  // FNV-1a over the whole schedule: arrival times, session ids and every
  // key touched. Engines XOR into the experiment-level workload digest.
  std::uint64_t h = 1469598103934665603ULL;
  for (const Arrival& a : schedule_) {
    h = fnv1a_mix(h, a.at_us);
    h = fnv1a_mix(h, a.session);
    for (Key k : a.plan.reads) h = fnv1a_mix(h, k);
    for (const auto& kv : a.plan.writes) h = fnv1a_mix(h, kv.k);
  }
  digest_ = h;
}

void OpenLoopEngine::add_client(proto::Client* c) {
  PARIS_CHECK_MSG(clients_.empty() || c->coordinator() == clients_[0]->coordinator(),
                  "open-loop engine clients must share one coordinator (one context)");
  clients_.push_back(c);
}

void OpenLoopEngine::start(runtime::Executor& exec, std::uint64_t t0) {
  PARIS_CHECK_MSG(!clients_.empty(), "open-loop engine started without clients");
  exec_ = &exec;
  t0_ = t0;
  idle_.clear();
  for (std::size_t i = 0; i < clients_.size(); ++i) idle_.push_back(i);
  arm();
}

void OpenLoopEngine::finalize() {
  // Everything the schedule intended to send counts as scheduled — whether
  // or not it was released before the run ended. This is what keeps the
  // intended rate honest when the system (or a release stuck behind a
  // stalled worker) falls behind.
  while (next_ < schedule_.size() && schedule_[next_].at_us <= horizon_us_) {
    const std::uint64_t at = schedule_[next_].at_us;
    if (at >= active_from_us_ && at < active_until_us_) rec_.note_scheduled(t0_ + at);
    ++next_;
  }
}

void OpenLoopEngine::arm() {
  // Arrivals before this DC's membership window are intentionally unsent;
  // the schedule is time-sorted, so once one falls past the window's end
  // every later one does too.
  while (next_ < schedule_.size() && schedule_[next_].at_us < active_from_us_) ++next_;
  if (next_ == schedule_.size() || schedule_[next_].at_us >= active_until_us_) return;
  exec_->defer_at(clients_[0]->node(), t0_ + schedule_[next_].at_us, [this] { release(); });
}

void OpenLoopEngine::release() {
  const std::uint64_t now = exec_->now_us();
  // arm() left next_ in the window; every due arrival up to its end queues.
  while (next_ < schedule_.size() && schedule_[next_].at_us < active_until_us_ &&
         t0_ + schedule_[next_].at_us <= now) {
    rec_.note_scheduled(t0_ + schedule_[next_].at_us);
    backlog_.push_back(next_++);
  }
  rec_.note_backlog(backlog_.size());
  while (!backlog_.empty() && !idle_.empty()) {
    const std::size_t ci = idle_.back();
    idle_.pop_back();
    const std::size_t ai = backlog_.front();
    backlog_.pop_front();
    run_tx(ci, ai);  // already on the clients' context: no hop
  }
  arm();
}

void OpenLoopEngine::run_tx(std::size_t ci, std::size_t ai) {
  proto::Client& c = *clients_[ci];
  const std::uint64_t started = exec_->now_us();
  const TxPlan& plan = schedule_[ai].plan;  // immutable after construction
  c.start_tx([this, ci, ai, started, &c, &plan](TxId, Timestamp) {
    if (plan.reads.empty()) {
      if (!plan.writes.empty()) c.write(plan.writes);
      c.commit([this, ci, ai, started](Timestamp) { on_done(ci, ai, started); });
      return;
    }
    c.read(plan.reads, [this, ci, ai, started, &c, &plan](std::vector<wire::Item>) {
      if (!plan.writes.empty()) c.write(plan.writes);
      c.commit([this, ci, ai, started](Timestamp) { on_done(ci, ai, started); });
    });
  });
}

void OpenLoopEngine::on_done(std::size_t ci, std::size_t ai, std::uint64_t started) {
  rec_.record(t0_ + schedule_[ai].at_us, started, exec_->now_us());
  if (backlog_.empty()) {
    idle_.push_back(ci);
    return;
  }
  // Chain the next queued arrival directly, keeping the channel saturated
  // while a backlog exists.
  const std::size_t next_ai = backlog_.front();
  backlog_.pop_front();
  run_tx(ci, next_ai);
}

}  // namespace paris::workload
