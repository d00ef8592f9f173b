#pragma once
// SimBackend: the discrete-event simulator packaged as a runtime::Backend.
// A thin adapter — every Executor/Transport call forwards 1:1 to the same
// sim::Simulation / sim::Network call the protocol layer used to make
// directly, so a sim-backed run is byte-identical to the pre-abstraction
// code (same event order, same RNG draw sequence, same message order).

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "runtime/backend.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace paris::runtime {

class SimBackend final : public Backend, public Executor, public Transport {
 public:
  SimBackend(std::uint64_t seed, sim::LatencyModel latency,
             sim::CodecMode codec = sim::CodecMode::kBytes)
      : sim_(seed), net_(sim_, std::move(latency), codec) {}

  // --- Backend ---
  Kind kind() const override { return Kind::kSim; }
  Executor& exec() override { return *this; }
  Transport& transport() override { return *this; }
  Rng& rng() override { return sim_.rng(); }
  NodeId add_node(Actor* actor, DcId dc, ServiceFn service,
                  NodeId colocate_with = kInvalidNode) override {
    const NodeId n = net_.add_node(actor, dc, std::move(service));
    if (colocate_with != kInvalidNode) net_.set_colocated(n, colocate_with);
    return n;
  }
  void run_for(std::uint64_t us) override { sim_.run_until(sim_.now() + us); }
  void stop() override {}
  std::uint64_t events_executed() const override { return sim_.events_executed(); }

  // --- Executor ---
  std::uint64_t now_us() const override { return sim_.now(); }
  void defer(NodeId /*actor*/, std::function<void()> fn) override {
    sim_.after(0, std::move(fn));
  }
  // The driving thread IS the sim's single execution context: run inline.
  void post(NodeId /*actor*/, std::function<void()> fn) override { fn(); }
  void defer_at(NodeId /*actor*/, std::uint64_t at_us, std::function<void()> fn) override {
    sim_.at(std::max(at_us, sim_.now()), std::move(fn));
  }
  std::uint64_t start_periodic(NodeId /*actor*/, std::uint64_t period_us,
                               std::uint64_t phase_us, std::function<void()> fn) override {
    const std::uint64_t id = next_timer_id_++;
    timers_.emplace(id, sim_.every(period_us, phase_us, std::move(fn)));
    return id;
  }
  void cancel_periodic(std::uint64_t id) override { timers_.erase(id); }

  // --- Transport ---
  void send(NodeId from, NodeId to, wire::MessagePtr msg) override {
    net_.send(from, to, std::move(msg));
  }
  wire::MessagePool& msg_pool(NodeId /*self*/) override { return net_.msg_pool(); }
  DcId dc_of(NodeId n) const override { return net_.dc_of(n); }
  bool node_paused(NodeId n) const override { return net_.node_paused(n); }
  void charge_cpu(NodeId n, std::uint64_t us) override { net_.charge_cpu(n, us); }
  std::uint64_t total_bytes_sent() const override { return net_.total_bytes_sent(); }

  // --- sim-specific access (tests, fault injection, benches) ---
  sim::Simulation& sim() { return sim_; }
  sim::Network& net() { return net_; }
  /// Checked downcast for test helpers reaching under a Deployment.
  static SimBackend& of(Backend& b);

 private:
  sim::Simulation sim_;
  sim::Network net_;
  std::unordered_map<std::uint64_t, sim::Simulation::PeriodicHandle> timers_;
  std::uint64_t next_timer_id_ = 1;
};

}  // namespace paris::runtime
