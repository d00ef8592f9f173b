// Quickstart: bring up a 3-DC partially-replicated PaRiS cluster, run a few
// interactive read-write transactions, and watch the stable snapshot (UST)
// advance.
//
//   cluster:  3 DCs (Virginia, Oregon, Ireland), 6 partitions, R = 2
//   client:   collocated with a coordinator partition server in DC 0
//
// Everything runs inside the deterministic simulator; the protocol code is
// the real thing (Algorithms 1-4 of the paper).

#include <cstdio>

#include "proto/sim_access.h"

using namespace paris;

namespace {

/// Minimal blocking adapter for the continuation-based client API: run the
/// simulation until the pending operation completes.
struct BlockingClient {
  sim::Simulation& sim;
  proto::Client& c;

  Timestamp start() {
    Timestamp out;
    bool done = false;
    c.start_tx([&](TxId, Timestamp s) { out = s, done = true; });
    while (!done) sim.step();
    return out;
  }
  wire::Item read(Key k) {
    wire::Item out;
    bool done = false;
    c.read({k}, [&](std::vector<wire::Item> items) { out = items[0], done = true; });
    while (!done) sim.step();
    return out;
  }
  Timestamp commit() {
    Timestamp out;
    bool done = false;
    c.commit([&](Timestamp ct) { out = ct, done = true; });
    while (!done) sim.step();
    return out;
  }
};

}  // namespace

int main() {
  // 1. Describe the deployment: topology + protocol knobs (defaults follow
  //    the paper: ΔR = 1ms, ΔG = 5ms, HLC timestamps, AWS latencies).
  proto::DeploymentConfig cfg;
  cfg.system = proto::System::kParis;
  cfg.topo = {/*num_dcs=*/3, /*num_partitions=*/6, /*replication=*/2};
  cfg.seed = 2024;

  proto::Deployment dep(cfg);
  dep.start();
  std::printf("cluster up: %u DCs, %u partitions, R=%u (%u servers)\n",
              dep.topo().num_dcs(), dep.topo().num_partitions(), dep.topo().replication(),
              dep.topo().total_servers());

  // 2. Let replication heartbeats and the UST gossip settle.
  dep.run_for(300'000);

  // 3. Open a client session against a coordinator in DC 0.
  auto& client = dep.add_client(/*dc=*/0, dep.topo().partitions_at(0)[0]);
  BlockingClient bc{sim_of(dep), client};

  const Key alice = dep.topo().make_key(/*partition=*/0, /*rank=*/1);
  const Key bob = dep.topo().make_key(/*partition=*/1, /*rank=*/1);

  // 4. A read-write transaction updating two keys on different partitions.
  Timestamp snap = bc.start();
  std::printf("tx1 snapshot (UST) = %s\n", to_string(snap).c_str());
  client.write({{alice, "hello"}, {bob, "world"}});
  const Timestamp ct = bc.commit();
  std::printf("tx1 committed atomically at ct = %s\n", to_string(ct).c_str());

  // 5. Read-your-writes: immediately visible to this client via its write
  //    cache even though the commit is not yet in the stable snapshot.
  snap = bc.start();
  std::printf("tx2 snapshot = %s (< ct: commit not yet stable)\n", to_string(snap).c_str());
  std::printf("tx2 reads alice -> \"%s\" (from the client write cache)\n",
              bc.read(alice).v.c_str());
  bc.commit();

  // 6. After stabilization the write is in the snapshot of every DC; any
  //    client anywhere reads it without blocking.
  dep.run_for(400'000);
  auto& remote = dep.add_client(/*dc=*/2, dep.topo().partitions_at(2)[0]);
  BlockingClient rc{sim_of(dep), remote};
  snap = rc.start();
  std::printf("remote tx snapshot = %s (>= ct: now stable)\n", to_string(snap).c_str());
  std::printf("remote reads alice -> \"%s\", bob -> \"%s\" — both or neither, never one\n",
              rc.read(alice).v.c_str(), rc.read(bob).v.c_str());
  rc.commit();

  std::printf("\nsimulated %.1f ms, %llu events, %llu bytes on the wire\n",
              sim_of(dep).now() / 1000.0,
              static_cast<unsigned long long>(sim_of(dep).events_executed()),
              static_cast<unsigned long long>(net_of(dep).total_bytes_sent()));
  return 0;
}
