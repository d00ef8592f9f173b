#pragma once
// Client session (Alg. 1).
//
// A client is pinned to one coordinator partition server in its local DC
// (§II-C) and runs one interactive transaction at a time. The API is
// continuation-based because the client lives inside the discrete-event
// simulation: start_tx / read / commit complete asynchronously.
//
// PaRiS clients keep a private write cache WC_c holding their own committed
// writes that the UST has not yet covered; on every transaction start the
// cache is pruned of entries at or below the new snapshot (§III-B "Cache").
// BPR clients need no cache (snapshots are fresh and include the client's
// last commit time) — they fold hwt into the "seen" timestamp instead.

#include <functional>
#include <unordered_map>
#include <vector>

#include "proto/runtime.h"
#include "runtime/actor.h"

namespace paris::proto {

class Client : public runtime::Actor {
 public:
  struct Options {
    bool use_write_cache = true;    ///< PaRiS: read-your-writes via WC_c
    bool fold_hwt_into_seen = false;  ///< BPR: snapshot >= last commit time
  };
  static Options paris_options() { return {true, false}; }
  static Options bpr_options() { return {false, true}; }

  using StartCb = std::function<void(TxId, Timestamp snapshot)>;
  using ReadCb = std::function<void(std::vector<wire::Item>)>;
  using CommitCb = std::function<void(Timestamp ct)>;

  Client(Runtime& rt, DcId dc, NodeId coordinator, Options opt);

  void attach(NodeId self) { self_ = self; }

  // --- transaction API (one operation outstanding at a time) ---
  void start_tx(StartCb cb);
  /// Reads keys in parallel; results arrive in request order. Keys found in
  /// the write set, read set or write cache are served locally (Alg. 1
  /// lines 8-19). With ReadMode::kCounter every key is evaluated with
  /// counter semantics: the returned value is the merged sum of all visible
  /// deltas plus this client's own not-yet-stable deltas (read-your-writes
  /// for counters). Do not mix modes on the same key within a transaction.
  void read(std::vector<Key> keys, ReadCb cb,
            wire::ReadMode mode = wire::ReadMode::kRegister);
  /// Buffers writes in the write set (Alg. 1 lines 21-25).
  void write(std::vector<wire::WriteKV> kvs);
  /// Buffers a convergent counter increment (§II-B conflict-resolution
  /// extension): concurrent adds from any DC merge by summation.
  void add(Key k, std::int64_t delta);
  /// Finalizes the transaction: runs the 2PC if the write set is non-empty,
  /// otherwise just releases the coordinator context. cb receives the
  /// commit timestamp (zero for read-only transactions).
  void commit(CommitCb cb);

  // --- introspection ---
  bool in_tx() const { return current_tx_.valid(); }
  Timestamp ust() const { return ust_c_; }
  Timestamp hwt() const { return hwt_; }
  Timestamp snapshot() const { return snapshot_; }
  std::size_t cache_size() const { return cache_.size(); }
  NodeId node() const { return self_; }
  NodeId coordinator() const { return coord_; }
  DcId dc() const { return dc_; }

  struct Stats {
    std::uint64_t txs_started = 0;
    std::uint64_t txs_committed = 0;
    std::uint64_t read_only_txs = 0;
    std::uint64_t keys_read = 0;
    std::uint64_t keys_written = 0;
    std::uint64_t local_hits = 0;  ///< reads served from WS/RS/WC
    std::size_t max_cache_size = 0;
  };
  const Stats& stats() const { return stats_; }

  void on_message(NodeId from, const wire::Message& m) override;

 private:
  void deliver_read();
  void end_tx();

  Runtime& rt_;
  DcId dc_;
  NodeId coord_;
  NodeId self_ = kInvalidNode;
  Options opt_;

  // Session state (Alg. 1).
  Timestamp ust_c_;  ///< highest stable snapshot observed
  Timestamp hwt_;    ///< commit time of the last update transaction
  std::unordered_map<Key, wire::Item> cache_;  ///< WC_c (register writes)
  /// WC_c for counters: committed-but-not-yet-stable deltas per key. Same
  /// lifecycle as cache_: pruned on transaction start once ct <= ust_c.
  std::unordered_map<Key, std::vector<std::pair<Timestamp, std::int64_t>>> counter_cache_;

  // Current transaction.
  TxId current_tx_;
  Timestamp snapshot_;
  std::unordered_map<Key, wire::Item> rs_;  ///< read set
  std::vector<wire::WriteKV> ws_;           ///< write set (ordered)

  // Pending operation state.
  StartCb start_cb_;
  ReadCb read_cb_;
  CommitCb commit_cb_;
  std::vector<Key> pending_keys_;                    ///< full request order
  std::vector<Key> remote_scratch_;                  ///< keys not served locally
  std::unordered_map<Key, wire::Item> pending_found_;  ///< local + server hits
  wire::ReadMode pending_mode_ = wire::ReadMode::kRegister;

  Stats stats_;
};

}  // namespace paris::proto
