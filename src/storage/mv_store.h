#pragma once
// Multi-version key-value storage for one partition replica (§II-C).
//
// Each key holds a version chain ordered by the total version order
// (ut, transaction id, source DC) — the order PaRiS uses both for
// last-writer-wins convergence and for tie-breaking concurrent updates that
// received the same timestamp (§IV-B "Read"). Snapshot reads return the
// freshest version with ut <= snapshot. Garbage collection keeps, for every
// key, the newest version at-or-below the GC watermark plus everything newer
// (§IV-B "Garbage collection").

#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hlc.h"
#include "common/types.h"

namespace paris::store {

/// One stored version. The payload is tagged by `kind`: register puts carry
/// their bytes in `v`, counter deltas carry a binary int64 in `num` and
/// leave `v` empty. A register's numeric interpretation (its value when it
/// seeds a counter sum) is parsed lazily and cached in `num`, so neither
/// the register apply path nor repeated counter reads pay for strtoll.
struct Version {
  Value v;                      ///< register payload (empty for counter deltas)
  mutable std::int64_t num = 0; ///< binary payload / cached numeric value of v
  Timestamp ut;                 ///< update (commit) timestamp
  TxId tx;                      ///< creating transaction
  DcId sr = 0;                  ///< source DC
  std::uint8_t kind = 0;        ///< wire::WriteKind: register put or counter delta
  mutable bool num_cached = false;

  /// Numeric payload: the delta of a counter write, the (lazily parsed)
  /// decimal value of a register. Single-threaded by design, like the rest
  /// of the simulator — the cache is not synchronized.
  std::int64_t numeric() const {
    if (!num_cached) {
      num = v.empty() ? 0 : std::strtoll(v.c_str(), nullptr, 10);
      num_cached = true;
    }
    return num;
  }

  /// Total version order: (ut, tx, sr), per §IV-B.
  friend bool operator<(const Version& a, const Version& b) {
    if (a.ut != b.ut) return a.ut < b.ut;
    if (a.tx != b.tx) return a.tx < b.tx;
    return a.sr < b.sr;
  }
};

struct StoreStats {
  std::uint64_t applied_versions = 0;
  std::uint64_t gc_removed = 0;
  std::uint64_t reads = 0;
};

class MvStore {
 public:
  /// Installs a new version (idempotent inserts of an identical (ut,tx,sr)
  /// version are rejected as duplicates and ignored; replication channels
  /// are FIFO so this only happens in tests). `kind` selects the
  /// convergence semantics of the write (register vs counter delta).
  /// `delta` is the binary payload of a counter write; register writes
  /// ignore it (their numeric cache is parsed from v once, here).
  void apply(Key k, const Value& v, std::int64_t delta, Timestamp ut, TxId tx, DcId sr,
             std::uint8_t kind);

  /// String-payload convenience form: counter deltas are parsed from v
  /// (legacy/test call sites; the protocol hot path passes binary deltas).
  void apply(Key k, const Value& v, Timestamp ut, TxId tx, DcId sr, std::uint8_t kind = 0);

  /// Freshest version with ut <= snapshot, or nullptr if the key has no
  /// version inside the snapshot (callers surface a "key absent" item).
  const Version* read(Key k, Timestamp snapshot) const;

  /// Counter semantics (§II-B extension): the sum of all visible delta
  /// versions since (and including) the last visible register write, whose
  /// numeric value seeds the sum. Returns the sum and the newest
  /// contributing version (nullptr if nothing is visible). Summation is
  /// commutative and associative, so concurrent increments from different
  /// DCs all survive — unlike LWW, which would keep only one. The walk is
  /// purely over binary payloads; no string parsing.
  std::pair<std::int64_t, const Version*> read_counter(Key k, Timestamp snapshot) const;

  /// Latest version regardless of snapshot (diagnostics/convergence tests).
  const Version* latest(Key k) const;

  /// Number of stored versions of k (0 if unknown key).
  std::size_t chain_length(Key k) const;

  /// Prunes old versions: for each key keeps the newest version with
  /// ut <= watermark and all newer ones. Returns versions removed.
  std::size_t gc(Timestamp watermark);

  /// All keys with at least one version (unordered). Diagnostics and
  /// convergence tests; not a hot path.
  std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(chains_.size());
    for (const auto& [k, chain] : chains_) {
      if (!chain.empty()) out.push_back(k);
    }
    return out;
  }

  std::size_t num_keys() const { return chains_.size(); }
  std::size_t num_versions() const { return num_versions_; }
  const StoreStats& stats() const { return stats_; }

  /// Visits every non-empty version chain as (key, const vector<Version>&),
  /// unordered. Snapshot state transfer streams the whole store through
  /// this; apply() is idempotent on (ut, tx, sr), so re-installing a
  /// visited version elsewhere is safe even when snapshot and catch-up
  /// streams overlap.
  template <class F>
  void for_each_chain(F&& f) const {
    for (const auto& [k, chain] : chains_) {
      if (!chain.empty()) f(k, chain);
    }
  }

 private:
  std::unordered_map<Key, std::vector<Version>> chains_;
  // Keys whose chain may shrink under GC; avoids full scans on every cycle.
  std::unordered_set<Key> multi_version_keys_;
  std::size_t num_versions_ = 0;
  mutable StoreStats stats_;
};

}  // namespace paris::store
