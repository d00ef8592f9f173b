#pragma once
// All protocol messages exchanged between clients and servers.
//
// Each message declares its fields once via a static `fields(self, visitor)`
// template; encoding, decoding and wire sizing are derived from that single
// declaration (see field visitors at the bottom). Adding a message means:
// add the struct, add it to the MsgType enum, and register it in the
// PARIS_FOREACH_MESSAGE X-macro.

#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/hlc.h"
#include "common/types.h"
#include "wire/buffer.h"
#include "wire/recycling_vec.h"

namespace paris::wire {

enum class MsgType : std::uint8_t {
  kClientStartReq = 1,
  kClientStartResp,
  kClientReadReq,
  kClientReadResp,
  kClientCommitReq,
  kClientCommitResp,
  kTxEnd,
  kReadSliceReq,
  kReadSliceResp,
  kPrepareReq,
  kPrepareResp,
  kCommit2pc,
  kReplicateBatch,
  kHeartbeat,
  kGossipUp,
  kGossipRoot,
  kUstDown,
  kReliableFrame,
  kReliableAck,
  kSnapshotRequest,
  kSnapshotChunk,
  kCatchUpRequest,
  kCatchUpChunk,
};

const char* msg_type_name(MsgType t);
inline constexpr int kNumMsgTypes = static_cast<int>(MsgType::kCatchUpChunk) + 1;

// ---------------------------------------------------------------------------
// Plain data sub-records.
// ---------------------------------------------------------------------------

/// A full item version as stored and returned by reads: §IV-A
/// d = <k, v, ut, idT, sr>.
struct Item {
  Key k = 0;
  Value v;
  std::int64_t num = 0;  ///< binary payload: merged sum for counter reads
  Timestamp ut;
  TxId tx;
  DcId sr = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.k);
    f(s.v);
    f(s.num);
    f(s.ut);
    f(s.tx);
    f(s.sr);
  }
  friend bool operator==(const Item&, const Item&) = default;
};

/// Write semantics (§II-B conflict resolution): registers converge by
/// last-writer-wins; counter deltas converge by summation, a commutative
/// and associative merge that never loses concurrent updates.
enum class WriteKind : std::uint8_t {
  kRegisterPut = 0,
  kCounterAdd = 1,
};

/// Read semantics, chosen per READ call.
enum class ReadMode : std::uint8_t {
  kRegister = 0,  ///< freshest visible version (LWW)
  kCounter = 1,   ///< sum of visible deltas since the last register write
};

/// A buffered client write (key + new value or delta). Counter deltas carry
/// their value as a binary integer in `num` (v stays empty), so the apply
/// and read paths never round-trip through decimal strings; the string form
/// (v = "42", num = 0) is still accepted for hand-built writes.
struct WriteKV {
  Key k = 0;
  Value v;
  std::int64_t num = 0;   ///< binary counter delta (WriteKind::kCounterAdd)
  std::uint8_t kind = 0;  ///< WriteKind

  WriteKV() = default;
  WriteKV(Key key, Value val, WriteKind wk = WriteKind::kRegisterPut)
      : k(key), v(std::move(val)), kind(static_cast<std::uint8_t>(wk)) {}
  /// Binary counter delta.
  WriteKV(Key key, std::int64_t delta)
      : k(key), num(delta), kind(static_cast<std::uint8_t>(WriteKind::kCounterAdd)) {}

  WriteKind write_kind() const { return static_cast<WriteKind>(kind); }

  /// Numeric value of a counter delta, whichever form it was built in.
  std::int64_t delta() const {
    return v.empty() ? num : std::strtoll(v.c_str(), nullptr, 10);
  }

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.k);
    f(s.v);
    f(s.num);
    f(s.kind);
  }
  friend bool operator==(const WriteKV&, const WriteKV&) = default;
};

/// One transaction inside a replication group. `writes` recycles its
/// elements so a reused ReplicateTxn keeps each WriteKV's value-string
/// capacity — without this, shrinking the writes count would free the
/// strings and any non-SSO value would re-allocate on the next decode.
struct ReplicateTxn {
  TxId tx;
  RecyclingVec<WriteKV> writes;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.writes);
  }
  friend bool operator==(const ReplicateTxn&, const ReplicateTxn&) = default;
};

/// All transactions applied at the same commit timestamp (Alg. 4 line 11).
/// `txs` recycles its elements (RecyclingVec) so that a pooled
/// ReplicateBatch keeps every nesting level's capacity across reuse — the
/// thread runtime decodes one per ΔR per channel, which must not allocate
/// in steady state.
struct ReplicateGroup {
  Timestamp ct;
  RecyclingVec<ReplicateTxn> txs;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.ct);
    f(s.txs);
  }
  friend bool operator==(const ReplicateGroup&, const ReplicateGroup&) = default;
};

// ---------------------------------------------------------------------------
// Message base.
// ---------------------------------------------------------------------------

class MessagePool;
class MessagePtr;
template <class T>
class PooledPtr;
template <class T>
PooledPtr<T> make_message();

struct Message {
  virtual ~Message() = default;
  virtual MsgType type() const = 0;
  virtual void encode(Encoder& e) const = 0;
  /// Wire size of the payload (excludes the 1-byte type tag).
  virtual std::size_t wire_size() const = 0;
  /// Clears every payload field to its default while keeping vector/string
  /// capacity, so a pooled message can be rebuilt in place.
  virtual void reset_payload() = 0;

 private:
  friend class MessagePool;
  friend class MessagePtr;
  template <class T>
  friend class PooledPtr;
  template <class T>
  friend PooledPtr<T> make_message();
  friend void unref_message(const Message* m);

  // Intrusive refcount + owning pool (null for unpooled messages). The
  // simulation is single-threaded by design, so plain counters suffice.
  mutable std::uint32_t rc_ = 0;
  mutable MessagePool* pool_ = nullptr;
};

void unref_message(const Message* m);

/// Shared, immutable handle to a protocol message in flight. Releasing the
/// last reference returns the message to its pool (or deletes an unpooled
/// one). Replaces shared_ptr<const Message>: no control block, no atomics,
/// no allocation on the send path.
class MessagePtr {
 public:
  MessagePtr() = default;
  MessagePtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  MessagePtr(const MessagePtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->rc_;
  }
  MessagePtr(MessagePtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  /// Adopts a builder handle (typically just-filled fields); implicit so
  /// freshly built messages can be passed straight to send().
  template <class T>
  MessagePtr(PooledPtr<T>&& o) noexcept;  // NOLINT(google-explicit-constructor)
  MessagePtr& operator=(const MessagePtr& o) {
    MessagePtr tmp(o);
    std::swap(p_, tmp.p_);
    return *this;
  }
  MessagePtr& operator=(MessagePtr&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~MessagePtr() { reset(); }

  void reset() {
    if (p_ != nullptr) {
      unref_message(p_);
      p_ = nullptr;
    }
  }
  const Message* get() const { return p_; }
  const Message& operator*() const { return *p_; }
  const Message* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const MessagePtr& a, std::nullptr_t) { return a.p_ == nullptr; }

 private:
  const Message* p_ = nullptr;
};

/// Move-only typed handle used while building a message (mutable access);
/// converts into a MessagePtr for sending.
template <class T>
class PooledPtr {
 public:
  PooledPtr() = default;
  explicit PooledPtr(T* p) : p_(p) {}
  PooledPtr(const PooledPtr&) = delete;
  PooledPtr& operator=(const PooledPtr&) = delete;
  PooledPtr(PooledPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PooledPtr& operator=(PooledPtr&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~PooledPtr() { reset(); }

  void reset() {
    if (p_ != nullptr) {
      unref_message(p_);
      p_ = nullptr;
    }
  }
  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  friend class MessagePtr;
  T* p_ = nullptr;
};

template <class T>
MessagePtr::MessagePtr(PooledPtr<T>&& o) noexcept : p_(o.p_) {
  o.p_ = nullptr;  // reference transferred, no rc change
}

/// Per-MsgType free lists of message objects. acquire() hands out a reset
/// message whose vectors/strings keep their previously grown capacity, so a
/// warmed-up pool serves the whole protocol without heap traffic. Outstanding
/// messages keep a dying pool safe: the destructor detaches them and they
/// self-delete on their last unref.
class MessagePool {
 public:
  struct Stats {
    std::uint64_t allocated = 0;  ///< messages created with new
    std::uint64_t reused = 0;     ///< messages served from a free list
  };

  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;
  ~MessagePool() {
    for (Message* m : all_) {
      if (m->rc_ == 0) {
        delete m;
      } else {
        m->pool_ = nullptr;  // still in flight: self-deletes on last unref
      }
    }
  }

  template <class T>
  PooledPtr<T> make() {
    auto& fl = free_[static_cast<int>(T::kType)];
    T* m;
    if (fl.empty()) {
      m = new T();
      m->pool_ = this;
      all_.push_back(m);
      ++stats_.allocated;
    } else {
      m = static_cast<T*>(fl.back());
      fl.pop_back();
      ++stats_.reused;
    }
    m->rc_ = 1;
    return PooledPtr<T>(m);
  }

  const Stats& stats() const { return stats_; }
  std::size_t live_messages() const { return all_.size(); }

 private:
  friend void unref_message(const Message* m);
  void release(Message* m) {
    m->reset_payload();
    free_[static_cast<int>(m->type())].push_back(m);
  }

  std::array<std::vector<Message*>, kNumMsgTypes> free_;
  std::vector<Message*> all_;  ///< every message ever allocated by this pool
  Stats stats_;
};

inline void unref_message(const Message* m) {
  if (--m->rc_ == 0) {
    Message* mm = const_cast<Message*>(m);
    if (mm->pool_ != nullptr) {
      mm->pool_->release(mm);
    } else {
      delete mm;
    }
  }
}

/// Builds an unpooled message (tests, tools): deleted on last unref.
template <class T>
PooledPtr<T> make_message() {
  T* m = new T();
  m->rc_ = 1;
  return PooledPtr<T>(m);
}

/// Encodes [type tag][payload] into out.
void encode_message(const Message& m, std::vector<std::uint8_t>& out);

/// Decodes a message previously produced by encode_message.
std::unique_ptr<Message> decode_message(Decoder& d);

/// Decodes into a message acquired from `pool` (field vectors keep their
/// grown capacity), so a warmed-up receive path decodes without heap
/// traffic. Used by the thread runtime, whose transport serializes every
/// message between per-worker pools.
MessagePtr decode_message_pooled(Decoder& d, MessagePool& pool);

// ---------------------------------------------------------------------------
// Field visitors.
// ---------------------------------------------------------------------------

namespace detail {

/// Signed integers go on the wire zigzag-encoded (small magnitudes of either
/// sign stay short).
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

struct WireWriter {
  Encoder& e;
  /// WriteKV/Item carry their binary counter payload (`num`) behind a
  /// presence bit folded into an existing byte (WriteKV's kind flags,
  /// Item's shifted source-DC), so register traffic — where num is always
  /// 0 — pays zero varint overhead for the field.
  void operator()(const WriteKV& w) {
    (*this)(w.k);
    (*this)(w.v);
    const bool has_num = w.num != 0;
    e.put_u8(static_cast<std::uint8_t>((w.kind & 1u) | (has_num ? 2u : 0u)));
    if (has_num) e.put_varint(zigzag(w.num));
  }
  void operator()(const Item& it) {
    (*this)(it.k);
    (*this)(it.v);
    (*this)(it.ut);
    (*this)(it.tx);
    const bool has_num = it.num != 0;
    e.put_varint((static_cast<std::uint64_t>(it.sr) << 1) | (has_num ? 1u : 0u));
    if (has_num) e.put_varint(zigzag(it.num));
  }
  void operator()(std::uint8_t v) { e.put_u8(v); }
  void operator()(std::uint64_t v) { e.put_varint(v); }
  void operator()(std::uint32_t v) { e.put_varint(v); }
  void operator()(std::uint16_t v) { e.put_varint(v); }
  void operator()(std::int64_t v) { e.put_varint(zigzag(v)); }
  void operator()(const std::string& v) { e.put_bytes(v); }
  void operator()(Timestamp v) { e.put_varint(v.raw); }
  void operator()(TxId v) { e.put_varint(v.raw); }
  // Byte blobs (nested encoded messages) go through the bulk path, not the
  // per-element template below.
  void operator()(const std::vector<std::uint8_t>& v) { e.put_blob(v); }
  template <class T>
  void operator()(const std::vector<T>& v) {
    e.put_varint(v.size());
    for (const auto& x : v) (*this)(x);
  }
  template <class T>
  void operator()(const RecyclingVec<T>& v) {
    e.put_varint(v.size());
    for (const auto& x : v) (*this)(x);
  }
  template <class T>
    requires requires(const T& t, WireWriter& w) { T::fields(t, w); }
  void operator()(const T& v) {
    T::fields(v, *this);
  }
};

struct WireReader {
  Decoder& d;
  void operator()(WriteKV& w) {
    (*this)(w.k);
    (*this)(w.v);
    const std::uint8_t flags = d.get_u8();
    w.kind = flags & 1u;
    w.num = (flags & 2u) ? unzigzag(d.get_varint()) : 0;
  }
  void operator()(Item& it) {
    (*this)(it.k);
    (*this)(it.v);
    (*this)(it.ut);
    (*this)(it.tx);
    const std::uint64_t sr_flags = d.get_varint();
    it.sr = static_cast<DcId>(sr_flags >> 1);
    it.num = (sr_flags & 1u) ? unzigzag(d.get_varint()) : 0;
  }
  void operator()(std::uint8_t& v) { v = d.get_u8(); }
  void operator()(std::uint64_t& v) { v = d.get_varint(); }
  void operator()(std::uint32_t& v) { v = static_cast<std::uint32_t>(d.get_varint()); }
  void operator()(std::uint16_t& v) { v = static_cast<std::uint16_t>(d.get_varint()); }
  void operator()(std::int64_t& v) { v = unzigzag(d.get_varint()); }
  void operator()(std::string& v) { d.get_bytes_into(v); }
  void operator()(Timestamp& v) { v.raw = d.get_varint(); }
  void operator()(TxId& v) { v.raw = d.get_varint(); }
  void operator()(std::vector<std::uint8_t>& v) { d.get_blob_into(v); }
  template <class T>
  void operator()(std::vector<T>& v) {
    v.resize(d.get_varint());
    for (auto& x : v) (*this)(x);
  }
  // Recycled elements come back in their previous state; every field is
  // overwritten by the per-element read below, so no stale data survives.
  template <class T>
  void operator()(RecyclingVec<T>& v) {
    v.resize(d.get_varint());
    for (auto& x : v) (*this)(x);
  }
  template <class T>
    requires requires(T& t, WireReader& r) { T::fields(t, r); }
  void operator()(T& v) {
    T::fields(v, *this);
  }
};

struct WireSizer {
  std::size_t n = 0;
  void operator()(const WriteKV& w) {
    (*this)(w.k);
    (*this)(w.v);
    n += 1;  // kind/presence flags
    if (w.num != 0) n += varint_size(zigzag(w.num));
  }
  void operator()(const Item& it) {
    (*this)(it.k);
    (*this)(it.v);
    (*this)(it.ut);
    (*this)(it.tx);
    n += varint_size((static_cast<std::uint64_t>(it.sr) << 1) | (it.num != 0 ? 1u : 0u));
    if (it.num != 0) n += varint_size(zigzag(it.num));
  }
  void operator()(std::uint8_t) { n += 1; }
  void operator()(std::uint64_t v) { n += varint_size(v); }
  void operator()(std::uint32_t v) { n += varint_size(v); }
  void operator()(std::uint16_t v) { n += varint_size(v); }
  void operator()(std::int64_t v) { n += varint_size(zigzag(v)); }
  void operator()(const std::string& v) { n += varint_size(v.size()) + v.size(); }
  void operator()(Timestamp v) { n += varint_size(v.raw); }
  void operator()(TxId v) { n += varint_size(v.raw); }
  void operator()(const std::vector<std::uint8_t>& v) {
    n += varint_size(v.size()) + v.size();
  }
  template <class T>
  void operator()(const std::vector<T>& v) {
    n += varint_size(v.size());
    for (const auto& x : v) (*this)(x);
  }
  template <class T>
  void operator()(const RecyclingVec<T>& v) {
    n += varint_size(v.size());
    for (const auto& x : v) (*this)(x);
  }
  template <class T>
    requires requires(const T& t, WireSizer& s) { T::fields(t, s); }
  void operator()(const T& v) {
    T::fields(v, *this);
  }
};

/// Resets every field to its default value, keeping container capacity
/// (clear(), not shrink) — the pool's in-place reuse hook.
struct FieldClearer {
  void operator()(std::uint8_t& v) { v = 0; }
  void operator()(std::uint64_t& v) { v = 0; }
  void operator()(std::uint32_t& v) { v = 0; }
  void operator()(std::uint16_t& v) { v = 0; }
  void operator()(std::int64_t& v) { v = 0; }
  void operator()(std::string& v) { v.clear(); }
  void operator()(Timestamp& v) { v = Timestamp{}; }
  void operator()(TxId& v) { v = TxId{}; }
  template <class T>
  void operator()(std::vector<T>& v) {
    v.clear();
  }
  // RecyclingVec::clear keeps the elements alive, so a pooled message's
  // nested buffers (inner vectors, value strings) survive the reset.
  template <class T>
  void operator()(RecyclingVec<T>& v) {
    v.clear();
  }
  template <class T>
    requires requires(T& t, FieldClearer& c) { T::fields(t, c); }
  void operator()(T& v) {
    T::fields(v, *this);
  }
};

}  // namespace detail

/// CRTP base deriving the Message interface from Derived::fields.
template <class Derived, MsgType Type>
struct MessageBase : Message {
  static constexpr MsgType kType = Type;
  MsgType type() const final { return Type; }
  void encode(Encoder& e) const final {
    detail::WireWriter w{e};
    Derived::fields(static_cast<const Derived&>(*this), w);
  }
  std::size_t wire_size() const final {
    detail::WireSizer s;
    Derived::fields(static_cast<const Derived&>(*this), s);
    return s.n;
  }
  void reset_payload() final {
    detail::FieldClearer c;
    Derived::fields(static_cast<Derived&>(*this), c);
  }
  static std::unique_ptr<Message> decode(Decoder& d) {
    auto m = std::make_unique<Derived>();
    detail::WireReader r{d};
    Derived::fields(*m, r);
    return m;
  }
};

// ---------------------------------------------------------------------------
// Client <-> coordinator messages (Alg. 1 / Alg. 2).
// ---------------------------------------------------------------------------

/// START-TX: carries the client's last observed stable snapshot ust_c.
struct ClientStartReq : MessageBase<ClientStartReq, MsgType::kClientStartReq> {
  Timestamp ust_c;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.ust_c);
  }
};

/// Reply: transaction id + assigned snapshot.
struct ClientStartResp : MessageBase<ClientStartResp, MsgType::kClientStartResp> {
  TxId tx;
  Timestamp snapshot;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.snapshot);
  }
};

/// READ: the keys the client could not serve from WS/RS/cache.
struct ClientReadReq : MessageBase<ClientReadReq, MsgType::kClientReadReq> {
  TxId tx;
  std::uint8_t mode = 0;  ///< ReadMode
  std::vector<Key> keys;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.mode);
    f(s.keys);
  }
};

struct ClientReadResp : MessageBase<ClientReadResp, MsgType::kClientReadResp> {
  TxId tx;
  std::vector<Item> items;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.items);
  }
};

/// COMMIT-TX: write set + the client's last update-commit time hwt_c.
struct ClientCommitReq : MessageBase<ClientCommitReq, MsgType::kClientCommitReq> {
  TxId tx;
  Timestamp hwt;
  std::vector<WriteKV> writes;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.hwt);
    f(s.writes);
  }
};

struct ClientCommitResp : MessageBase<ClientCommitResp, MsgType::kClientCommitResp> {
  TxId tx;
  Timestamp ct;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.ct);
  }
};

/// Read-only transactions end without a 2PC; this clears the coordinator's
/// transaction context (the paper GCs contexts on a timeout; an explicit end
/// message is equivalent and keeps the simulation memory bounded).
struct TxEnd : MessageBase<TxEnd, MsgType::kTxEnd> {
  TxId tx;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
  }
};

// ---------------------------------------------------------------------------
// Coordinator <-> cohort messages (Alg. 2 / Alg. 3).
// ---------------------------------------------------------------------------

struct ReadSliceReq : MessageBase<ReadSliceReq, MsgType::kReadSliceReq> {
  TxId tx;
  Timestamp snapshot;
  std::uint8_t mode = 0;  ///< ReadMode
  std::vector<Key> keys;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.snapshot);
    f(s.mode);
    f(s.keys);
  }
};

struct ReadSliceResp : MessageBase<ReadSliceResp, MsgType::kReadSliceResp> {
  TxId tx;
  std::vector<Item> items;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.items);
  }
};

struct PrepareReq : MessageBase<PrepareReq, MsgType::kPrepareReq> {
  TxId tx;
  PartitionId partition = 0;
  Timestamp snapshot;  ///< transaction snapshot (ust at start)
  Timestamp ht;        ///< max(snapshot, client hwt), Alg. 2 line 19
  std::vector<WriteKV> writes;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.partition);
    f(s.snapshot);
    f(s.ht);
    f(s.writes);
  }
};

struct PrepareResp : MessageBase<PrepareResp, MsgType::kPrepareResp> {
  TxId tx;
  PartitionId partition = 0;
  Timestamp pt;  ///< proposed commit timestamp
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.partition);
    f(s.pt);
  }
};

struct Commit2pc : MessageBase<Commit2pc, MsgType::kCommit2pc> {
  TxId tx;
  Timestamp ct;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.tx);
    f(s.ct);
  }
};

// ---------------------------------------------------------------------------
// Replication & stabilization (Alg. 4).
// ---------------------------------------------------------------------------

/// Batch of applied transactions shipped to peer replicas of a partition,
/// grouped by commit timestamp, in increasing ct order. `upto` is the
/// sender's version-clock upper bound (a merged heartbeat): the sender
/// guarantees every future ct from it exceeds `upto`.
struct ReplicateBatch : MessageBase<ReplicateBatch, MsgType::kReplicateBatch> {
  PartitionId partition = 0;
  Timestamp upto;
  RecyclingVec<ReplicateGroup> groups;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.upto);
    f(s.groups);
  }
};

/// Version-clock advance in the absence of updates (Alg. 4 line 21).
struct Heartbeat : MessageBase<Heartbeat, MsgType::kHeartbeat> {
  PartitionId partition = 0;
  Timestamp t;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.t);
  }
};

/// Intra-DC stabilization tree, child -> parent: the subtree's minimum
/// version-vector entry and oldest active snapshot (for GC, §IV-B).
struct GossipUp : MessageBase<GossipUp, MsgType::kGossipUp> {
  Timestamp min_vv;
  Timestamp oldest_active;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.min_vv);
    f(s.oldest_active);
  }
};

/// Root -> remote roots: this DC's global stable time (GST).
struct GossipRoot : MessageBase<GossipRoot, MsgType::kGossipRoot> {
  DcId dc = 0;
  Timestamp gst;
  Timestamp oldest_active;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.dc);
    f(s.gst);
    f(s.oldest_active);
  }
};

/// Root -> subtree: the universal stable time and GC watermark.
struct UstDown : MessageBase<UstDown, MsgType::kUstDown> {
  Timestamp ust;
  Timestamp gc_watermark;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.ust);
    f(s.gc_watermark);
  }
};

// ---------------------------------------------------------------------------
// Reliable-delivery framing (runtime::ReliableTransport, DESIGN.md §9).
// ---------------------------------------------------------------------------

/// At-least-once data frame: a protocol message encoded as an opaque blob,
/// tagged with a per-channel sequence number. `inner_type` duplicates
/// payload[0] so fault-injection decorators can classify the carried message
/// without decoding the blob. An EMPTY payload is a placeholder: the frame
/// only advances the receiver's sequence (used when a superseded latest-wins
/// message was coalesced out of the retransmission window).
///
/// `dst_epoch` is the sender's view of the RECEIVER's process incarnation
/// (always 0 on the thread backend). A receiver drops frames stamped with a
/// different epoch: after a rank is killed and respawned, retransmissions
/// still numbered for the dead incarnation's channel would otherwise land in
/// the fresh receiver's reorder buffer and later mask a renumbered frame
/// with the same seq — an acked-but-never-delivered message.
struct ReliableFrame : MessageBase<ReliableFrame, MsgType::kReliableFrame> {
  std::uint64_t seq = 0;           ///< 1-based, contiguous per (from, to)
  std::uint32_t dst_epoch = 0;     ///< receiver incarnation this seq belongs to
  std::uint8_t inner_type = 0;     ///< MsgType of the carried message
  std::vector<std::uint8_t> payload;  ///< encode_message() bytes; empty = placeholder
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.seq);
    f(s.dst_epoch);
    f(s.inner_type);
    f(s.payload);
  }
};

/// Cumulative acknowledgement: every frame with seq <= cum_seq was delivered
/// in order. Acks are idempotent and unsequenced; losing or duplicating one
/// is harmless (retransmission re-elicits it, stale ones are ignored).
///
/// `sack` carries selective-acknowledgement ranges: flat [lo1,hi1,lo2,hi2,…]
/// pairs of seqs the receiver holds BEYOND the cumulative ack (buffered past
/// a gap). Ranges must be well-formed — even count, lo <= hi, first lo >
/// cum_seq + 1, ascending and non-adjacent — or the sender ignores them all
/// (acks cross process boundaries, so malformed input is a peer bug to
/// survive, not a codec bug to assert on). Senders use the ranges to
/// retransmit only the gaps instead of the whole in-flight window.
struct ReliableAck : MessageBase<ReliableAck, MsgType::kReliableAck> {
  std::uint64_t cum_seq = 0;
  std::vector<std::uint64_t> sack;  ///< [lo,hi] pairs, flattened
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.cum_seq);
    f(s.sack);
  }
};

// ---------------------------------------------------------------------------
// Crash recovery: snapshot + catch-up state transfer (DESIGN.md §11).
// ---------------------------------------------------------------------------

/// Respawned replica -> donor replica: stream me the full state of
/// `partition`. `epoch` names the requester's incarnation (diagnostics; the
/// socket layer already fences stale incarnations).
struct SnapshotRequest : MessageBase<SnapshotRequest, MsgType::kSnapshotRequest> {
  PartitionId partition = 0;
  std::uint32_t epoch = 0;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.epoch);
  }
};

/// Donor -> requester: one slice of the snapshot stream, in `seq` order over
/// a FIFO reliable channel. The chunks are arbitrary splits of one snapshot
/// blob — header (HLC, version vector, protocol extras) followed by a
/// version-record list — which the requester reassembles and installs when
/// `last` closes the stream.
struct SnapshotChunk : MessageBase<SnapshotChunk, MsgType::kSnapshotChunk> {
  PartitionId partition = 0;
  std::uint32_t seq = 0;
  std::uint8_t last = 0;
  std::vector<std::uint8_t> payload;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.seq);
    f(s.last);
    f(s.payload);
  }
};

/// Anti-entropy delta request: send me every version of `partition` newer
/// than my per-replica applied watermarks (`vv`, raw timestamps in replica
/// slot order). Sent by a recovered replica to its non-donor peers, and by
/// survivors to a reincarnated peer to recover anything only the dead
/// incarnation had applied.
struct CatchUpRequest : MessageBase<CatchUpRequest, MsgType::kCatchUpRequest> {
  PartitionId partition = 0;
  std::uint32_t epoch = 0;
  std::vector<std::uint64_t> vv;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.epoch);
    f(s.vv);
  }
};

/// Delta reply: a self-contained version-record list per chunk (records are
/// idempotent to apply, so chunk order does not matter); the `last` chunk
/// also carries the sender's version vector so the requester can advance its
/// own watermarks past heartbeat-only progress.
struct CatchUpChunk : MessageBase<CatchUpChunk, MsgType::kCatchUpChunk> {
  PartitionId partition = 0;
  std::uint8_t last = 0;
  std::vector<std::uint8_t> payload;
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.partition);
    f(s.last);
    f(s.payload);
  }
};

/// Byte-level validation of an encode_message() buffer WITHOUT the strict
/// decoder's abort-on-malformed contract: returns false on unknown type,
/// truncation, overlong varints, oversized counts or trailing garbage, and
/// never allocates proportionally to attacker-controlled counts. The socket
/// runtime runs this on every inbound frame — bytes that crossed a process
/// boundary are a trust boundary, not a codec invariant — and drops (counts)
/// failures; only validated bytes reach decode_message_pooled. ReliableFrame
/// payloads are validated recursively so a corrupt nested message cannot
/// abort the receiving worker either.
bool validate_encoded_message(const std::uint8_t* data, std::size_t len);

/// X-macro over every concrete message type (used by the codec registry and
/// by tests that fuzz the codec).
#define PARIS_FOREACH_MESSAGE(X) \
  X(ClientStartReq)              \
  X(ClientStartResp)             \
  X(ClientReadReq)               \
  X(ClientReadResp)              \
  X(ClientCommitReq)             \
  X(ClientCommitResp)            \
  X(TxEnd)                       \
  X(ReadSliceReq)                \
  X(ReadSliceResp)               \
  X(PrepareReq)                  \
  X(PrepareResp)                 \
  X(Commit2pc)                   \
  X(ReplicateBatch)              \
  X(Heartbeat)                   \
  X(GossipUp)                    \
  X(GossipRoot)                  \
  X(UstDown)                     \
  X(ReliableFrame)               \
  X(ReliableAck)                 \
  X(SnapshotRequest)             \
  X(SnapshotChunk)               \
  X(CatchUpRequest)              \
  X(CatchUpChunk)

}  // namespace paris::wire
