// Wire codec tests: varint edge cases, per-message roundtrips, wire_size
// accuracy, and a randomized fuzz roundtrip across all message types.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "wire/messages.h"

namespace paris::wire {
namespace {

TEST(Varint, SizeMatchesEncoding) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xffffffffull, ~0ull}) {
    buf.clear();
    Encoder e(buf);
    e.put_varint(v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    Decoder d(buf);
    EXPECT_EQ(d.get_varint(), v);
    EXPECT_TRUE(d.done());
  }
}

TEST(Varint, MaxValueRoundtrips) {
  std::vector<std::uint8_t> buf;
  Encoder e(buf);
  e.put_varint(~0ull);
  EXPECT_EQ(buf.size(), 10u);
  Decoder d(buf);
  EXPECT_EQ(d.get_varint(), ~0ull);
}

TEST(Bytes, RoundtripIncludingEmbeddedNul) {
  std::vector<std::uint8_t> buf;
  Encoder e(buf);
  const std::string s("a\0b\xff", 4);
  e.put_bytes(s);
  e.put_bytes("");
  Decoder d(buf);
  EXPECT_EQ(d.get_bytes(), s);
  EXPECT_EQ(d.get_bytes(), "");
  EXPECT_TRUE(d.done());
}

template <class M>
void roundtrip_expect(const M& msg) {
  std::vector<std::uint8_t> buf;
  encode_message(msg, buf);
  EXPECT_EQ(buf.size(), 1 + msg.wire_size()) << msg_type_name(M::kType);
  Decoder d(buf);
  auto decoded = decode_message(d);
  ASSERT_TRUE(d.done());
  ASSERT_EQ(decoded->type(), M::kType);
  // Re-encode and compare bytes: cheap deep-equality across all fields.
  std::vector<std::uint8_t> buf2;
  encode_message(*decoded, buf2);
  EXPECT_EQ(buf, buf2) << msg_type_name(M::kType);
}

TEST(Messages, ClientStartRoundtrip) {
  ClientStartReq req;
  req.ust_c = Timestamp::from_parts(123456, 3);
  roundtrip_expect(req);

  ClientStartResp resp;
  resp.tx = TxId::make(17, 12345);
  resp.snapshot = Timestamp::from_parts(99, 1);
  roundtrip_expect(resp);
}

TEST(Messages, ReadMessagesRoundtrip) {
  ClientReadReq r;
  r.tx = TxId::make(3, 9);
  r.keys = {1, 99999999999ull, 42};
  roundtrip_expect(r);

  ReadSliceReq s;
  s.tx = r.tx;
  s.snapshot = Timestamp::from_parts(5, 0);
  s.keys = {7};
  roundtrip_expect(s);

  ReadSliceResp resp;
  Item it;
  it.k = 7;
  it.v = "value-bytes";
  it.ut = Timestamp::from_parts(88, 2);
  it.tx = TxId::make(1, 2);
  it.sr = 4;
  resp.tx = r.tx;
  resp.items = {it, Item{}};
  roundtrip_expect(resp);

  ClientReadResp cr;
  cr.tx = r.tx;
  cr.items = {it};
  roundtrip_expect(cr);
}

TEST(Messages, CommitPathRoundtrip) {
  ClientCommitReq c;
  c.tx = TxId::make(2, 2);
  c.hwt = Timestamp::from_parts(1000, 9);
  c.writes = {{1, "a"}, {2, "bb"}};
  roundtrip_expect(c);

  PrepareReq p;
  p.tx = c.tx;
  p.partition = 12;
  p.snapshot = Timestamp::from_parts(900, 0);
  p.ht = Timestamp::from_parts(1000, 9);
  p.writes = {{1, "a"}};
  roundtrip_expect(p);

  PrepareResp pr;
  pr.tx = c.tx;
  pr.partition = 12;
  pr.pt = Timestamp::from_parts(1001, 0);
  roundtrip_expect(pr);

  Commit2pc c2;
  c2.tx = c.tx;
  c2.ct = Timestamp::from_parts(1002, 0);
  roundtrip_expect(c2);

  ClientCommitResp ccr;
  ccr.tx = c.tx;
  ccr.ct = c2.ct;
  roundtrip_expect(ccr);

  TxEnd te;
  te.tx = c.tx;
  roundtrip_expect(te);
}

TEST(Messages, ReplicationAndGossipRoundtrip) {
  ReplicateBatch b;
  b.partition = 3;
  b.upto = Timestamp::from_parts(777, 7);
  ReplicateGroup g;
  g.ct = Timestamp::from_parts(700, 0);
  g.txs.push_back(ReplicateTxn{TxId::make(9, 9), {{5, "x"}, {6, "y"}}});
  g.txs.push_back(ReplicateTxn{TxId::make(9, 10), {}});
  b.groups = {g, ReplicateGroup{Timestamp::from_parts(750, 0), {}}};
  roundtrip_expect(b);

  Heartbeat hb;
  hb.partition = 44;
  hb.t = Timestamp::from_parts(123, 0);
  roundtrip_expect(hb);

  GossipUp up;
  up.min_vv = Timestamp::from_parts(10, 1);
  up.oldest_active = Timestamp::from_parts(9, 0);
  roundtrip_expect(up);

  GossipRoot root;
  root.dc = 3;
  root.gst = Timestamp::from_parts(55, 5);
  root.oldest_active = Timestamp::from_parts(50, 0);
  roundtrip_expect(root);

  UstDown down;
  down.ust = Timestamp::from_parts(60, 0);
  down.gc_watermark = Timestamp::from_parts(58, 0);
  roundtrip_expect(down);
}

TEST(Messages, TypeNamesAreDistinct) {
  std::set<std::string> names;
  std::size_t registered = 0;
#define COLLECT_NAME(T)                 \
  names.insert(msg_type_name(T::kType)); \
  ++registered;
  PARIS_FOREACH_MESSAGE(COLLECT_NAME)
#undef COLLECT_NAME
  // Ids run 1..kNumMsgTypes-1 with no gap, each registered once.
  EXPECT_EQ(registered, static_cast<std::size_t>(kNumMsgTypes - 1));
  EXPECT_EQ(names.size(), registered) << "every message type must have a unique name";
}

// Randomized fuzz: build messages with random field contents, roundtrip.
TEST(Messages, FuzzRoundtripReplicateBatch) {
  Rng rng(31337);
  for (int iter = 0; iter < 200; ++iter) {
    ReplicateBatch b;
    b.partition = static_cast<PartitionId>(rng.next_below(1000));
    b.upto = Timestamp{rng.next_u64() >> rng.next_below(32)};
    const auto ngroups = rng.next_below(5);
    for (std::uint64_t i = 0; i < ngroups; ++i) {
      ReplicateGroup g;
      g.ct = Timestamp{rng.next_u64() >> 8};
      const auto ntx = rng.next_below(4);
      for (std::uint64_t t = 0; t < ntx; ++t) {
        ReplicateTxn tx;
        tx.tx = TxId{rng.next_u64()};
        const auto nw = rng.next_below(6);
        for (std::uint64_t w = 0; w < nw; ++w) {
          std::string val(rng.next_below(32), '\0');
          for (auto& ch : val) ch = static_cast<char>(rng.next_below(256));
          tx.writes.push_back(WriteKV{rng.next_u64(), std::move(val)});
        }
        g.txs.push_back(std::move(tx));
      }
      b.groups.push_back(std::move(g));
    }
    roundtrip_expect(b);
  }
}

}  // namespace
}  // namespace paris::wire
