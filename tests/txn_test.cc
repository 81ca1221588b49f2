// Transaction API tests (§5.3): commit/abort semantics, CAS reporting,
// in-txn read-your-writes, backpressure, crash-recovery of committed
// chains, the wire codec, and the server adapter + end-to-end runtime.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "core/server.h"
#include "core/txn_wire.h"
#include "one_op.h"
#include "vt/clock.h"

namespace flatstore {
namespace core {
namespace {

FlatStoreOptions Opts(int cores = 1) {
  FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = cores;
  fo.hash_initial_depth = 4;
  return fo;
}

std::unique_ptr<pm::PmPool> MakePool(bool crash_tracking = false) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  o.crash_tracking = crash_tracking;
  return std::make_unique<pm::PmPool>(o);
}

std::string V(uint64_t k, size_t len = 48) {
  return std::string(len, char('a' + k % 26));
}

TxnOp PutOp(uint64_t key, const std::string& v) {
  TxnOp op;
  op.kind = TxnOpKind::kPut;
  op.key = key;
  op.value = v.data();
  op.len = static_cast<uint32_t>(v.size());
  return op;
}

TxnOp DeleteOp(uint64_t key) {
  TxnOp op;
  op.kind = TxnOpKind::kDelete;
  op.key = key;
  return op;
}

TxnOp CasOp(uint64_t key, const std::string& expected, const std::string& v) {
  TxnOp op = PutOp(key, v);
  op.kind = TxnOpKind::kCas;
  op.expected = expected.data();
  op.expected_len = static_cast<uint32_t>(expected.size());
  return op;
}

// RMW that appends '+' to the current value, or writes "new" when absent.
TxnOp AppendOp(uint64_t key) {
  TxnOp op;
  op.kind = TxnOpKind::kRmw;
  op.key = key;
  op.rmw = [](void*, const void* cur, uint32_t cur_len, uint8_t* out,
              uint32_t cap) -> uint32_t {
    if (cur == nullptr) {
      std::memcpy(out, "new", 3);
      return 3;
    }
    EXPECT_LT(cur_len, cap);
    std::memcpy(out, cur, cur_len);
    out[cur_len] = '+';
    return cur_len + 1;
  };
  return op;
}

// Applies `op` alone through the synchronous API; CAS and RMW become a Get
// followed by a Put.
void ApplyAlone(FlatStore* store, const TxnOp& op) {
  std::string cur;
  const bool present = store->Get(op.key, &cur);
  switch (op.kind) {
    case TxnOpKind::kPut:
      break;
    case TxnOpKind::kDelete:
      store->Delete(op.key);
      return;
    case TxnOpKind::kCas:
      ASSERT_EQ(present, op.expected != nullptr) << op.key;
      if (present) {
        ASSERT_EQ(cur, std::string(static_cast<const char*>(op.expected),
                                   op.expected_len))
            << op.key;
      }
      break;
    case TxnOpKind::kRmw: {
      uint8_t out[log::kMaxInlineValue];
      const uint32_t len =
          op.rmw(op.rmw_ctx, present ? cur.data() : nullptr,
                 static_cast<uint32_t>(cur.size()), out, sizeof(out));
      store->Put(op.key,
                 std::string_view(reinterpret_cast<const char*>(out), len));
      return;
    }
  }
  store->Put(op.key,
             std::string_view(static_cast<const char*>(op.value), op.len));
}

// Keys 0..n-1 all route to core 0 under num_cores=1; multi-core tests
// probe CoreForKey explicitly. Each txn commits on one store while its ops
// apply one at a time on another: first distinct Puts, then txns that
// repeat keys, so later members read and chain onto earlier ones.
TEST(Txn, CommitEqualsSequentialPuts) {
  auto pool_a = MakePool();
  auto pool_b = MakePool();
  auto txn_store = FlatStore::Create(pool_a.get(), Opts());
  auto seq_store = FlatStore::Create(pool_b.get(), Opts());

  constexpr size_t kOps = 6;
  std::string vals[kOps];
  for (size_t i = 0; i < kOps; i++) {
    vals[i] = V(i, 24 + 7 * i);
    if (i == 3) vals[i] = V(i, 400);  // out-of-log member
  }
  std::vector<std::vector<TxnOp>> txns(1);
  for (size_t i = 0; i < kOps; i++) txns[0].push_back(PutOp(i, vals[i]));
  // Put -> CAS: the CAS compares against the Put it follows and swaps in
  // an out-of-log value.
  txns.push_back({PutOp(0, vals[1]), CasOp(0, vals[1], vals[3]),
                  PutOp(1, vals[2])});
  // Delete -> RMW -> RMW: the first RMW sees the key absent, the second
  // the first one's output.
  txns.push_back({DeleteOp(2), AppendOp(2), AppendOp(2), AppendOp(5)});
  // Put -> Put -> Put, inline and out-of-log, last write wins.
  txns.push_back({PutOp(4, vals[3]), PutOp(4, vals[0]), PutOp(6, vals[2]),
                  PutOp(4, vals[5])});
  // Delete -> Delete -> CAS expecting absent -> CAS on the CAS's value.
  TxnOp insert = CasOp(1, "", vals[4]);
  insert.expected = nullptr;
  txns.push_back({DeleteOp(1), DeleteOp(1), insert,
                  CasOp(1, vals[4], vals[3]), DeleteOp(99)});

  for (size_t t = 0; t < txns.size(); t++) {
    const std::vector<TxnOp>& ops = txns[t];
    ASSERT_EQ(txn_store->CommitTxnOnCore(0, ops.data(), ops.size()),
              TxnStatus::kCommitted)
        << "txn " << t;
    for (const TxnOp& op : ops) ApplyAlone(seq_store.get(), op);

    EXPECT_EQ(txn_store->Size(), seq_store->Size()) << "txn " << t;
    for (size_t k = 0; k <= kOps; k++) {
      std::string a, b;
      const bool fa = txn_store->Get(k, &a);
      ASSERT_EQ(fa, seq_store->Get(k, &b)) << "txn " << t << " key " << k;
      EXPECT_EQ(a, b) << "txn " << t << " key " << k;
      if (t == 0 && k < kOps) {
        EXPECT_EQ(a, vals[k]) << k;
      }
    }
  }
}

// A Put member never reads its key's committed entry: staging a put-only
// txn over preloaded keys, inline and out-of-log values alike, charges
// no PM read.
TEST(Txn, PutMembersReadNothing) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  constexpr size_t kOps = 8;
  std::string vals[kOps];
  TxnOp ops[kOps];
  for (size_t k = 0; k < kOps; k++) {
    store->Put(k, V(k, k % 2 == 0 ? 40 : 600));  // preloaded: indexed
    vals[k] = V(k + 1, k % 3 == 0 ? 700 : 56);
    ops[k] = PutOp(k, vals[k]);
  }

  const pm::PmStats::Snapshot before = pool->stats().Get();
  FlatStore::OpHandle commit;
  ASSERT_EQ(store->BeginTxn(0, ops, kOps, &commit), TxnStatus::kCommitted);
  EXPECT_EQ(pm::Delta(before, pool->stats().Get()).reads, 0u);

  while (store->Inflight(0) > 0) {
    store->Pump(0);
    store->Drain(0, SIZE_MAX, nullptr);
  }
  std::string got;
  for (size_t k = 0; k < kOps; k++) {
    ASSERT_TRUE(store->Get(k, &got)) << k;
    EXPECT_EQ(got, vals[k]) << k;
  }
}

TEST(Txn, CasSuccessAppliesWholeTxn) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "old-one");
  const std::string expected = "old-one";
  const std::string nv1 = "new-one";
  const std::string nv2 = V(2, 32);

  TxnOp ops[2];
  ops[0].kind = TxnOpKind::kCas;
  ops[0].key = 1;
  ops[0].expected = expected.data();
  ops[0].expected_len = static_cast<uint32_t>(expected.size());
  ops[0].value = nv1.data();
  ops[0].len = static_cast<uint32_t>(nv1.size());
  ops[1].kind = TxnOpKind::kPut;
  ops[1].key = 2;
  ops[1].value = nv2.data();
  ops[1].len = static_cast<uint32_t>(nv2.size());
  ASSERT_EQ(store->CommitTxnOnCore(0, ops, 2), TxnStatus::kCommitted);

  std::string got;
  ASSERT_TRUE(store->Get(1, &got));
  EXPECT_EQ(got, nv1);
  ASSERT_TRUE(store->Get(2, &got));
  EXPECT_EQ(got, nv2);
}

TEST(Txn, CasMismatchReportsFailingOpAndLeavesNoTrace) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "actual");
  store->Put(2, "two");
  const uint64_t size_before = store->Size();
  const uint64_t tail_before = store->LogForCore(0)->tail();

  // An out-of-log put BEFORE the failing CAS: its value block must be
  // allocated, persisted, and then freed by the abort.
  const std::string big = V(9, 500);
  const std::string wrong = "not-the-value";
  const std::string nv = "never-applied";
  TxnOp ops[3];
  ops[0].kind = TxnOpKind::kPut;
  ops[0].key = 3;
  ops[0].value = big.data();
  ops[0].len = static_cast<uint32_t>(big.size());
  ops[1].kind = TxnOpKind::kCas;
  ops[1].key = 1;
  ops[1].expected = wrong.data();
  ops[1].expected_len = static_cast<uint32_t>(wrong.size());
  ops[1].value = nv.data();
  ops[1].len = static_cast<uint32_t>(nv.size());
  ops[2].kind = TxnOpKind::kPut;
  ops[2].key = 2;
  ops[2].value = nv.data();
  ops[2].len = static_cast<uint32_t>(nv.size());

  size_t failed = 99;
  EXPECT_EQ(store->CommitTxnOnCore(0, ops, 3, &failed),
            TxnStatus::kCasMismatch);
  EXPECT_EQ(failed, 1u);

  // Nothing staged: log tail, size, and in-flight count are untouched.
  EXPECT_EQ(store->LogForCore(0)->tail(), tail_before);
  EXPECT_EQ(store->Size(), size_before);
  EXPECT_EQ(store->Inflight(0), 0u);
  std::string got;
  ASSERT_TRUE(store->Get(1, &got));
  EXPECT_EQ(got, "actual");
  ASSERT_TRUE(store->Get(2, &got));
  EXPECT_EQ(got, "two");
  EXPECT_FALSE(store->Get(3, &got));
}

TEST(Txn, CasExpectAbsent) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "present");
  const std::string nv = "inserted";

  // Expect-absent on a present key: mismatch.
  TxnOp op;
  op.kind = TxnOpKind::kCas;
  op.key = 1;
  op.expected = nullptr;  // expect absent
  op.value = nv.data();
  op.len = static_cast<uint32_t>(nv.size());
  size_t failed = 99;
  EXPECT_EQ(store->CommitTxnOnCore(0, &op, 1, &failed),
            TxnStatus::kCasMismatch);
  EXPECT_EQ(failed, 0u);

  // Expect-absent on an absent key: insert succeeds.
  op.key = 7;
  EXPECT_EQ(store->CommitTxnOnCore(0, &op, 1), TxnStatus::kCommitted);
  std::string got;
  ASSERT_TRUE(store->Get(7, &got));
  EXPECT_EQ(got, nv);
}

TEST(Txn, ReadYourWritesInsideTxn) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(5, "base");

  FlatStore::Txn txn(store.get());
  txn.Put(5, "staged");
  // The RMW sees the staged value, not the committed one.
  txn.Rmw(5, [](std::string_view cur, bool present) {
    EXPECT_TRUE(present);
    return std::string(cur) + "+rmw";
  });
  txn.Delete(6);             // absent: no-op member
  txn.Put(6, "reinserted");  // and the later put still lands

  // Preview through the builder before committing.
  std::string preview;
  ASSERT_TRUE(txn.Get(5, &preview));
  EXPECT_EQ(preview, "staged+rmw");
  ASSERT_TRUE(txn.Get(6, &preview));
  EXPECT_EQ(preview, "reinserted");

  ASSERT_EQ(txn.Commit(), TxnStatus::kCommitted);
  std::string got;
  ASSERT_TRUE(store->Get(5, &got));
  EXPECT_EQ(got, "staged+rmw");
  ASSERT_TRUE(store->Get(6, &got));
  EXPECT_EQ(got, "reinserted");
}

TEST(Txn, RmwThroughRawCallback) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(3, "count:");

  struct Ctx {
    char suffix;
  } ctx{'x'};
  TxnOp op;
  op.kind = TxnOpKind::kRmw;
  op.key = 3;
  op.rmw = [](void* c, const void* cur, uint32_t cur_len, uint8_t* out,
              uint32_t cap) -> uint32_t {
    EXPECT_NE(cur, nullptr);
    EXPECT_LE(cur_len + 1, cap);
    std::memcpy(out, cur, cur_len);
    out[cur_len] = static_cast<uint8_t>(static_cast<Ctx*>(c)->suffix);
    return cur_len + 1;
  };
  op.rmw_ctx = &ctx;
  ASSERT_EQ(store->CommitTxnOnCore(0, &op, 1), TxnStatus::kCommitted);
  std::string got;
  ASSERT_TRUE(store->Get(3, &got));
  EXPECT_EQ(got, "count:x");
}

TEST(Txn, DeleteOfAbsentKeysStagesNothing) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "keep");
  const uint64_t tail_before = store->LogForCore(0)->tail();

  TxnOp ops[2];
  ops[0].kind = TxnOpKind::kDelete;
  ops[0].key = 100;
  ops[1].kind = TxnOpKind::kDelete;
  ops[1].key = 101;
  // All members resolve to no-ops: trivially committed, nothing staged.
  EXPECT_EQ(store->CommitTxnOnCore(0, ops, 2), TxnStatus::kCommitted);
  EXPECT_EQ(store->LogForCore(0)->tail(), tail_before);
  EXPECT_EQ(store->Inflight(0), 0u);
}

TEST(Txn, EmptyTxnCommits) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  FlatStore::OpHandle h = 0;
  EXPECT_EQ(store->BeginTxn(0, nullptr, 0, &h), TxnStatus::kCommitted);
  EXPECT_EQ(h, FlatStore::kNoOpHandle);
  FlatStore::Txn txn(store.get());
  EXPECT_EQ(txn.Commit(), TxnStatus::kCommitted);
}

TEST(Txn, InflightKeyFailsWholeTxnWithBusy) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  const std::string v = V(1);
  ASSERT_EQ(one_op::StagePut(store.get(), 0, 9, v),
            OpStatus::kOk);  // staged, not drained: key 9 is in flight

  TxnOp ops[2];
  ops[0].kind = TxnOpKind::kPut;
  ops[0].key = 1;
  ops[0].value = v.data();
  ops[0].len = static_cast<uint32_t>(v.size());
  ops[1].kind = TxnOpKind::kPut;
  ops[1].key = 9;
  ops[1].value = v.data();
  ops[1].len = static_cast<uint32_t>(v.size());
  FlatStore::OpHandle commit;
  size_t failed = 99;
  EXPECT_EQ(store->BeginTxn(0, ops, 2, &commit, &failed), TxnStatus::kBusy);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(store->Inflight(0), 1u);  // only the staged Put

  store->Pump(0);
  store->Drain(0, SIZE_MAX, nullptr);
  EXPECT_EQ(store->BeginTxn(0, ops, 2, &commit, &failed),
            TxnStatus::kCommitted);
  store->Pump(0);
  store->Drain(0, SIZE_MAX, nullptr);
  EXPECT_EQ(store->Inflight(0), 0u);
}

TEST(Txn, BackpressureAbortsWholeTxn) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  const std::string v = V(2, 32);

  // Fill the request pool without pumping.
  uint64_t k = 1000;
  while (true) {
    const OpStatus st = one_op::StagePut(store.get(), 0, k, v);
    if (st == OpStatus::kBackpressure) break;
    ASSERT_EQ(st, OpStatus::kOk);
    k++;
  }
  const uint64_t tail_before = store->LogForCore(0)->tail();
  const size_t inflight_before = store->Inflight(0);

  TxnOp ops[2];
  ops[0].kind = TxnOpKind::kPut;
  ops[0].key = 1;
  ops[0].value = v.data();
  ops[0].len = static_cast<uint32_t>(v.size());
  ops[1].kind = TxnOpKind::kPut;
  ops[1].key = 2;
  ops[1].value = v.data();
  ops[1].len = static_cast<uint32_t>(v.size());
  FlatStore::OpHandle commit;
  EXPECT_EQ(store->BeginTxn(0, ops, 2, &commit), TxnStatus::kBackpressure);
  EXPECT_EQ(store->LogForCore(0)->tail(), tail_before);
  EXPECT_EQ(store->Inflight(0), inflight_before);

  while (store->Inflight(0) > 0) {
    store->Pump(0);
    store->Drain(0, SIZE_MAX, nullptr);
  }
  EXPECT_EQ(store->BeginTxn(0, ops, 2, &commit), TxnStatus::kCommitted);
  store->Pump(0);
  store->Drain(0, SIZE_MAX, nullptr);
  std::string got;
  ASSERT_TRUE(store->Get(1, &got));
  EXPECT_EQ(got, v);
}

TEST(Txn, OneCompletionPerTxnWithCommitHandle) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  const std::string v = V(4);
  TxnOp ops[3];
  for (size_t i = 0; i < 3; i++) {
    ops[i].kind = TxnOpKind::kPut;
    ops[i].key = i;
    ops[i].value = v.data();
    ops[i].len = static_cast<uint32_t>(v.size());
  }
  FlatStore::OpHandle commit;
  ASSERT_EQ(store->BeginTxn(0, ops, 3, &commit), TxnStatus::kCommitted);
  EXPECT_NE(commit, FlatStore::kNoOpHandle);
  EXPECT_EQ(store->Inflight(0), 4u);  // 3 members + commit record
  store->Pump(0);
  std::vector<FlatStore::Completion> done;
  store->Drain(0, SIZE_MAX, &done);
  ASSERT_EQ(done.size(), 1u);  // members complete silently
  EXPECT_EQ(done[0].handle, commit);
  EXPECT_EQ(store->Inflight(0), 0u);
}

TEST(Txn, CommittedTxnsSurviveCrashRecovery) {
  auto pool = MakePool(/*crash_tracking=*/true);
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "pre");
  FlatStore::Txn t1(store.get());
  t1.Put(1, "txn-one").Put(2, V(2, 300)).Delete(1);
  ASSERT_EQ(t1.Commit(), TxnStatus::kCommitted);
  FlatStore::Txn t2(store.get());
  t2.Cas(2, V(2, 300), "swapped").Rmw(8, [](std::string_view, bool present) {
    EXPECT_FALSE(present);
    return std::string("fresh");
  });
  ASSERT_EQ(t2.Commit(), TxnStatus::kCommitted);

  store.reset();  // no Shutdown: Open must replay the log
  pool->SimulateCrash();
  auto rec = FlatStore::Open(pool.get(), Opts());
  std::string got;
  EXPECT_FALSE(rec->Get(1, &got));  // the txn's delete wins
  ASSERT_TRUE(rec->Get(2, &got));
  EXPECT_EQ(got, "swapped");
  ASSERT_TRUE(rec->Get(8, &got));
  EXPECT_EQ(got, "fresh");
}

TEST(Txn, BuilderChecksCoreRouting) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts(2));
  // Two keys on the same core commit fine.
  uint64_t k1 = 0;
  uint64_t k2 = k1 + 1;
  while (store->CoreForKey(k2) != store->CoreForKey(k1)) k2++;
  FlatStore::Txn txn(store.get());
  txn.Put(k1, "a").Put(k2, "b");
  EXPECT_EQ(txn.Commit(), TxnStatus::kCommitted);
  std::string got;
  ASSERT_TRUE(store->Get(k2, &got));
  EXPECT_EQ(got, "b");
}

// ---- wire codec -----------------------------------------------------------

TEST(TxnWire, RoundTrip) {
  const std::string v1 = "value-one";
  const std::string v2 = V(2, 128);
  const std::string exp = "expected-bytes";
  TxnOp in[4];
  in[0].kind = TxnOpKind::kPut;
  in[0].key = 11;
  in[0].value = v1.data();
  in[0].len = static_cast<uint32_t>(v1.size());
  in[1].kind = TxnOpKind::kDelete;
  in[1].key = 22;
  in[2].kind = TxnOpKind::kCas;
  in[2].key = 33;
  in[2].expected = exp.data();
  in[2].expected_len = static_cast<uint32_t>(exp.size());
  in[2].value = v2.data();
  in[2].len = static_cast<uint32_t>(v2.size());
  in[3].kind = TxnOpKind::kCas;  // expect-absent form
  in[3].key = 44;
  in[3].value = v1.data();
  in[3].len = static_cast<uint32_t>(v1.size());

  uint8_t buf[net::kMaxMsgValue];
  const uint32_t len = EncodeTxnOps(buf, sizeof(buf), in, 4);
  ASSERT_GT(len, 0u);

  TxnOp out[kMaxTxnOps];
  size_t n = 0;
  ASSERT_TRUE(DecodeTxnOps(buf, len, out, kMaxTxnOps, &n));
  ASSERT_EQ(n, 4u);
  for (size_t i = 0; i < 4; i++) {
    EXPECT_EQ(out[i].kind, in[i].kind) << i;
    EXPECT_EQ(out[i].key, in[i].key) << i;
    EXPECT_EQ(out[i].len, in[i].len) << i;
    if (in[i].value != nullptr) {
      EXPECT_EQ(std::memcmp(out[i].value, in[i].value, in[i].len), 0) << i;
    }
  }
  EXPECT_EQ(out[2].expected_len, exp.size());
  EXPECT_EQ(std::memcmp(out[2].expected, exp.data(), exp.size()), 0);
  EXPECT_EQ(out[3].expected, nullptr);  // expect-absent survives the trip
}

TEST(TxnWire, RejectsMalformedInput) {
  const std::string v = "payload";
  TxnOp op;
  op.kind = TxnOpKind::kPut;
  op.key = 5;
  op.value = v.data();
  op.len = static_cast<uint32_t>(v.size());
  uint8_t buf[256];
  const uint32_t len = EncodeTxnOps(buf, sizeof(buf), &op, 1);
  ASSERT_GT(len, 0u);

  TxnOp out[4];
  size_t n;
  EXPECT_FALSE(DecodeTxnOps(buf, 0, out, 4, &n));        // empty
  EXPECT_FALSE(DecodeTxnOps(buf, len - 1, out, 4, &n));  // truncated value
  EXPECT_FALSE(DecodeTxnOps(buf, len + 1, out, 4, &n));  // trailing junk
  buf[1] = 9;  // unknown op kind
  EXPECT_FALSE(DecodeTxnOps(buf, len, out, 4, &n));
  buf[1] = 0;
  buf[0] = 200;  // count beyond caller capacity
  EXPECT_FALSE(DecodeTxnOps(buf, len, out, 4, &n));

  // kRmw has no wire form.
  TxnOp rmw;
  rmw.kind = TxnOpKind::kRmw;
  rmw.key = 1;
  EXPECT_EQ(EncodeTxnOps(buf, sizeof(buf), &rmw, 1), 0u);
}

// ---- server adapter + runtime ---------------------------------------------

TEST(TxnServer, AdapterCompletesTxnWithOneTag) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  FlatStoreAdapter adapter(store.get());
  const std::string v = V(1);
  TxnOp ops[2];
  for (size_t i = 0; i < 2; i++) {
    ops[i].kind = TxnOpKind::kPut;
    ops[i].key = i;
    ops[i].value = v.data();
    ops[i].len = static_cast<uint32_t>(v.size());
  }
  ASSERT_EQ(adapter.SubmitTxn(0, ops, 2, /*tag=*/77),
            EngineAdapter::Submit::kPending);
  std::vector<EngineAdapter::Done> done;
  while (adapter.Drain(0, &done) == 0) adapter.Pump(0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 77u);

  // A no-effect txn (delete of absent) completes synchronously.
  TxnOp noop;
  noop.kind = TxnOpKind::kDelete;
  noop.key = 999;
  EXPECT_EQ(adapter.SubmitTxn(0, &noop, 1, 78),
            EngineAdapter::Submit::kDoneNow);

  // A failing CAS reports without staging.
  const std::string wrong = "wrong";
  TxnOp cas;
  cas.kind = TxnOpKind::kCas;
  cas.key = 0;
  cas.expected = wrong.data();
  cas.expected_len = static_cast<uint32_t>(wrong.size());
  cas.value = v.data();
  cas.len = static_cast<uint32_t>(v.size());
  EXPECT_EQ(adapter.SubmitTxn(0, &cas, 1, 79),
            EngineAdapter::Submit::kCasMismatch);
}

TEST(TxnServer, RunServerWithTxnTraffic) {
  pm::PmPool::Options o;
  o.size = 512ull << 20;
  pm::PmPool pool(o);
  auto store = FlatStore::Create(&pool, Opts(2));
  FlatStoreAdapter adapter(store.get());

  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 4096;
  cfg.workload.value_len = 64;
  cfg.txn_every = 3;
  cfg.txn_size = 4;
  ServerResult r = RunServer(&adapter, cfg);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.latency.count(), 8000u);
  EXPECT_GT(store->Size(), 1000u);
}

// Forwards to a FlatStoreAdapter, except that the client fleet routes
// with a stale table putting every key on core 0: client-side calls run
// outside every server core's clock, server-side calls inside one. Records
// what reaches SubmitTxn.
class StaleClientRouting final : public EngineAdapter {
 public:
  explicit StaleClientRouting(FlatStore* store)
      : store_(store), inner_(store) {}
  int num_cores() const override { return inner_.num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return vt::CurrentClock() == nullptr ? 0 : inner_.CoreForKey(key);
  }
  const char* Name() const override { return inner_.Name(); }
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override {
    return inner_.SubmitWriteBatch(core, reqs, n, out);
  }
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  ReadResult* results) override {
    return inner_.MultiGet(core, keys, n, results);
  }
  Submit SubmitTxn(int core, const TxnOp* ops, size_t n,
                   uint64_t tag) override {
    for (size_t i = 0; i < n; i++) {
      if (store_->CoreForKey(ops[i].key) != core) {
        cross_core_submits++;
        break;
      }
    }
    const Submit st = inner_.SubmitTxn(core, ops, n, tag);
    if (st == Submit::kPending || st == Submit::kDoneNow) {
      for (size_t i = 0; i < n; i++) committed_keys.insert(ops[i].key);
    }
    return st;
  }
  size_t Pump(int core) override { return inner_.Pump(core); }
  size_t Drain(int core, std::vector<Done>* done) override {
    return inner_.Drain(core, done);
  }

  uint64_t cross_core_submits = 0;
  std::set<uint64_t> committed_keys;

 private:
  FlatStore* store_;
  FlatStoreAdapter inner_;
};

// Every request is a txn posted to core 0 whose members the client picked
// as "same-core" under its stale table. The server must answer each txn
// with a member on core 1 kUnsupported before submitting it: staged on
// core 0, its core-1 members would sit in the wrong log and in-flight
// table, and a later write of such a key on core 1 would chain versions
// without seeing them.
TEST(TxnServer, CrossCoreTxnIsRefusedUnstaged) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  auto store = FlatStore::Create(&pool, Opts(2));
  StaleClientRouting adapter(store.get());

  ServerConfig cfg;
  cfg.num_conns = 2;
  cfg.ops_per_conn = 200;
  cfg.workload.key_space = 1024;
  cfg.workload.value_len = 32;
  cfg.workload.get_ratio = 0.0;
  cfg.txn_every = 1;
  cfg.txn_size = 2;
  ServerResult r = RunServer(&adapter, cfg);
  EXPECT_EQ(r.ops, 400u);  // kUnsupported answers complete requests too

  EXPECT_EQ(adapter.cross_core_submits, 0u);
  EXPECT_FALSE(adapter.committed_keys.empty());
  EXPECT_EQ(store->Inflight(0) + store->Inflight(1), 0u);
  // Exactly the keys of submitted txns exist, each readable on its core.
  size_t present = 0;
  std::string got;
  for (uint64_t k = 0; k < cfg.workload.key_space + cfg.txn_size; k++) {
    const bool found = store->Get(k, &got);
    EXPECT_EQ(found, adapter.committed_keys.count(k) == 1) << "key " << k;
    present += found;
  }
  EXPECT_EQ(present, adapter.committed_keys.size());
  EXPECT_LT(present, cfg.workload.key_space / 2) << "some txns refused";
}

TEST(TxnServer, BaselineAnswersUnsupported) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  BaselineStore::Options bo;
  bo.num_cores = 2;
  bo.kind = BaselineKind::kCceh;
  auto base = BaselineStore::Create(&pool, bo);
  BaselineAdapter adapter(base.get());

  ServerConfig cfg;
  cfg.num_conns = 2;
  cfg.ops_per_conn = 600;
  cfg.workload.key_space = 1024;
  cfg.txn_every = 4;
  // kUnsupported responses still complete every request.
  ServerResult r = RunServer(&adapter, cfg);
  EXPECT_EQ(r.ops, 1200u);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
