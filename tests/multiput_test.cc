// Batched write pipeline tests.
//
//  * Index contract: one Prefetch hint serves a GetWithHint and then an
//    InsertWithHint of the same key, and the pair must agree with Get +
//    Upsert on every index — found/existed returns, values, final
//    contents — including a default (invalid) hint, which takes the
//    base-class fallback, and hints made stale by splits/resizes between
//    the read and the write.
//  * Engine: MultiPutOnCore must leave the store in the same state as
//    the equivalent sequence of single Put/Delete calls (overwrites,
//    deletes-in-batch, duplicate keys resolving last-write-wins), stage
//    the whole batch as one fused HB group, and spend strictly fewer
//    fences than the per-op path. Duplicate keys are absorbed: 16 copies
//    of one Put stage one entry and one value block, and batches of one
//    hot key backpressure at the pending ring's capacity.
//  * Server: the fused write path (write_batch=16, doorbell-chained
//    responses) must complete the identical workload as the per-request
//    schedule (write_batch=1), which stages one-op groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/server.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/fptree.h"
#include "index/kv_index.h"
#include "index/level_hashing.h"
#include "index/masstree.h"
#include "one_op.h"
#include "pm/pm_device.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace {

// ---- index-level contract --------------------------------------------------

using Factory = std::unique_ptr<index::KvIndex> (*)(const index::PmContext&);

struct IndexCase {
  const char* name;
  Factory make;
};

std::unique_ptr<index::KvIndex> MakeCceh(const index::PmContext& ctx) {
  return std::make_unique<index::Cceh>(ctx, /*initial_depth=*/2);
}
std::unique_ptr<index::KvIndex> MakeLevel(const index::PmContext& ctx) {
  return std::make_unique<index::LevelHashing>(ctx, /*initial_level_bits=*/4);
}
std::unique_ptr<index::KvIndex> MakeFastFair(const index::PmContext& ctx) {
  return std::make_unique<index::FastFair>(ctx);
}
std::unique_ptr<index::KvIndex> MakeFpTree(const index::PmContext& ctx) {
  return std::make_unique<index::FpTree>(ctx);
}
std::unique_ptr<index::KvIndex> MakeMasstree(const index::PmContext& ctx) {
  return std::make_unique<index::Masstree>(ctx);
}

const IndexCase kCases[] = {
    {"CCEH", MakeCceh},
    // Level-Hashing and FPTree run only as persistent baselines, which
    // never batch: they have no override and exercise the base fallback.
    {"LevelHashing", MakeLevel},
    {"FastFair", MakeFastFair},
    {"FPTree", MakeFpTree},
    {"Masstree", MakeMasstree},
};

class TwoPhaseInsertTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<index::KvIndex> Make() {
    return GetParam().make(index::PmContext{});
  }
};

// Mirror the same op stream through Get + Upsert on one index and
// through one Prefetch per key, serving GetWithHint and then
// InsertWithHint, on another (the admission probe and the drain of a
// write batch): found and existed returns, values and the final
// contents must be identical.
TEST_P(TwoPhaseInsertTest, AgreesWithUpsert) {
  auto plain = Make();
  auto hinted = Make();
  // Mixed fresh inserts and overwrites (every third key written twice).
  for (uint64_t round = 0; round < 2; round++) {
    for (uint64_t k = 0; k < 600; k++) {
      if (round == 1 && k % 3 != 0) continue;
      const uint64_t v = k * 10 + round;
      uint64_t got_p = 0, got_h = 0;
      const bool found_p = plain->Get(k, &got_p);
      index::LookupHint hint;
      hinted->Prefetch(k, &hint);
      ASSERT_EQ(hinted->GetWithHint(k, &hint, &got_h), found_p)
          << "key " << k << " round " << round;
      if (found_p) {
        EXPECT_EQ(got_h, got_p) << "key " << k;
      }
      uint64_t old_p = 0, old_h = 0;
      const bool existed_p = plain->Upsert(k, v, &old_p);
      const bool existed_h = hinted->InsertWithHint(k, v, &old_h, hint);
      ASSERT_EQ(existed_h, existed_p) << "key " << k << " round " << round;
      if (existed_p) EXPECT_EQ(old_h, old_p) << "key " << k;
    }
  }
  for (uint64_t k = 0; k < 600; k++) {
    uint64_t vp = 0, vh = 0;
    ASSERT_EQ(plain->Get(k, &vp), hinted->Get(k, &vh)) << "key " << k;
    EXPECT_EQ(vh, vp) << "key " << k;
  }
}

TEST_P(TwoPhaseInsertTest, DefaultHintFallsBackToUpsert) {
  auto idx = Make();
  idx->Insert(7, 77);
  index::LookupHint hint;  // valid=false: never prefetched
  uint64_t old_v = 0;
  ASSERT_TRUE(idx->InsertWithHint(7, 700, &old_v, hint));
  EXPECT_EQ(old_v, 77u);
  EXPECT_FALSE(idx->InsertWithHint(8, 80, &old_v, hint));
  uint64_t v = 0;
  ASSERT_TRUE(idx->Get(7, &v));
  EXPECT_EQ(v, 700u);
  ASSERT_TRUE(idx->Get(8, &v));
  EXPECT_EQ(v, 80u);
}

// A hint that served its read must still place the write correctly
// after the structure reshaped itself between the two (CCEH segment
// splits and directory doubling, tree leaf splits) — by revalidating and
// falling back, never by writing into a stale bucket/leaf. A plain index
// given the same Gets and Upserts must end identical.
TEST_P(TwoPhaseInsertTest, SurvivesStructuralChangesBetweenPhases) {
  auto idx = Make();
  auto plain = Make();
  constexpr uint64_t kPinned = 64;
  for (uint64_t k = 0; k < kPinned; k++) {
    idx->Insert(k, k + 500);
    plain->Insert(k, k + 500);
  }

  // One hint per key for existing keys (overwrite targets) and absent
  // keys (fresh inserts), each first serving the read.
  index::LookupHint over_hints[kPinned];
  index::LookupHint fresh_hints[kPinned];
  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t v = 0;
    idx->Prefetch(k, &over_hints[k]);
    ASSERT_TRUE(idx->GetWithHint(k, &over_hints[k], &v)) << "key " << k;
    EXPECT_EQ(v, k + 500) << "key " << k;
    idx->Prefetch(100000 + k, &fresh_hints[k]);
    EXPECT_FALSE(idx->GetWithHint(100000 + k, &fresh_hints[k], &v))
        << "key " << 100000 + k;
  }

  // Grow both indexes well past several split/resize thresholds, with
  // keys on both sides of the pinned ones so hinted leaves split too.
  const auto* tree = dynamic_cast<const index::Masstree*>(idx.get());
  const uint32_t height_before = tree != nullptr ? tree->height() : 0;
  for (uint64_t k = 1000; k < 9000; k++) {
    const uint64_t key = k % 2 == 0 ? k : k * 64 + 65;  // some > 100000
    idx->Insert(key, k);
    plain->Insert(key, k);
  }
  if (tree != nullptr) {
    ASSERT_GT(tree->height(), height_before);
  }

  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t old_v = 0, old_p = 0;
    ASSERT_TRUE(idx->InsertWithHint(k, k + 900, &old_v, over_hints[k]))
        << "key " << k;
    ASSERT_TRUE(plain->Upsert(k, k + 900, &old_p));
    EXPECT_EQ(old_v, old_p) << "key " << k;
    EXPECT_EQ(old_v, k + 500) << "key " << k;
    ASSERT_FALSE(
        idx->InsertWithHint(100000 + k, k + 7, &old_v, fresh_hints[k]))
        << "key " << 100000 + k;
    ASSERT_FALSE(plain->Upsert(100000 + k, k + 7, &old_p));
  }
  ASSERT_EQ(idx->Size(), plain->Size());
  plain->ForEach([&](uint64_t k, uint64_t want) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->Get(k, &v)) << "key " << k;
    EXPECT_EQ(v, want) << "key " << k;
  });
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, TwoPhaseInsertTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

// ---- engine-level MultiPutOnCore -------------------------------------------

namespace core_tests {

using core::FlatStore;
using core::OpStatus;
using core::WriteOp;
using OpHandle = FlatStore::OpHandle;

struct Store {
  explicit Store(core::IndexKind kind, int cores = 1,
                 pm::PmDevice* device = nullptr, uint32_t hash_depth = 4) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    o.device = device;
    pool = std::make_unique<pm::PmPool>(o);
    fo.num_cores = cores;
    fo.group_size = cores;
    fo.index = kind;
    fo.hash_initial_depth = hash_depth;
    store = FlatStore::Create(pool.get(), fo);
  }
  // Drops the store without Shutdown and reopens it: the index is
  // rebuilt by replaying the log, resolving each key by version.
  void Reopen() {
    store.reset();
    store = FlatStore::Open(pool.get(), fo);
  }
  core::FlatStoreOptions fo;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
};

class MultiPutTest : public ::testing::TestWithParam<core::IndexKind> {};

std::string ValueFor(uint64_t key, uint64_t salt = 0) {
  // Mix inline (<= 256 B) and out-of-log block values.
  const size_t len =
      (key % 3 == 0) ? 1024 + (key + salt) % 100 : 16 + (key + salt) % 200;
  return std::string(len, static_cast<char>('a' + (key + salt) % 26));
}

// One mixed batch against a store that applies the same ops as single
// synchronous calls: final contents and per-op statuses must match.
TEST_P(MultiPutTest, BatchMatchesSequenceOfSingles) {
  Store batched(GetParam());
  Store single(GetParam());
  // Pre-populate both stores so the batch sees overwrites and live
  // delete targets.
  for (uint64_t k = 0; k < 40; k++) {
    batched.store->Put(k, ValueFor(k));
    single.store->Put(k, ValueFor(k));
  }

  // The batch: fresh inserts, overwrites, deletes of present and absent
  // keys, inline and out-of-log values.
  std::vector<std::string> vals;
  vals.reserve(core::kMaxWriteBatch);
  std::vector<WriteOp> ops;
  for (uint64_t k = 100; k < 110; k++) {  // fresh
    vals.push_back(ValueFor(k, 1));
    ops.push_back({k, vals.back().data(),
                   static_cast<uint32_t>(vals.back().size()), false});
  }
  for (uint64_t k = 0; k < 10; k++) {  // overwrite
    vals.push_back(ValueFor(k, 2));
    ops.push_back({k, vals.back().data(),
                   static_cast<uint32_t>(vals.back().size()), false});
  }
  for (uint64_t k = 20; k < 25; k++) {  // delete present
    ops.push_back({k, nullptr, 0, true});
  }
  ops.push_back({999, nullptr, 0, true});  // delete absent

  std::vector<OpStatus> statuses(ops.size());
  const size_t applied = batched.store->MultiPutOnCore(
      0, ops.data(), ops.size(), statuses.data());
  EXPECT_EQ(applied, ops.size() - 1) << "only the absent delete skips";

  for (size_t i = 0; i < ops.size(); i++) {
    const WriteOp& op = ops[i];
    if (op.tombstone) {
      const bool existed = single.store->Delete(op.key);
      EXPECT_EQ(statuses[i],
                existed ? OpStatus::kOk : OpStatus::kNotFound)
          << "op " << i;
    } else {
      single.store->Put(
          op.key,
          std::string_view(static_cast<const char*>(op.value), op.len));
      EXPECT_EQ(statuses[i], OpStatus::kOk) << "op " << i;
    }
  }

  for (uint64_t k = 0; k < 1000; k++) {
    std::string vb, vs;
    const bool fb = batched.store->Get(k, &vb);
    const bool fs = single.store->Get(k, &vs);
    ASSERT_EQ(fb, fs) << "key " << k;
    if (fb) EXPECT_EQ(vb, vs) << "key " << k;
  }
}

// Duplicate keys within one batch chain versions newest-first and
// resolve last-write-wins; put-then-delete ends absent; delete-then-put
// ends present.
TEST_P(MultiPutTest, DuplicateKeysResolveInBatchOrder) {
  Store s(GetParam());
  s.store->Put(1, "one-old");
  s.store->Put(2, "two-old");

  const std::string a = "first", b = "second", c = "third";
  WriteOp ops[7];
  ops[0] = {1, a.data(), static_cast<uint32_t>(a.size()), false};
  ops[1] = {1, b.data(), static_cast<uint32_t>(b.size()), false};
  ops[2] = {1, c.data(), static_cast<uint32_t>(c.size()), false};  // LWW
  ops[3] = {2, a.data(), static_cast<uint32_t>(a.size()), false};
  ops[4] = {2, nullptr, 0, true};  // put-then-delete: ends absent
  ops[5] = {3, nullptr, 0, true};  // delete absent
  ops[6] = {3, b.data(), static_cast<uint32_t>(b.size()), false};

  OpStatus statuses[7];
  const size_t applied = s.store->MultiPutOnCore(0, ops, 7, statuses);
  EXPECT_EQ(applied, 6u);
  EXPECT_EQ(statuses[4], OpStatus::kOk) << "delete of key written earlier "
                                           "in the batch chains onto it";
  EXPECT_EQ(statuses[5], OpStatus::kNotFound);

  std::string v;
  ASSERT_TRUE(s.store->Get(1, &v));
  EXPECT_EQ(v, "third");
  EXPECT_FALSE(s.store->Get(2, &v));
  ASSERT_TRUE(s.store->Get(3, &v));
  EXPECT_EQ(v, "second");
}

// The whole point: one batch = one fused group = one log reservation =
// one persist sweep. Check the stat counters and that a 32-op batch
// spends strictly fewer fences than 32 single synchronous puts.
TEST_P(MultiPutTest, FusedBatchSpendsFewerFencesThanSingles) {
  Store s(GetParam());
  std::vector<std::string> vals;
  WriteOp ops[core::kMaxWriteBatch];
  vals.reserve(core::kMaxWriteBatch);
  for (uint64_t k = 0; k < core::kMaxWriteBatch; k++) {
    vals.push_back(std::string(64, static_cast<char>('a' + k % 26)));
    ops[k] = {5000 + k, vals.back().data(),
              static_cast<uint32_t>(vals.back().size()), false};
  }

  // Warm the serving log chunk so neither window pays the one-time
  // chunk-allocation fences.
  s.store->Put(4999, vals[0]);

  const uint64_t groups0 = s.store->hb()->fused_groups();
  pm::PmStats::Snapshot b0 = s.pool->stats().Get();
  OpStatus statuses[core::kMaxWriteBatch];
  ASSERT_EQ(s.store->MultiPutOnCore(0, ops, core::kMaxWriteBatch, statuses),
            core::kMaxWriteBatch);
  pm::PmStats::Snapshot b1 = s.pool->stats().Get();

  EXPECT_EQ(s.store->hb()->fused_groups(), groups0 + 1)
      << "whole batch staged as one fused group";
  EXPECT_GE(s.store->hb()->fused_entries(), core::kMaxWriteBatch);

  for (uint64_t k = 0; k < core::kMaxWriteBatch; k++) {
    s.store->Put(6000 + k, vals[k]);
  }
  pm::PmStats::Snapshot b2 = s.pool->stats().Get();

  const uint64_t batch_fences = pm::Delta(b0, b1).fences;
  const uint64_t single_fences = pm::Delta(b1, b2).fences;
  EXPECT_LT(batch_fences, single_fences)
      << "fused batch: " << batch_fences << " fences vs "
      << single_fences << " for the same ops one-by-one";
  // All values are inline: the batch is one AppendBatch (two fences).
  EXPECT_LE(batch_fences, 2u + 1u);
}

// Applies `ops` one by one through the synchronous API, checking each
// op's batched status against the single call's outcome. A delete that
// chains behind an earlier accepted op of its key in the same batch is
// accepted even when that op was a delete (a redundant tombstone), where
// a single Delete reports kNotFound. Returns the number of ops the batch
// should have accepted.
size_t ApplySingly(FlatStore* store, const WriteOp* ops, size_t n,
                   const OpStatus* batched) {
  size_t applied = 0;
  for (size_t i = 0; i < n; i++) {
    const WriteOp& op = ops[i];
    bool ok = true;
    if (op.tombstone) {
      ok = store->Delete(op.key);
      for (size_t j = 0; j < i && !ok; j++) {
        ok = ops[j].key == op.key && batched[j] == OpStatus::kOk;
      }
    } else {
      store->Put(op.key,
                 std::string_view(static_cast<const char*>(op.value), op.len));
    }
    EXPECT_EQ(batched[i], ok ? OpStatus::kOk : OpStatus::kNotFound)
        << "op " << i << " key " << op.key;
    applied += ok;
  }
  return applied;
}

void ExpectSameContents(FlatStore* a, FlatStore* b, uint64_t keys) {
  for (uint64_t k = 0; k < keys; k++) {
    std::string va, vb;
    const bool fa = a->Get(k, &va);
    const bool fb = b->Get(k, &vb);
    ASSERT_EQ(fa, fb) << "key " << k;
    if (fa) EXPECT_EQ(va, vb) << "key " << k;
  }
}

// Absorbed duplicates: batches that repeat keys heavily — put->put,
// put->delete, delete->put, deletes of absent keys, one key repeated 16
// times, inline and out-of-log values — leave the store exactly as the
// same ops applied one by one do, with the same per-op statuses, and the
// log they leave replays to the same state.
TEST_P(MultiPutTest, DuplicateHeavyBatchesMatchSingles) {
  Store batched(GetParam());
  Store single(GetParam());
  constexpr uint64_t kKeys = 12;  // keys 6.. start absent
  for (uint64_t k = 0; k < 6; k++) {
    batched.store->Put(k, ValueFor(k));
    single.store->Put(k, ValueFor(k));
  }

  Rng rng(42);
  std::vector<std::string> vals(core::kMaxWriteBatch);
  for (uint64_t b = 0; b < 48; b++) {
    WriteOp ops[core::kMaxWriteBatch];
    const size_t n = 1 + rng.Uniform(core::kMaxWriteBatch);
    for (size_t i = 0; i < n; i++) {
      // Every fourth batch opens with 16 ops on key 3 (out-of-log).
      const uint64_t key = b % 4 == 0 && i < 16 ? 3 : rng.Uniform(kKeys);
      if (rng.Uniform(10) < 3) {
        ops[i] = {key, nullptr, 0, true};
      } else {
        vals[i] = ValueFor(key, b * core::kMaxWriteBatch + i);
        ops[i] = {key, vals[i].data(), static_cast<uint32_t>(vals[i].size()),
                  false};
      }
    }
    OpStatus statuses[core::kMaxWriteBatch];
    const size_t applied =
        batched.store->MultiPutOnCore(0, ops, n, statuses);
    EXPECT_EQ(applied, ApplySingly(single.store.get(), ops, n, statuses))
        << "batch " << b;
    ExpectSameContents(batched.store.get(), single.store.get(), kKeys);
  }
  batched.Reopen();
  ExpectSameContents(batched.store.get(), single.store.get(), kKeys);
}

// Absorption on the vt clock and in PM: 16 copies of one out-of-log Put
// stage ONE fused log entry and allocate ONE value block, and cost at
// most a 1-op batch (which has nothing to deduplicate) plus the dedup
// probe per copy. Each batch starts long after the previous one so the
// PM device is idle for both.
TEST_P(MultiPutTest, AbsorbedCopiesStageOneEntryAndOneBlock) {
  pm::PmDevice device;
  Store s(GetParam(), /*cores=*/1, &device);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  const std::string value(1024, 'v');
  s.store->Put(3, value);
  struct Cost {
    uint64_t ns, entries, block_bytes;
  };
  auto batch = [&](size_t n) {
    WriteOp ops[16];
    OpHandle handles[16];
    OpStatus statuses[16];
    for (size_t i = 0; i < n; i++) {
      ops[i] = {3, value.data(), static_cast<uint32_t>(value.size()), false};
    }
    clock.AdvanceTo(clock.now() + 1000000);
    const uint64_t start = clock.now();
    const uint64_t entries0 = s.store->hb()->fused_entries();
    const uint64_t bytes0 = s.store->allocator()->allocated_bytes();
    EXPECT_EQ(s.store->BeginWriteBatch(0, ops, n, handles, statuses), n);
    Cost c{0, s.store->hb()->fused_entries() - entries0,
           s.store->allocator()->allocated_bytes() - bytes0};
    while (s.store->Inflight(0) > 0) {
      s.store->Pump(0);
      s.store->Drain(0, SIZE_MAX, nullptr);
    }
    c.ns = clock.now() - start;
    return c;
  };
  const Cost one = batch(1);
  const Cost sixteen = batch(16);
  EXPECT_EQ(one.entries, 1u);
  EXPECT_EQ(sixteen.entries, 1u) << "absorbed copies stage nothing";
  EXPECT_GT(one.block_bytes, 0u);
  EXPECT_EQ(sixteen.block_bytes, one.block_bytes)
      << "absorbed copies allocate no value block";
  EXPECT_LE(sixteen.ns, one.ns + 16 * vt::kCpuSlotProbe)
      << "1 copy " << one.ns << " ns";
  std::string got;
  ASSERT_TRUE(s.store->Get(3, &got));
  EXPECT_EQ(got, value);
}

// Drain overlaps only the misses of ops that insert into the index: a
// txn's commit record inserts nothing, so a 1-member txn drains its one
// insert like a lone Put does (plus the commit record's own retirement),
// never at a discount.
TEST_P(MultiPutTest, CommitRecordsDoNotWidenTheDrainOverlap) {
  auto drain_ns = [&](bool txn) {
    pm::PmDevice device;
    Store s(GetParam(), /*cores=*/1, &device);
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    const std::string value(48, 'd');
    OpHandle h;
    if (txn) {
      core::TxnOp op;
      op.key = 7;
      op.value = value.data();
      op.len = static_cast<uint32_t>(value.size());
      EXPECT_EQ(s.store->BeginTxn(0, &op, 1, &h), core::TxnStatus::kCommitted);
    } else {
      EXPECT_EQ(one_op::StagePut(s.store.get(), 0, 7, value, &h),
                OpStatus::kOk);
    }
    s.store->Pump(0);
    clock.AdvanceTo(clock.now() + 1000000);
    const uint64_t start = clock.now();
    EXPECT_EQ(s.store->Drain(0, SIZE_MAX, nullptr), txn ? 2u : 1u);
    return clock.now() - start;
  };
  EXPECT_GE(drain_ns(/*txn=*/true), drain_ns(/*txn=*/false));
}

// Keys of the carried-hint test: preloaded keys sit 64 apart, and each
// region's batch writes the preloaded key at its centre and the fresh key
// just above it.
constexpr uint64_t kRegionKeys = 48;  // preloaded keys per region
constexpr uint64_t kRegions = 12;
uint64_t Preloaded(uint64_t i) { return i * 64; }
uint64_t RegionCentre(uint64_t r) { return r * kRegionKeys + kRegionKeys / 2; }
constexpr uint64_t kFillerBase = uint64_t{1} << 40;
constexpr uint64_t kFillerKeys = 2300;

// A write batch locates its keys when it is admitted and inserts through
// those hints at Drain, a persist later. Batches staged ahead of it drain
// after its hints were taken and before its own drain: their fresh keys
// split the hinted Masstree leaves, FAST&FAIR nodes and CCEH segments,
// and their deletes, whose tombstones are then retired from the index as
// the cleaner does, empty hinted leaves. The store must end as the same
// writes applied one by one, and an ordered index must scan sorted and
// complete.
TEST_P(MultiPutTest, CarriedHintsSurviveReshapingBeforeDrain) {
  // Two CCEH segments to start with, so the inserts below split segments
  // that hinted keys hash to.
  Store batched(GetParam(), /*cores=*/1, nullptr, /*hash_depth=*/1);
  Store single(GetParam(), /*cores=*/1, nullptr, /*hash_depth=*/1);
  const std::string value(40, 'p');
  const std::string later(24, 'q');
  for (uint64_t i = 0; i < kRegions * kRegionKeys; i++) {
    batched.store->Put(Preloaded(i), value);
    single.store->Put(Preloaded(i), value);
  }
  // Far-right filler keys load the CCEH segments so that the inserts
  // below split some (asserted below).
  for (uint64_t i = 0; i < kFillerKeys; i++) {
    batched.store->Put(kFillerBase + i, value);
    single.store->Put(kFillerBase + i, value);
  }

  // The reshaping ops. Even regions take 30 fresh keys around the
  // centre, more than a leaf or node holds. Regions 1, 5 and 9 delete the
  // 47 preloaded keys around the centre, more than a Masstree leaf holds
  // on either side of the fresh key, so the leaf it falls in ends empty.
  // Regions 3, 7 and 11 are left alone.
  std::vector<WriteOp> reshape;
  std::vector<uint64_t> deleted;
  for (uint64_t r = 0; r < kRegions; r++) {
    const uint64_t c = RegionCentre(r);
    if (r % 4 == 1) {
      for (uint64_t i = c - 23; i <= c + 23; i++) {
        reshape.push_back({Preloaded(i), nullptr, 0, true});
        deleted.push_back(Preloaded(i));
      }
    } else if (r % 2 == 0) {
      for (uint64_t j = 1; j <= 15; j++) {
        for (uint64_t key : {Preloaded(c) - j, Preloaded(c) + j}) {
          reshape.push_back({key, value.data(),
                             static_cast<uint32_t>(value.size()), false});
        }
      }
    }
  }
  // The hinted batch: the fresh key above each centre, and the centre
  // itself where it is not deleted.
  std::vector<WriteOp> hinted;
  std::vector<bool> grown;  // hinted op -> its region takes inserts
  for (uint64_t r = 0; r < kRegions; r++) {
    const uint64_t c = RegionCentre(r);
    hinted.push_back({Preloaded(c) + 32, later.data(),
                      static_cast<uint32_t>(later.size()), false});
    grown.push_back(r % 2 == 0);
    if (r % 4 != 1) {
      hinted.push_back({Preloaded(c), later.data(),
                        static_cast<uint32_t>(later.size()), false});
      grown.push_back(r % 2 == 0);
    }
  }
  ASSERT_LE(hinted.size(), core::kMaxWriteBatch);
  ASSERT_LE(reshape.size() + hinted.size(), batch::HbEngine::kPoolSlots);

  // Where each hinted key's node is before anything is staged.
  index::KvIndex* idx = batched.store->IndexForCore(0);
  std::vector<const void*> node_before;
  for (const WriteOp& op : hinted) {
    index::LookupHint h;
    idx->Prefetch(op.key, &h);
    node_before.push_back(h.node);
  }
  const auto* cceh = dynamic_cast<const index::Cceh*>(idx);
  const uint64_t segments_before = cceh != nullptr ? cceh->segment_count() : 0;

  // Stage the reshaping ops, then the hinted batch (its keys probe the
  // index as it stands: nothing staged has drained yet).
  OpHandle handles[core::kMaxWriteBatch];
  OpStatus statuses[core::kMaxWriteBatch];
  for (size_t i = 0; i < reshape.size(); i += core::kMaxWriteBatch) {
    const size_t n = std::min(core::kMaxWriteBatch, reshape.size() - i);
    ASSERT_EQ(batched.store->BeginWriteBatch(0, &reshape[i], n, handles,
                                             statuses),
              n);
  }
  ASSERT_EQ(batched.store->BeginWriteBatch(0, hinted.data(), hinted.size(),
                                           handles, statuses),
            hinted.size());
  // Drain exactly the reshaping ops, then retire their tombstones from
  // the index as the cleaner does once a tombstone's covered chunk is
  // gone (Delete leaves the tombstone indexed).
  size_t drained = 0;
  while (drained < reshape.size()) {
    batched.store->Pump(0);
    drained += batched.store->Drain(0, reshape.size() - drained, nullptr);
  }
  for (uint64_t key : deleted) {
    uint64_t tomb = 0;
    ASSERT_TRUE(idx->Get(key, &tomb)) << "key " << key;
    ASSERT_TRUE(idx->EraseIfEqual(key, tomb)) << "key " << key;
  }
  // The hinted nodes really were reshaped: keys of the grown regions now
  // sit in other leaves, or CCEH split segments.
  size_t moved = 0;
  for (size_t i = 0; i < hinted.size(); i++) {
    index::LookupHint h;
    idx->Prefetch(hinted[i].key, &h);
    moved += h.node != node_before[i];
  }
  if (cceh != nullptr) {
    EXPECT_GT(cceh->segment_count(), segments_before);
    EXPECT_GT(moved, 0u);
  } else {
    EXPECT_GE(2 * moved, static_cast<size_t>(
                             std::count(grown.begin(), grown.end(), true)));
  }
  // Now the hinted batch drains through its admission hints.
  while (batched.store->Inflight(0) > 0) {
    batched.store->Pump(0);
    batched.store->Drain(0, SIZE_MAX, nullptr);
  }

  // The same writes one by one, and the same tombstone retirement.
  for (const WriteOp& op : reshape) {
    if (op.tombstone) {
      ASSERT_TRUE(single.store->Delete(op.key));
    } else {
      single.store->Put(op.key, std::string_view(
                                    static_cast<const char*>(op.value),
                                    op.len));
    }
  }
  index::KvIndex* plain = single.store->IndexForCore(0);
  for (uint64_t key : deleted) {
    uint64_t tomb = 0;
    ASSERT_TRUE(plain->Get(key, &tomb));
    ASSERT_TRUE(plain->EraseIfEqual(key, tomb));
  }
  for (const WriteOp& op : hinted) {
    single.store->Put(op.key, std::string_view(
                                  static_cast<const char*>(op.value), op.len));
  }

  ASSERT_EQ(idx->Size(), plain->Size());
  std::vector<uint64_t> keys_b, keys_s;
  idx->ForEach([&](uint64_t k, uint64_t) { keys_b.push_back(k); });
  plain->ForEach([&](uint64_t k, uint64_t) { keys_s.push_back(k); });
  std::sort(keys_b.begin(), keys_b.end());
  std::sort(keys_s.begin(), keys_s.end());
  ASSERT_EQ(keys_b, keys_s);
  for (uint64_t k : keys_s) {
    std::string vb, vs;
    ASSERT_TRUE(batched.store->Get(k, &vb)) << "key " << k;
    ASSERT_TRUE(single.store->Get(k, &vs)) << "key " << k;
    EXPECT_EQ(vb, vs) << "key " << k;
  }
  for (uint64_t key : deleted) {
    std::string v;
    EXPECT_FALSE(batched.store->Get(key, &v)) << "key " << key;
  }
  if (const auto* tree = dynamic_cast<const index::OrderedKvIndex*>(idx)) {
    std::vector<index::KvPair> scanned;
    tree->Scan(0, keys_s.size() + 1, &scanned);
    std::vector<uint64_t> order;
    for (const index::KvPair& p : scanned) order.push_back(p.key);
    EXPECT_EQ(order, keys_s) << "full scan sorted and complete";
  }
}

// Capacity guard: absorbed ops take pending-ring entries but no HB slot,
// so batches of one hot key must backpressure once the ring is full
// rather than overflow it.
TEST_P(MultiPutTest, DuplicateBatchesBackpressureAtRingCapacity) {
  Store s(GetParam());
  const std::string value(32, 'c');
  WriteOp ops[core::kMaxWriteBatch];
  for (size_t i = 0; i < core::kMaxWriteBatch; i++) {
    ops[i] = {5, value.data(), static_cast<uint32_t>(value.size()), false};
  }
  OpHandle handles[core::kMaxWriteBatch];
  OpStatus statuses[core::kMaxWriteBatch];
  constexpr size_t kFull =
      batch::HbEngine::kPoolSlots / core::kMaxWriteBatch;
  for (int round = 0; round < 3; round++) {
    for (size_t b = 0; b < kFull; b++) {
      ASSERT_EQ(s.store->BeginWriteBatch(0, ops, core::kMaxWriteBatch,
                                         handles, statuses),
                core::kMaxWriteBatch)
          << "round " << round << " batch " << b;
    }
    ASSERT_EQ(s.store->Inflight(0), batch::HbEngine::kPoolSlots);
    EXPECT_EQ(s.store->BeginWriteBatch(0, ops, core::kMaxWriteBatch, handles,
                                       statuses),
              0u);
    for (size_t i = 0; i < core::kMaxWriteBatch; i++) {
      EXPECT_EQ(statuses[i], OpStatus::kBackpressure) << "op " << i;
    }
    EXPECT_EQ(s.store->Inflight(0), batch::HbEngine::kPoolSlots)
        << "a refused batch stages nothing";
    std::vector<FlatStore::Completion> done;
    while (s.store->Inflight(0) > 0) {
      s.store->Pump(0);
      s.store->Drain(0, SIZE_MAX, &done);
    }
    EXPECT_EQ(done.size(), batch::HbEngine::kPoolSlots);
  }
  std::string got;
  ASSERT_TRUE(s.store->Get(5, &got));
  EXPECT_EQ(got, value);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MultiPutTest,
    ::testing::Values(core::IndexKind::kHash, core::IndexKind::kMasstree,
                      core::IndexKind::kFastFairVolatile),
    [](const auto& info) -> std::string {
      switch (info.param) {
        case core::IndexKind::kHash: return "Hash";
        case core::IndexKind::kMasstree: return "Masstree";
        case core::IndexKind::kFastFairVolatile: return "FastFair";
      }
      return "Unknown";
    });

// A write to a key that already has one in flight chains its version off
// the in-flight table and never probes the index, so a one-op Put of such
// a key costs the same on a FlatStore-M holding one key as on one holding
// 10^5 keys (a much deeper tree).
TEST(MultiPutCost, InFlightKeySkipsTheIndexProbe) {
  auto put_ns = [](uint64_t keys) {
    Store s(core::IndexKind::kMasstree);
    const std::string value(48, 'p');
    WriteOp ops[core::kMaxWriteBatch];
    OpStatus statuses[core::kMaxWriteBatch];
    for (uint64_t k = 0; k < keys; k += core::kMaxWriteBatch) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(core::kMaxWriteBatch,
                                                 keys - k));
      for (size_t i = 0; i < n; i++) {
        ops[i] = {k + i, value.data(), static_cast<uint32_t>(value.size())};
      }
      EXPECT_EQ(s.store->MultiPutOnCore(0, ops, n, statuses), n);
    }
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    // Key 0 gets a write in flight; the measured Put chains behind it.
    EXPECT_EQ(one_op::StagePut(s.store.get(), 0, 0, value), OpStatus::kOk);
    const uint64_t start = clock.now();
    EXPECT_EQ(one_op::StagePut(s.store.get(), 0, 0, value), OpStatus::kOk);
    return clock.now() - start;
  };
  EXPECT_EQ(put_ns(1), put_ns(100000));
}

// Drain inserts a write through the leaf its admission probe located: it
// re-reads that leaf and does not descend again. On a one-leaf tree the
// drain of a write of an existing key is that leaf re-read plus the
// insert; on a tree of three or more levels it must cost less than one
// more inner level (a serial cache miss), where descending again costs
// one per inner level.
TEST(MultiPutCost, DrainReusesTheAdmissionLeaf) {
  auto drain_ns = [](uint64_t keys, uint32_t min_height) {
    pm::PmDevice device;
    Store s(core::IndexKind::kMasstree, /*cores=*/1, &device);
    const std::string value(48, 'd');
    WriteOp ops[core::kMaxWriteBatch];
    OpStatus statuses[core::kMaxWriteBatch];
    for (uint64_t k = 0; k < keys; k += core::kMaxWriteBatch) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(core::kMaxWriteBatch, keys - k));
      for (size_t i = 0; i < n; i++) {
        ops[i] = {k + i, value.data(), static_cast<uint32_t>(value.size())};
      }
      EXPECT_EQ(s.store->MultiPutOnCore(0, ops, n, statuses), n);
    }
    const auto* tree =
        dynamic_cast<const index::Masstree*>(s.store->IndexForCore(0));
    EXPECT_GE(tree->height(), min_height);
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    EXPECT_EQ(one_op::StagePut(s.store.get(), 0, keys / 2, value),
              OpStatus::kOk);
    s.store->Pump(0);
    clock.AdvanceTo(clock.now() + 1000000);
    const uint64_t start = clock.now();
    EXPECT_EQ(s.store->Drain(0, SIZE_MAX, nullptr), 1u);
    return clock.now() - start;
  };
  const uint64_t one_leaf = drain_ns(8, 1);
  const uint64_t deep = drain_ns(20000, 3);
  EXPECT_LT(deep, one_leaf + vt::kCpuCacheMiss)
      << "one-leaf tree " << one_leaf << " ns, deep tree " << deep << " ns";
}

// ---- server-level: write batch 1 vs 16 -------------------------------------

TEST(MultiPutServer, WriteBatch1And16CompleteSameWorkload) {
  core::ServerResult results[2];
  for (int i = 0; i < 2; i++) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pm::PmPool pool(o);
    core::FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    auto store = FlatStore::Create(&pool, fo);
    core::FlatStoreAdapter adapter(store.get());

    core::ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 2000;
    cfg.write_batch = i == 0 ? 1 : 16;
    cfg.workload.key_space = 4096;
    cfg.workload.value_len = 64;
    cfg.workload.get_ratio = 0.3;  // write-heavy
    cfg.workload.delete_ratio = 0.05;
    core::Preload(&adapter, cfg.workload, cfg.workload.key_space);
    // Count the serving run's groups only: Preload stages fused batches.
    const uint64_t groups0 = store->hb()->fused_groups();
    const uint64_t entries0 = store->hb()->fused_entries();
    results[i] = core::RunServer(&adapter, cfg);
    const uint64_t groups = store->hb()->fused_groups() - groups0;
    const uint64_t entries = store->hb()->fused_entries() - entries0;
    if (i == 0) {
      EXPECT_EQ(entries, groups)
          << "the per-request schedule stages one-op groups";
    } else {
      EXPECT_GT(groups, 0u)
          << "batched run must actually take the fused path";
      EXPECT_GT(entries, groups) << "batched run must stage multi-op groups";
    }
  }
  EXPECT_EQ(results[0].ops, results[1].ops);
  EXPECT_EQ(results[0].latency.count(), results[1].latency.count());
  EXPECT_GT(results[1].mops, 0.0);
}

}  // namespace core_tests
}  // namespace
}  // namespace flatstore
