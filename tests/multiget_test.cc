// Batched read pipeline tests.
//
//  * Index contract: Prefetch + GetWithHint must agree with Get on
//    every index, including absent keys, a default (invalid) hint —
//    which takes the base-class fallback — and a hint made stale by
//    splits/resizes between the two phases.
//  * Engine: a MultiGetOnCore batch must match one-key reads key-for-key
//    across all three index kinds (mixed inline/out-of-log values, absent keys,
//    tombstones, repeated keys), defer keys with in-flight writes in every
//    copy, and serve them after the drain with the post-drain value
//    (linearizability). Repeated keys are coalesced: a batch of copies of
//    one key costs one lookup plus a dedup probe per copy and a copy per
//    repeat (a one-key read pays no dedup probe).
//  * Server: the batched read path must complete the identical workload
//    as the per-request schedule (read_batch=1).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

class TwoPhaseLookupTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<index::KvIndex> Make() {
    return GetParam().make(index::PmContext{});
  }
};

TEST_P(TwoPhaseLookupTest, AgreesWithGetIncludingAbsentKeys) {
  auto idx = Make();
  for (uint64_t k = 0; k < 512; k++) idx->Insert(k * 2, k * 2 + 1000);
  for (uint64_t k = 0; k < 1024; k++) {
    uint64_t direct = 0, hinted = 0;
    const bool found = idx->Get(k, &direct);
    index::LookupHint hint;
    idx->Prefetch(k, &hint);
    ASSERT_EQ(idx->GetWithHint(k, &hint, &hinted), found) << "key " << k;
    if (found) EXPECT_EQ(hinted, direct) << "key " << k;
  }
}

TEST_P(TwoPhaseLookupTest, DefaultHintFallsBackToFullLookup) {
  auto idx = Make();
  idx->Insert(7, 77);
  // valid=false: never prefetched. A hint holds only for its own key,
  // and the lookup may fill it, so each key gets its own.
  index::LookupHint hint7, hint8;
  uint64_t v = 0;
  ASSERT_TRUE(idx->GetWithHint(7, &hint7, &v));
  EXPECT_EQ(v, 77u);
  EXPECT_FALSE(idx->GetWithHint(8, &hint8, &v));
}

// A hint taken before heavy insertion must still resolve correctly after
// the structure reshaped itself (CCEH splits, tree leaves split) — via
// revalidation fallback or sibling walks.
TEST_P(TwoPhaseLookupTest, SurvivesStructuralChangesBetweenPhases) {
  auto idx = Make();
  constexpr uint64_t kPinned = 64;
  for (uint64_t k = 0; k < kPinned; k++) idx->Insert(k, k + 500);

  index::LookupHint hints[kPinned];
  for (uint64_t k = 0; k < kPinned; k++) idx->Prefetch(k, &hints[k]);

  // Grow the index well past several split/resize thresholds.
  for (uint64_t k = 1000; k < 9000; k++) idx->Insert(k, k);

  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->GetWithHint(k, &hints[k], &v)) << "key " << k;
    EXPECT_EQ(v, k + 500) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, TwoPhaseLookupTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

// ---- engine-level MultiGetOnCore -------------------------------------------

namespace core_tests {

using core::FlatStore;
using core::GetResult;
using core::ReadResult;

struct Store {
  explicit Store(core::IndexKind kind, int cores = 2,
                 pm::PmDevice* device = nullptr) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    o.device = device;
    pool = std::make_unique<pm::PmPool>(o);
    core::FlatStoreOptions fo;
    fo.num_cores = cores;
    fo.group_size = cores;
    fo.index = kind;
    fo.hash_initial_depth = 4;
    store = FlatStore::Create(pool.get(), fo);
  }
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
};

class MultiGetTest : public ::testing::TestWithParam<core::IndexKind> {};

std::string ValueFor(uint64_t key) {
  // Mix inline (<= 256 B) and out-of-log block values.
  const size_t len = (key % 3 == 0) ? 1024 + key % 100 : 16 + key % 200;
  return std::string(len, static_cast<char>('a' + key % 26));
}

TEST_P(MultiGetTest, MatchesSingleGetsWithAbsentAndTombstones) {
  Store s(GetParam());
  constexpr uint64_t kKeys = 300;
  for (uint64_t k = 0; k < kKeys; k++) s.store->Put(k, ValueFor(k));
  // Tombstone every 7th key.
  for (uint64_t k = 0; k < kKeys; k += 7) ASSERT_TRUE(s.store->Delete(k));

  for (int core = 0; core < 2; core++) {
    // Batch the core's keys (present, deleted, and never-written ones).
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < kKeys + 100 && keys.size() < core::kMaxReadBatch;
         k++) {
      if (s.store->CoreForKey(k) == core) keys.push_back(k);
    }
    ASSERT_FALSE(keys.empty());
    std::vector<ReadResult> results(keys.size());
    const size_t served =
        s.store->MultiGetOnCore(core, keys.data(), keys.size(),
                                results.data());
    EXPECT_EQ(served, keys.size()) << "nothing in flight: no deferrals";
    for (size_t i = 0; i < keys.size(); i++) {
      std::string single;
      const bool found = one_op::ReadOne(s.store.get(), core, keys[i],
                                         &single) == GetResult::kFound;
      if (found) {
        ASSERT_EQ(results[i].status, GetResult::kFound) << "key " << keys[i];
        EXPECT_EQ(results[i].value, single) << "key " << keys[i];
      } else {
        ASSERT_EQ(results[i].status, GetResult::kAbsent) << "key " << keys[i];
      }
    }
  }
}

TEST_P(MultiGetTest, InFlightWritesDeferThenServePostDrainValue) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(1, "old-one");
  s.store->Put(2, "two");
  s.store->Put(3, "three");

  // Stage (l-persist) a write on key 1 without draining it.
  ASSERT_EQ(one_op::StagePut(s.store.get(), 0, 1, "new-one"),
            core::OpStatus::kOk);
  ASSERT_TRUE(s.store->KeyBusy(0, 1));

  uint64_t keys[3] = {1, 2, 3};
  ReadResult results[3];
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 3, results), 2u);
  EXPECT_EQ(results[0].status, GetResult::kDeferred);
  ASSERT_EQ(results[1].status, GetResult::kFound);
  EXPECT_EQ(results[1].value, "two");
  ASSERT_EQ(results[2].status, GetResult::kFound);
  EXPECT_EQ(results[2].value, "three");

  // Complete the write; the retried read must see the new value.
  s.store->Pump(0);
  s.store->Drain(0, SIZE_MAX, nullptr);
  ASSERT_FALSE(s.store->KeyBusy(0, 1));
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 1, results), 1u);
  ASSERT_EQ(results[0].status, GetResult::kFound);
  EXPECT_EQ(results[0].value, "new-one");
}

TEST_P(MultiGetTest, ReusedResultsArrayDoesNotLeakStatuses) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(5, "five");
  ReadResult results[2];
  results[0].status = GetResult::kDeferred;  // stale garbage from a prior use
  results[1].status = GetResult::kFound;
  results[1].value = "stale";
  uint64_t keys[2] = {5, 6};  // 6 absent
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 2, results), 2u);
  ASSERT_EQ(results[0].status, GetResult::kFound);
  EXPECT_EQ(results[0].value, "five");
  EXPECT_EQ(results[1].status, GetResult::kAbsent);
  EXPECT_TRUE(results[1].value.empty());
}

// A one-key read of a key with a write in flight dereferences nothing, so
// it takes no pin and costs no simulated time, like a bare conflict check.
TEST_P(MultiGetTest, DeferredOneKeyReadCostsNothing) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(1, "old-one");
  ASSERT_EQ(one_op::StagePut(s.store.get(), 0, 1, "new-one"),
            core::OpStatus::kOk);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  const uint64_t key = 1;
  ReadResult result;
  EXPECT_EQ(s.store->MultiGetOnCore(0, &key, 1, &result), 0u);
  EXPECT_EQ(result.status, GetResult::kDeferred);
  EXPECT_EQ(clock.now(), 0u);
}

// Every copy of a repeated key gets the same answer a per-key Get gives:
// inline and out-of-log values, tombstones and never-written keys alike.
TEST_P(MultiGetTest, RepeatedKeysMatchSingleGets) {
  Store s(GetParam(), /*cores=*/1);
  const uint64_t kInline = 1, kBlock = 3, kDead = 4, kAbsent = 99;
  ASSERT_LE(ValueFor(kInline).size(), 256u);
  ASSERT_GT(ValueFor(kBlock).size(), 256u);
  for (uint64_t k : {kInline, kBlock, kDead}) s.store->Put(k, ValueFor(k));
  ASSERT_TRUE(s.store->Delete(kDead));

  const uint64_t keys[] = {kInline, kBlock, kInline, kDead, kAbsent,
                           kBlock,  kDead,  kAbsent, kInline, kBlock,
                           kInline, kInline};
  constexpr size_t kN = sizeof(keys) / sizeof(keys[0]);
  ReadResult results[kN];
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, kN, results), kN);
  for (size_t i = 0; i < kN; i++) {
    std::string single;
    if (one_op::ReadOne(s.store.get(), 0, keys[i], &single) ==
        GetResult::kFound) {
      ASSERT_EQ(results[i].status, GetResult::kFound) << "position " << i;
      EXPECT_EQ(results[i].value, single) << "position " << i;
    } else {
      EXPECT_EQ(results[i].status, GetResult::kAbsent) << "position " << i;
      EXPECT_TRUE(results[i].value.empty()) << "position " << i;
    }
  }
}

// A key with a write in flight is deferred in every copy; `served` counts
// every served copy, and after the drain every copy sees the new value.
TEST_P(MultiGetTest, InFlightWriteDefersEveryCopy) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(1, "old-one");
  s.store->Put(2, "two");
  ASSERT_EQ(one_op::StagePut(s.store.get(), 0, 1, "new-one"),
            core::OpStatus::kOk);

  const uint64_t keys[] = {1, 2, 1, 3, 2, 1};
  ReadResult results[6];
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 6, results), 3u);
  for (size_t i : {0, 2, 5}) {
    EXPECT_EQ(results[i].status, GetResult::kDeferred) << "position " << i;
  }
  for (size_t i : {1, 4}) {
    ASSERT_EQ(results[i].status, GetResult::kFound) << "position " << i;
    EXPECT_EQ(results[i].value, "two") << "position " << i;
  }
  EXPECT_EQ(results[3].status, GetResult::kAbsent);

  s.store->Pump(0);
  s.store->Drain(0, SIZE_MAX, nullptr);
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 6, results), 6u);
  for (size_t i : {0, 2, 5}) {
    ASSERT_EQ(results[i].status, GetResult::kFound) << "position " << i;
    EXPECT_EQ(results[i].value, "new-one") << "position " << i;
  }
}

// Coalescing on the vt clock: 16 copies of one key cost at most one
// 1-key batch (which has nothing to deduplicate) plus a dedup probe per
// copy and a value copy per repeat — no extra index probe, prefetch or PM
// read. Each batch starts long after the previous one so the PM device is
// idle for both.
TEST_P(MultiGetTest, RepeatsCostADedupProbeAndACopy) {
  pm::PmDevice device;
  Store s(GetParam(), /*cores=*/1, &device);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  for (uint64_t key : {uint64_t{1}, uint64_t{3}}) {  // inline, out-of-log
    const std::string value = ValueFor(key);
    s.store->Put(key, value);
    auto batch_ns = [&](size_t n) {
      uint64_t keys[16];
      ReadResult results[16];
      for (size_t i = 0; i < n; i++) keys[i] = key;
      clock.AdvanceTo(clock.now() + 1000000);
      const uint64_t start = clock.now();
      EXPECT_EQ(s.store->MultiGetOnCore(0, keys, n, results), n);
      for (size_t i = 0; i < n; i++) EXPECT_EQ(results[i].value, value);
      return clock.now() - start;
    };
    const uint64_t one = batch_ns(1);
    const uint64_t sixteen = batch_ns(16);
    const uint64_t dedup = vt::kCpuHash + vt::kCpuSlotProbe;
    EXPECT_LE(sixteen, one + 16 * dedup + 15 * vt::CostMemcpy(value.size()))
        << value.size() << " B value: 1 copy " << one << " ns";
  }
}

// Only keys that probe overlap their misses: a batch of one probing key
// and 15 deferred ones charges that probe like a 1-key batch does, plus a
// dedup probe per key (a 1-key batch has nothing to deduplicate).
TEST_P(MultiGetTest, DeferredKeysDoNotWidenTheOverlap) {
  pm::PmDevice device;
  Store s(GetParam(), /*cores=*/1, &device);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  for (uint64_t k = 0; k < 16; k++) s.store->Put(k, ValueFor(k));
  for (uint64_t k = 1; k < 16; k++) {
    ASSERT_EQ(one_op::StagePut(s.store.get(), 0, k, "busy"),
              core::OpStatus::kOk);
  }
  auto batch_ns = [&](size_t n) {
    uint64_t keys[16];
    ReadResult results[16];
    for (size_t i = 0; i < n; i++) keys[i] = i;
    clock.AdvanceTo(clock.now() + 1000000);
    const uint64_t start = clock.now();
    EXPECT_EQ(s.store->MultiGetOnCore(0, keys, n, results), 1u);
    EXPECT_EQ(results[0].value, ValueFor(0));
    return clock.now() - start;
  };
  const uint64_t one = batch_ns(1);
  EXPECT_EQ(batch_ns(16), one + 16 * (vt::kCpuHash + vt::kCpuSlotProbe));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MultiGetTest,
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

// ---- server-level: read batch 1 vs 16 --------------------------------------

TEST(MultiGetServer, ReadBatch1And16CompleteSameWorkload) {
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
    cfg.read_batch = i == 0 ? 1 : 16;
    cfg.workload.key_space = 4096;
    cfg.workload.value_len = 64;
    cfg.workload.get_ratio = 0.9;
    cfg.workload.delete_ratio = 0.02;
    core::Preload(&adapter, cfg.workload, cfg.workload.key_space);
    results[i] = core::RunServer(&adapter, cfg);
  }
  EXPECT_EQ(results[0].ops, results[1].ops);
  EXPECT_EQ(results[0].latency.count(), results[1].latency.count());
  EXPECT_GT(results[1].mops, 0.0);
}

}  // namespace core_tests
}  // namespace
}  // namespace flatstore
