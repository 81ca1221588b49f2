// Parameterized correctness tests across all five index structures, plus
// structure-specific and persistence-behaviour tests.
//
// The parameterized block runs the same behavioural contract (upsert
// semantics, lookup, delete, CAS, size accounting, random interleavings
// checked against std::map) against CCEH, Level-Hashing, FAST&FAIR,
// FPTree, and Masstree in volatile mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/fptree.h"
#include "index/kv_index.h"
#include "index/level_hashing.h"
#include "index/masstree.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {
namespace {

using Factory = std::unique_ptr<KvIndex> (*)(const PmContext&);

struct IndexCase {
  const char* name;
  Factory make;
  bool ordered;
};

std::unique_ptr<KvIndex> MakeCceh(const PmContext& ctx) {
  return std::make_unique<Cceh>(ctx, /*initial_depth=*/2);
}
std::unique_ptr<KvIndex> MakeLevel(const PmContext& ctx) {
  return std::make_unique<LevelHashing>(ctx, /*initial_level_bits=*/4);
}
std::unique_ptr<KvIndex> MakeFastFair(const PmContext& ctx) {
  return std::make_unique<FastFair>(ctx);
}
std::unique_ptr<KvIndex> MakeFpTree(const PmContext& ctx) {
  return std::make_unique<FpTree>(ctx);
}
std::unique_ptr<KvIndex> MakeMasstree(const PmContext& ctx) {
  return std::make_unique<Masstree>(ctx);
}

const IndexCase kCases[] = {
    {"CCEH", MakeCceh, false},
    {"LevelHashing", MakeLevel, false},
    {"FastFair", MakeFastFair, true},
    {"FPTree", MakeFpTree, true},
    {"Masstree", MakeMasstree, true},
};

class IndexContractTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<KvIndex> Make() { return GetParam().make(PmContext{}); }
};

TEST_P(IndexContractTest, InsertGetRoundTrip) {
  auto idx = Make();
  EXPECT_TRUE(idx->Insert(42, 1000));
  uint64_t v = 0;
  ASSERT_TRUE(idx->Get(42, &v));
  EXPECT_EQ(v, 1000u);
  EXPECT_FALSE(idx->Get(43, &v));
}

TEST_P(IndexContractTest, UpsertUpdatesInPlace) {
  auto idx = Make();
  EXPECT_TRUE(idx->Insert(7, 1));
  EXPECT_FALSE(idx->Insert(7, 2));  // update, not new
  uint64_t v = 0;
  ASSERT_TRUE(idx->Get(7, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(idx->Size(), 1u);
}

TEST_P(IndexContractTest, DeleteRemoves) {
  auto idx = Make();
  idx->Insert(5, 50);
  EXPECT_TRUE(idx->Delete(5));
  uint64_t v;
  EXPECT_FALSE(idx->Get(5, &v));
  EXPECT_FALSE(idx->Delete(5));  // second delete is a miss
  EXPECT_EQ(idx->Size(), 0u);
}

TEST_P(IndexContractTest, CompareExchangeSemantics) {
  auto idx = Make();
  idx->Insert(9, 100);
  EXPECT_FALSE(idx->CompareExchange(9, 999, 200));  // wrong expected
  uint64_t v;
  idx->Get(9, &v);
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(idx->CompareExchange(9, 100, 200));
  idx->Get(9, &v);
  EXPECT_EQ(v, 200u);
  EXPECT_FALSE(idx->CompareExchange(12345, 0, 1));  // absent key
}

TEST_P(IndexContractTest, ZeroKeyAndZeroValueAreLegal) {
  auto idx = Make();
  EXPECT_TRUE(idx->Insert(0, 0));
  uint64_t v = 99;
  ASSERT_TRUE(idx->Get(0, &v));
  EXPECT_EQ(v, 0u);
}

TEST_P(IndexContractTest, BulkSequentialKeys) {
  auto idx = Make();
  constexpr uint64_t kN = 20000;
  for (uint64_t k = 0; k < kN; k++) {
    ASSERT_TRUE(idx->Insert(k, k * 3)) << "key " << k;
  }
  EXPECT_EQ(idx->Size(), kN);
  for (uint64_t k = 0; k < kN; k++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 3);
  }
}

TEST_P(IndexContractTest, RandomizedAgainstStdMap) {
  auto idx = Make();
  std::map<uint64_t, uint64_t> model;
  Rng rng(2026);
  for (int op = 0; op < 60000; op++) {
    uint64_t key = rng.Uniform(3000);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // put
        uint64_t val = rng.Next() >> 1;
        bool fresh = idx->Insert(key, val);
        EXPECT_EQ(fresh, model.find(key) == model.end());
        model[key] = val;
        break;
      }
      case 2: {  // get
        uint64_t v = 0;
        bool hit = idx->Get(key, &v);
        auto it = model.find(key);
        ASSERT_EQ(hit, it != model.end()) << "key " << key;
        if (hit) {
      ASSERT_EQ(v, it->second);
    }
        break;
      }
      case 3: {  // delete
        bool hit = idx->Delete(key);
        EXPECT_EQ(hit, model.erase(key) == 1);
        break;
      }
    }
  }
  EXPECT_EQ(idx->Size(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_TRUE(idx->Get(k, &got));
    ASSERT_EQ(got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexContractTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<IndexCase>& info) {
                           return std::string(info.param.name);
                         });

// ---- Ordered-index contract (scan) ------------------------------------

class OrderedIndexTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<OrderedKvIndex> Make() {
    auto base = GetParam().make(PmContext{});
    auto* ordered = dynamic_cast<OrderedKvIndex*>(base.get());
    EXPECT_NE(ordered, nullptr);
    base.release();
    return std::unique_ptr<OrderedKvIndex>(ordered);
  }
};

TEST_P(OrderedIndexTest, ScanReturnsSortedRange) {
  auto idx = Make();
  // Insert shuffled keys 0,10,20,...
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 5000; k++) keys.push_back(k * 10);
  std::mt19937_64 g(7);
  std::shuffle(keys.begin(), keys.end(), g);
  for (uint64_t k : keys) idx->Insert(k, k + 1);

  std::vector<KvPair> out;
  EXPECT_EQ(idx->Scan(1000, 100, &out), 100u);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0].key, 1000u);
  for (size_t i = 0; i < out.size(); i++) {
    ASSERT_EQ(out[i].key, 1000 + i * 10);
    ASSERT_EQ(out[i].value, out[i].key + 1);
  }
}

TEST_P(OrderedIndexTest, ScanFromMissingKeyStartsAtSuccessor) {
  auto idx = Make();
  for (uint64_t k = 0; k < 100; k++) idx->Insert(k * 10, k);
  std::vector<KvPair> out;
  EXPECT_EQ(idx->Scan(55, 3, &out), 3u);
  EXPECT_EQ(out[0].key, 60u);
  EXPECT_EQ(out[1].key, 70u);
  EXPECT_EQ(out[2].key, 80u);
}

TEST_P(OrderedIndexTest, ScanPastEndTruncates) {
  auto idx = Make();
  for (uint64_t k = 0; k < 10; k++) idx->Insert(k, k);
  std::vector<KvPair> out;
  EXPECT_EQ(idx->Scan(5, 100, &out), 5u);  // keys 5..9
}

TEST_P(OrderedIndexTest, ScanSkipsDeleted) {
  auto idx = Make();
  for (uint64_t k = 0; k < 20; k++) idx->Insert(k, k);
  idx->Delete(3);
  idx->Delete(4);
  std::vector<KvPair> out;
  idx->Scan(0, 20, &out);
  ASSERT_EQ(out.size(), 18u);
  for (const auto& p : out) EXPECT_TRUE(p.key != 3 && p.key != 4);
}

INSTANTIATE_TEST_SUITE_P(
    OrderedIndexes, OrderedIndexTest,
    ::testing::ValuesIn([] {
      std::vector<IndexCase> ordered;
      for (const auto& c : kCases) {
        if (c.ordered) ordered.push_back(c);
      }
      return ordered;
    }()),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return std::string(info.param.name);
    });

// ---- structure-specific tests ------------------------------------------

TEST(CcehStructure, DirectoryDoublesUnderLoad) {
  Cceh idx({}, /*initial_depth=*/2);
  uint32_t depth0 = idx.global_depth();
  for (uint64_t k = 0; k < 50000; k++) idx.Insert(k, k);
  EXPECT_GT(idx.global_depth(), depth0);
  EXPECT_GT(idx.segment_count(), 4u);
  // Everything still reachable after many splits.
  for (uint64_t k = 0; k < 50000; k += 97) {
    uint64_t v;
    ASSERT_TRUE(idx.Get(k, &v));
    ASSERT_EQ(v, k);
  }
}

// Depth 0 is a one-entry directory: its single segment takes every
// hash, then splits and doubles the directory like any other.
TEST(CcehStructure, DepthZeroGrowsThroughSplits) {
  Cceh idx({}, /*initial_depth=*/0);
  EXPECT_EQ(idx.global_depth(), 0u);
  EXPECT_EQ(idx.segment_count(), 1u);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; k++) idx.Insert(k, k + 1);
  EXPECT_GT(idx.global_depth(), 0u);
  EXPECT_GT(idx.segment_count(), 1u);
  EXPECT_EQ(idx.Size(), kKeys);
  for (uint64_t k = 0; k < kKeys; k++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx.Get(k, &v)) << k;
    ASSERT_EQ(v, k + 1);
  }
}

// Readers on another thread find every key, with its value, while the
// writer inserts fresh keys through splits and directory doublings (the
// store's scans and cleaners probe a core's partition while that core
// inserts).
TEST(CcehStructure, ReadersFindEveryKeyWhileTheWriterSplits) {
  Cceh idx({}, /*initial_depth=*/2);
  constexpr uint64_t kOld = 1000, kNew = 60000;
  for (uint64_t k = 0; k < kOld; k++) idx.Insert(k, k + 1);
  const uint32_t depth0 = idx.global_depth();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t k = kOld; k < kOld + kNew; k++) idx.Insert(k, k + 1);
    done.store(true);
  });
  uint64_t misses = 0, rounds = 0;
  while (!done.load() || rounds == 0) {
    for (uint64_t k = 0; k < kOld; k++) {
      uint64_t v = 0;
      if (!idx.Get(k, &v) || v != k + 1) misses++;
    }
    rounds++;
  }
  writer.join();
  EXPECT_EQ(misses, 0u) << "over " << rounds << " rounds";
  EXPECT_GT(idx.global_depth(), depth0);
}

// A reader never takes one key's value for another's while the writer
// erases a key and refills its slot with a different key: key B is
// chosen to probe key A's bucket first, so each of B's inserts lands in
// the slot A's erase just freed, and each of A's in the one B's freed.
TEST(CcehStructure, ReadersNeverSeeAnotherKeysValueInARefilledSlot) {
  constexpr uint32_t kDepth = 2;
  Cceh idx({}, kDepth);
  auto bucket_of = [](uint64_t k) {
    const uint64_t h = HashKey(k);
    // The segment (hash MSBs) and the first probed bucket (hash LSBs).
    return std::make_pair(h >> (64 - kDepth), (h & 0xFFFFFF) % 255);
  };
  const uint64_t a = 1;
  uint64_t b = a + 1;
  while (bucket_of(b) != bucket_of(a)) b++;
  idx.Insert(a, a + 1);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200000; i++) {
      ASSERT_TRUE(idx.EraseIfEqual(a, a + 1));
      idx.Insert(b, b + 1);
      ASSERT_TRUE(idx.EraseIfEqual(b, b + 1));
      idx.Insert(a, a + 1);
    }
    done.store(true);
  });
  uint64_t wrong = 0, found = 0;
  while (!done.load()) {
    for (const uint64_t k : {a, b}) {
      uint64_t v = 0;
      if (idx.Get(k, &v)) {
        found++;
        if (v != k + 1) wrong++;
      }
    }
  }
  writer.join();
  EXPECT_EQ(wrong, 0u) << "of " << found << " found";
  EXPECT_EQ(idx.global_depth(), kDepth);  // no split moved the slot
}

TEST(LevelHashingStructure, ResizesWhenFull) {
  LevelHashing idx({}, /*initial_level_bits=*/4);  // 16+8 buckets = 96 slots
  for (uint64_t k = 0; k < 5000; k++) idx.Insert(k, k);
  EXPECT_GT(idx.resizes(), 0u);
  EXPECT_GE(idx.top_buckets(), 1024u);
  for (uint64_t k = 0; k < 5000; k++) {
    uint64_t v;
    ASSERT_TRUE(idx.Get(k, &v));
  }
}

TEST(FastFairStructure, TreeGrowsInHeight) {
  FastFair idx({});
  EXPECT_EQ(idx.Height(), 1);
  for (uint64_t k = 0; k < 10000; k++) idx.Insert(k, k);
  EXPECT_GE(idx.Height(), 3);
}

// ---- Masstree inner-node search ------------------------------------------

// 2^18 keys give every insert order below at least four inner levels.
constexpr uint64_t kTreeKeys = 1 << 18;

enum class InsertOrder { kAscending, kDescending, kShuffled };

// The even keys 2, 4, ..., 2 * kTreeKeys in `order` (shuffled with a fixed
// seed).
std::vector<uint64_t> EvenKeys(InsertOrder order) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= kTreeKeys; i++) keys.push_back(2 * i);
  if (order == InsertOrder::kDescending) {
    std::reverse(keys.begin(), keys.end());
  } else if (order == InsertOrder::kShuffled) {
    std::mt19937_64 rng(29);
    std::shuffle(keys.begin(), keys.end(), rng);
  }
  return keys;
}

uint64_t ValueOf(uint64_t key) { return 3 * key + 1; }

// Every key of `expect` is found with its value by Get and by the
// two-phase Prefetch + GetWithHint, every other key up to one past the
// largest even key is absent from both, and Scans from sampled starts
// return the keys that follow in `expect`.
void ExpectTreeHolds(const Masstree& t, const std::set<uint64_t>& expect) {
  ASSERT_EQ(t.Size(), expect.size());
  for (uint64_t k = 0; k <= 2 * kTreeKeys + 1; k++) {
    const bool present = expect.count(k) != 0;
    uint64_t v = 0;
    ASSERT_EQ(t.Get(k, &v), present) << "Get " << k;
    if (present) ASSERT_EQ(v, ValueOf(k)) << "Get " << k;
    LookupHint hint;
    t.Prefetch(k, &hint);
    v = 0;
    ASSERT_EQ(t.GetWithHint(k, &hint, &v), present) << "GetWithHint " << k;
    if (present) ASSERT_EQ(v, ValueOf(k)) << "GetWithHint " << k;
  }
  Rng rng(7);
  std::vector<KvPair> got;
  for (int i = 0; i < 256; i++) {
    const uint64_t start = rng.Uniform(2 * kTreeKeys + 2);
    const uint64_t len = 1 + rng.Uniform(100);
    got.clear();
    const uint64_t n = t.Scan(start, len, &got);
    ASSERT_EQ(n, got.size());
    std::vector<KvPair> want;
    for (auto it = expect.lower_bound(start);
         it != expect.end() && want.size() < len; ++it) {
      want.push_back({*it, ValueOf(*it)});
    }
    ASSERT_EQ(got.size(), want.size()) << "Scan from " << start;
    for (size_t j = 0; j < got.size(); j++) {
      ASSERT_EQ(got[j].key, want[j].key) << "Scan from " << start;
      ASSERT_EQ(got[j].value, want[j].value) << "Scan from " << start;
    }
  }
}

class MasstreeOrderTest : public ::testing::TestWithParam<InsertOrder> {};

TEST_P(MasstreeOrderTest, DeepTreeMatchesSetThroughEraseAndReinsert) {
  Masstree t;
  const std::vector<uint64_t> keys = EvenKeys(GetParam());
  for (uint64_t k : keys) t.Insert(k, ValueOf(k));
  ASSERT_GE(t.height(), 5u) << "fewer than four inner levels";
  std::set<uint64_t> expect(keys.begin(), keys.end());
  ExpectTreeHolds(t, expect);

  // Erase every third key in insert order, then put them back.
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(t.Delete(keys[i]));
    expect.erase(keys[i]);
  }
  ExpectTreeHolds(t, expect);
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(t.Insert(keys[i], ValueOf(keys[i])));
    expect.insert(keys[i]);
  }
  ExpectTreeHolds(t, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, MasstreeOrderTest,
    ::testing::Values(InsertOrder::kAscending, InsertOrder::kDescending,
                      InsertOrder::kShuffled),
    [](const ::testing::TestParamInfo<InsertOrder>& info) {
      switch (info.param) {
        case InsertOrder::kAscending: return "Ascending";
        case InsertOrder::kDescending: return "Descending";
        case InsertOrder::kShuffled: return "Shuffled";
      }
      return "Unknown";
    });

TEST(MasstreeStructure, SerialGetChargesLogProbesPerInnerLevel) {
  Masstree t;
  const std::vector<uint64_t> keys = EvenKeys(InsertOrder::kAscending);
  for (uint64_t k : keys) t.Insert(k, ValueOf(k));
  const uint64_t h = t.height();
  ASSERT_GE(h, 5u);

  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  vt::ScopedOverlap serial(1);
  auto charged = [&](uint64_t key) {
    const uint64_t t0 = clock.now();
    uint64_t v;
    EXPECT_TRUE(t.Get(key, &v));
    return clock.now() - t0;
  };
  // A serial Get pays one cache miss per level and at most
  // bit_width(15) = 4 probes in its leaf. Each inner level may add
  // ceil(log2(kInnerCard + 1)) = 5 probes; a linear scan of a node passes
  // about half its 15-30 separators.
  const uint64_t bound = h * vt::kCpuCacheMiss +
                         ((h - 1) * 5 + 4) * vt::kCpuSlotProbe;
  EXPECT_LE(charged(2 * kTreeKeys), bound) << "rightmost key";
  uint64_t total = 0;
  for (uint64_t k : keys) total += charged(k);
  EXPECT_LE(total / keys.size(), bound) << "mean over all keys";
}

// Scan reads each leaf once: its descent already charged the first leaf,
// so a one-pair Scan costs a Get plus the probe that emits the pair.
// Fills `t` with keys [0, 5000) first.
void ExpectScanChargesItsFirstLeafOnce(OrderedKvIndex* t) {
  for (uint64_t k = 0; k < 5000; k++) t->Insert(k, ValueOf(k));
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  vt::ScopedOverlap serial(1);
  for (uint64_t k : {uint64_t{0}, uint64_t{2500}, uint64_t{4999}}) {
    uint64_t t0 = clock.now();
    uint64_t v;
    ASSERT_TRUE(t->Get(k, &v));
    const uint64_t get = clock.now() - t0;
    t0 = clock.now();
    std::vector<KvPair> out;
    ASSERT_EQ(t->Scan(k, 1, &out), 1u);
    EXPECT_EQ(out[0].key, k);
    EXPECT_EQ(clock.now() - t0, get + vt::kCpuSlotProbe)
        << t->Name() << " key " << k;
  }
}

TEST(MasstreeStructure, ScanChargesItsFirstLeafOnce) {
  Masstree t;
  ExpectScanChargesItsFirstLeafOnce(&t);
  EXPECT_GE(t.height(), 3u);
}

TEST(FastFairStructure, ScanChargesItsFirstLeafOnce) {
  FastFair t({});
  ExpectScanChargesItsFirstLeafOnce(&t);
  EXPECT_GE(t.Height(), 3);
}

// ---- persistent-mode flush behaviour ------------------------------------

class PersistentIndexTest : public ::testing::Test {
 protected:
  PersistentIndexTest() {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    alloc_ = std::make_unique<alloc::LazyAllocator>(
        pool_.get(), alloc::kChunkSize, o.size - alloc::kChunkSize, 1);
    ctx_ = PmContext{pool_.get(), alloc_.get(), 0};
  }

  uint64_t LinesFor(KvIndex* idx, uint64_t first_key, uint64_t n) {
    auto before = pool_->stats().Get();
    for (uint64_t k = 0; k < n; k++) idx->Insert(first_key + k, k);
    return pm::Delta(before, pool_->stats().Get()).lines_flushed;
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  PmContext ctx_;
};

TEST_F(PersistentIndexTest, VolatileModeNeverFlushes) {
  auto before = pool_->stats().Get();
  Cceh idx({}, 4);  // volatile: no pool
  for (uint64_t k = 0; k < 1000; k++) idx.Insert(k, k);
  EXPECT_EQ(pm::Delta(before, pool_->stats().Get()).lines_flushed, 0u);
}

TEST_F(PersistentIndexTest, HashInsertFlushesAtLeastOneLine) {
  Cceh idx(ctx_, 8);
  // Steady state (no splits with 256 segments / 1k keys): >= 1 line per
  // insert.
  uint64_t lines = LinesFor(&idx, 0, 1000);
  EXPECT_GE(lines, 1000u);
}

TEST_F(PersistentIndexTest, TreeInsertFlushesMoreThanHash) {
  // The motivating observation (§2.2): tree shifting amplifies flushes.
  Cceh hash(ctx_, 8);
  uint64_t hash_lines = LinesFor(&hash, 0, 5000);
  FastFair tree(ctx_);
  uint64_t tree_lines = LinesFor(&tree, 1ull << 32, 5000);
  EXPECT_GT(tree_lines, hash_lines);
}

TEST_F(PersistentIndexTest, FpTreeCommitsViaBitmapWord) {
  FpTree idx(ctx_);
  idx.Insert(1, 10);
  auto before = pool_->stats().Get();
  idx.Insert(2, 20);  // same leaf: entry line + header line (+fence)
  auto d = pm::Delta(before, pool_->stats().Get());
  EXPECT_EQ(d.lines_flushed, 2u);
  EXPECT_EQ(d.fences, 1u);
}

// In persistent mode every leaf a scan reads is a PM media read, the
// first one charged by the descent alone.
TEST_F(PersistentIndexTest, TreeScanChargesItsFirstLeafOnce) {
  FastFair ff(ctx_);
  ExpectScanChargesItsFirstLeafOnce(&ff);
  EXPECT_GE(ff.Height(), 3);
  Masstree mt(ctx_);
  ExpectScanChargesItsFirstLeafOnce(&mt);
  EXPECT_GE(mt.height(), 3u);
}

TEST_F(PersistentIndexTest, PersistentTreesRemainCorrect) {
  FastFair ff(ctx_);
  FpTree fp(ctx_);
  for (uint64_t k = 0; k < 20000; k++) {
    ff.Insert(k * 7 % 20011, k);
    fp.Insert(k * 7 % 20011, k);
  }
  EXPECT_EQ(ff.Size(), fp.Size());
  for (uint64_t k = 0; k < 20011; k += 13) {
    uint64_t a = 0, b = 0;
    bool ha = ff.Get(k, &a);
    bool hb = fp.Get(k, &b);
    ASSERT_EQ(ha, hb) << k;
    if (ha) {
      ASSERT_EQ(a, b);
    }
  }
}

}  // namespace
}  // namespace index
}  // namespace flatstore
