// Integration tests of the FlatStore engine and the baseline engines:
// CRUD semantics across all index kinds, inline vs out-of-log values, the
// conflict queue, flush accounting (the paper's 3-flush Put and N+2 batch
// claims), space reclamation on overwrite, scans, and the async protocol
// under real threads.
// Crash recovery has its own file (recovery_test.cc).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/baseline.h"
#include "core/flatstore.h"
#include "one_op.h"

namespace flatstore {
namespace core {
namespace {

using one_op::ReadOne;
using one_op::StageDelete;
using one_op::StagePut;

std::string ValueFor(uint64_t key, size_t len) {
  std::string v(len, char('a' + key % 26));
  // Stamp the key into the value so cross-key corruption is detectable.
  for (size_t i = 0; i + 8 <= len && i < 64; i += 8) {
    std::memcpy(&v[i], &key, 8);
  }
  return v;
}

class FlatStoreTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  FlatStoreTest() {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    fo.index = GetParam();
    store_ = FlatStore::Create(pool_.get(), fo);
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<FlatStore> store_;
};

TEST_P(FlatStoreTest, PutGetRoundTrip) {
  store_->Put(1, "hello");
  std::string v;
  ASSERT_TRUE(store_->Get(1, &v));
  EXPECT_EQ(v, "hello");
  EXPECT_FALSE(store_->Get(2, &v));
  EXPECT_EQ(store_->Size(), 1u);
}

TEST_P(FlatStoreTest, OverwriteReturnsLatest) {
  store_->Put(7, "first");
  store_->Put(7, "second");
  store_->Put(7, "third");
  std::string v;
  ASSERT_TRUE(store_->Get(7, &v));
  EXPECT_EQ(v, "third");
  EXPECT_EQ(store_->Size(), 1u);
}

TEST_P(FlatStoreTest, DeleteRemovesAndReportsMiss) {
  store_->Put(5, "x");
  EXPECT_TRUE(store_->Delete(5));
  std::string v;
  EXPECT_FALSE(store_->Get(5, &v));
  EXPECT_FALSE(store_->Delete(5));
  EXPECT_EQ(store_->Size(), 0u);
}

TEST_P(FlatStoreTest, PutAfterDeleteWorks) {
  store_->Put(5, "x");
  store_->Delete(5);
  store_->Put(5, "y");
  std::string v;
  ASSERT_TRUE(store_->Get(5, &v));
  EXPECT_EQ(v, "y");
}

TEST_P(FlatStoreTest, ValueSizesAcrossInlineBoundary) {
  // 1 B .. 256 B go into the log; larger go through the allocator.
  for (size_t len : {1u, 8u, 255u, 256u, 257u, 300u, 1024u, 4096u, 100000u}) {
    uint64_t key = 1000 + len;
    std::string val = ValueFor(key, len);
    store_->Put(key, val);
    std::string got;
    ASSERT_TRUE(store_->Get(key, &got)) << len;
    ASSERT_EQ(got, val) << len;
  }
}

TEST_P(FlatStoreTest, ManyKeysAllCores) {
  constexpr uint64_t kN = 20000;
  for (uint64_t k = 0; k < kN; k++) store_->Put(k, ValueFor(k, 24));
  EXPECT_EQ(store_->Size(), kN);
  for (uint64_t k = 0; k < kN; k += 7) {
    std::string v;
    ASSERT_TRUE(store_->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, 24));
  }
}

TEST_P(FlatStoreTest, OverwritesFreeOldLargeBlocks) {
  // 100 overwrites of a 1 KB value must not accumulate 100 blocks.
  for (int i = 0; i < 100; i++) store_->Put(9, ValueFor(9, 1024));
  // One live block (plus log chunks + index-free space), far below 100 KB
  // of leaked blocks.
  uint64_t value_bytes = 0;
  // allocated_bytes counts blocks + raw (log) chunks; isolate blocks by
  // checking the 1.5 KB class usage indirectly: total allocated bytes
  // minus raw chunks must be ~one block.
  uint64_t raw = 0;
  for (auto& [off, u] :
       store_->LogForCore(store_->CoreForKey(9))->UsageSnapshot()) {
    (void)off;
    (void)u;
    raw += alloc::kChunkSize;
  }
  // Sum raw chunks across all cores.
  raw = 0;
  for (int c = 0; c < 4; c++) {
    raw += store_->LogForCore(c)->UsageSnapshot().size() * alloc::kChunkSize;
  }
  value_bytes = store_->allocator()->allocated_bytes() - raw;
  EXPECT_LE(value_bytes, 4096u);
}

TEST_P(FlatStoreTest, ConflictQueueOrdersSameKeyWrites) {
  const uint64_t key = 42;
  const int core = store_->CoreForKey(key);
  // Same-key writes pipeline (versions chain); reads must be deferred
  // until the chain drains — that is the paper's reordering protection.
  ASSERT_EQ(StagePut(store_.get(), core, key, "aa"), OpStatus::kOk);
  ASSERT_EQ(StagePut(store_.get(), core, key, "bb"), OpStatus::kOk);
  ASSERT_EQ(StagePut(store_.get(), core, key, "cc"), OpStatus::kOk);
  EXPECT_TRUE(store_->KeyBusy(core, key));
  std::string v;
  EXPECT_EQ(ReadOne(store_.get(), core, key, &v), GetResult::kDeferred);
  store_->Pump(core);
  EXPECT_EQ(store_->Drain(core, SIZE_MAX, nullptr), 3u);
  EXPECT_FALSE(store_->KeyBusy(core, key));
  // FIFO drains applied the chain in order: the last write wins.
  ASSERT_EQ(ReadOne(store_.get(), core, key, &v), GetResult::kFound);
  EXPECT_EQ(v, "cc");
  // Delete chained behind a put, then re-put: still coherent.
  ASSERT_EQ(StagePut(store_.get(), core, key, "dd"), OpStatus::kOk);
  ASSERT_EQ(StageDelete(store_.get(), core, key), OpStatus::kOk);
  store_->Pump(core);
  store_->Drain(core, SIZE_MAX, nullptr);
  EXPECT_EQ(ReadOne(store_.get(), core, key, &v), GetResult::kAbsent);
}

TEST_P(FlatStoreTest, AsyncProtocolMultiThreaded) {
  constexpr int kCores = 4;
  constexpr uint64_t kOpsPerCore = 3000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kCores; c++) {
    threads.emplace_back([&, c] {
      vt::Clock clock;
      vt::ScopedClock bind(&clock);
      uint64_t issued = 0, done = 0, key_cursor = 0;
      while (done < kOpsPerCore) {
        while (issued < kOpsPerCore && store_->Inflight(c) < 32) {
          // Next key owned by this core.
          uint64_t key;
          do {
            key = key_cursor++;
          } while (store_->CoreForKey(key) != c);
          if (StagePut(store_.get(), c, key, ValueFor(key, 16)) !=
              OpStatus::kOk) {
            break;
          }
          issued++;
        }
        store_->Pump(c);
        done += store_->Drain(c, SIZE_MAX, nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store_->Size(), kOpsPerCore * kCores);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FlatStoreTest,
                         ::testing::Values(IndexKind::kHash,
                                           IndexKind::kMasstree,
                                           IndexKind::kFastFairVolatile),
                         [](const ::testing::TestParamInfo<IndexKind>& i) {
                           switch (i.param) {
                             case IndexKind::kHash:
                               return "H";
                             case IndexKind::kMasstree:
                               return "M";
                             default:
                               return "FF";
                           }
                         });

// ---- non-parameterized engine behaviour ---------------------------------

TEST(FlatStoreFlushes, SmallPutCostsThreeFlushSites) {
  // Paper §3.2: an unbatched Put = record + log entry + tail pointer; for
  // inline values the record rides inside the entry, so only entry line +
  // tail line remain.
  pm::PmPool::Options o;
  o.size = 64ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  auto store = FlatStore::Create(&pool, fo);
  store->Put(1, "warmup");           // log chunk allocation out of the way
  store->Put(4, ValueFor(4, 512));   // 768-class value chunk, too
  auto before = pool.stats().Get();
  store->Put(2, "tiny");
  auto d = pm::Delta(before, pool.stats().Get());
  EXPECT_EQ(d.lines_flushed, 2u);  // entry line + tail line

  before = pool.stats().Get();
  store->Put(3, ValueFor(3, 512));  // out-of-log value
  d = pm::Delta(before, pool.stats().Get());
  // 512 B record = 9 lines (520 B incl. header), + entry + tail.
  EXPECT_EQ(d.lines_flushed, 9 + 2u);
}

TEST(FlatStoreFlushes, HorizontalBatchCostsNPlus2ForLargeValues) {
  // Paper §3.3: batching N ptr-based Puts reduces PM writes from 3N to
  // N + 2 "writes" (N records, one merged entry flush, one tail update).
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  auto store = FlatStore::Create(&pool, fo);
  // Warm up chunks on every core.
  for (uint64_t k = 0; k < 64; k++) store->Put(k, ValueFor(k, 300));

  // Stage 4 large-value puts on each core (16 total), then let core 0
  // lead one horizontal batch.
  auto before = pool.stats().Get();
  std::string val = ValueFor(99, 300);  // 300 B -> 512-class block
  uint64_t key = 1000;
  for (int c = 0; c < 4; c++) {
    for (int i = 0; i < 4; i++) {
      while (store->CoreForKey(key) != c) key++;
      ASSERT_EQ(StagePut(store.get(), c, key, val), OpStatus::kOk);
      key++;
    }
  }
  store->Pump(0);  // leader steals all 16
  auto d = pm::Delta(before, pool.stats().Get());
  // Persist *calls*: 16 records + 1 entry sweep + 1 tail = N + 2.
  EXPECT_EQ(d.persist_calls, 16 + 2u);
  // Lines: 16 records x 5 lines (308 B) + 4 entry lines + 1 tail line.
  EXPECT_EQ(d.lines_flushed, 16 * 5 + 4 + 1u);
  for (int c = 0; c < 4; c++) store->Drain(c, SIZE_MAX, nullptr);
}

TEST(FlatStoreScan, OrderedScanThroughMasstree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.index = IndexKind::kMasstree;
  auto store = FlatStore::Create(&pool, fo);
  for (uint64_t k = 0; k < 1000; k++) {
    store->Put(k * 2, ValueFor(k * 2, 16));
  }
  std::vector<std::pair<uint64_t, std::string>> out;
  EXPECT_EQ(store->Scan(100, 10, &out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].first, 100 + 2 * i);
    EXPECT_EQ(out[i].second, ValueFor(out[i].first, 16));
  }
}

TEST(FlatStoreRouting, KeysSpreadAcrossCores) {
  pm::PmPool::Options o;
  o.size = 64ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.group_size = 4;
  auto store = FlatStore::Create(&pool, fo);
  std::vector<int> counts(8, 0);
  for (uint64_t k = 0; k < 80000; k++) counts[store->CoreForKey(k)]++;
  for (int c : counts) {
    EXPECT_GT(c, 80000 / 8 * 0.9);
    EXPECT_LT(c, 80000 / 8 * 1.1);
  }
}

// ---- baselines ------------------------------------------------------------

class BaselineTest : public ::testing::TestWithParam<BaselineKind> {
 protected:
  BaselineTest() {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    BaselineStore::Options bo;
    bo.num_cores = 4;
    bo.kind = GetParam();
    store_ = BaselineStore::Create(pool_.get(), bo);
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<BaselineStore> store_;
};

TEST_P(BaselineTest, CrudRoundTrip) {
  store_->Put(1, "alpha");
  store_->Put(2, ValueFor(2, 500));
  std::string v;
  ASSERT_TRUE(store_->Get(1, &v));
  EXPECT_EQ(v, "alpha");
  ASSERT_TRUE(store_->Get(2, &v));
  EXPECT_EQ(v, ValueFor(2, 500));
  store_->Put(1, "beta");
  ASSERT_TRUE(store_->Get(1, &v));
  EXPECT_EQ(v, "beta");
  EXPECT_TRUE(store_->Delete(1));
  EXPECT_FALSE(store_->Get(1, &v));
  EXPECT_EQ(store_->Size(), 1u);
}

TEST_P(BaselineTest, BulkLoadAndVerify) {
  for (uint64_t k = 0; k < 20000; k++) store_->Put(k, ValueFor(k, 32));
  EXPECT_EQ(store_->Size(), 20000u);
  for (uint64_t k = 0; k < 20000; k += 13) {
    std::string v;
    ASSERT_TRUE(store_->Get(k, &v));
    ASSERT_EQ(v, ValueFor(k, 32));
  }
}

TEST_P(BaselineTest, OverwriteFreesOldBlock) {
  store_->Put(9, ValueFor(9, 1024));
  const uint64_t baseline_bytes = store_->allocator()->allocated_bytes();
  for (int i = 0; i < 50; i++) store_->Put(9, ValueFor(9, 1024));
  // Old blocks are freed on overwrite: allocation growth stays a tiny
  // multiple of one block (index nodes may grow slightly).
  EXPECT_LE(store_->allocator()->allocated_bytes(),
            baseline_bytes + 8 * 1536);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineTest,
    ::testing::Values(BaselineKind::kCceh, BaselineKind::kLevelHashing,
                      BaselineKind::kFpTree, BaselineKind::kFastFair),
    [](const ::testing::TestParamInfo<BaselineKind>& i) {
      switch (i.param) {
        case BaselineKind::kCceh:
          return "CCEH";
        case BaselineKind::kLevelHashing:
          return "Level";
        case BaselineKind::kFpTree:
          return "FPTree";
        default:
          return "FastFair";
      }
    });

TEST(BaselineVsFlatStore, FlatStoreFlushesFewerLines) {
  // The headline comparison: same workload, strictly fewer flushed lines
  // for FlatStore (even unbatched, single core).
  auto run_flatstore = [] {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    pm::PmPool pool(o);
    FlatStoreOptions fo;
    fo.num_cores = 1;
    fo.group_size = 1;
    auto s = FlatStore::Create(&pool, fo);
    auto before = pool.stats().Get();
    for (uint64_t k = 0; k < 5000; k++) s->Put(k, ValueFor(k, 64));
    return pm::Delta(before, pool.stats().Get()).lines_flushed;
  };
  auto run_baseline = [](BaselineKind kind) {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    pm::PmPool pool(o);
    BaselineStore::Options bo;
    bo.num_cores = 1;
    bo.kind = kind;
    auto s = BaselineStore::Create(&pool, bo);
    auto before = pool.stats().Get();
    for (uint64_t k = 0; k < 5000; k++) s->Put(k, ValueFor(k, 64));
    return pm::Delta(before, pool.stats().Get()).lines_flushed;
  };
  uint64_t flat = run_flatstore();
  // Even without batching, FlatStore never flushes more lines than the
  // best hash baseline (the big win — batching — is asserted in
  // batch_test.cc and the Fig. 11 benchmark); tree baselines amplify
  // writes through shifting/splitting and lose outright.
  EXPECT_LE(flat, run_baseline(BaselineKind::kCceh) * 101 / 100);
  EXPECT_LT(flat * 3 / 2, run_baseline(BaselineKind::kFastFair));
}

}  // namespace
}  // namespace core
}  // namespace flatstore
