// Key order of a FlatStore-H store (DESIGN.md §11): scans that walk the
// store's key tree and resolve each window through the hash index, scan
// equivalence against the full-iteration baseline under puts/deletes/GC
// churn and after recovery rebuilt the tree, scans racing cleaning passes
// and fresh keys, and the epoch-deferred free of cleaned victims.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/flatstore.h"
#include "core/fsck.h"

namespace flatstore {
namespace core {
namespace {

using ScanRows = std::vector<std::pair<uint64_t, std::string>>;

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, static_cast<char>('a' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  return v;
}

FlatStoreOptions KeyOrderOptions(int cores = 2) {
  FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = cores;
  fo.hash_initial_depth = 4;
  fo.tier_enabled = true;  // keep key order
  return fo;
}

std::unique_ptr<pm::PmPool> MakePool(uint64_t mb = 128) {
  pm::PmPool::Options o;
  o.size = mb << 20;
  return std::make_unique<pm::PmPool>(o);
}

// Keys and values of the ordered scan must equal the full-iteration
// baseline's.
void ExpectScanMatchesFullIteration(FlatStore* store, uint64_t start,
                                    uint64_t count) {
  ScanRows ordered, full;
  const uint64_t a = store->Scan(start, count, &ordered);
  const uint64_t b = store->ScanFullIteration(start, count, &full);
  ASSERT_EQ(a, b) << "start=" << start << " count=" << count;
  ASSERT_EQ(ordered, full) << "start=" << start << " count=" << count;
}

// Puts keys [0, keys), seals, writes a few keys far above the range so
// every core's durable tail moves into a fresh chunk, then runs
// maintenance passes until none has work left.
void FillAndCleanAll(FlatStore* store, uint64_t keys) {
  for (uint64_t k = 0; k < keys; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 8; k++) {
    store->Put((1ull << 32) + k, ValueFor(k, 1, 40));
  }
  while (store->RunCleanersOnce() > 0) {
  }
}

// The acceptance check: the ordered scan must be byte-identical to the
// full volatile-index iteration at every quiesced point of a
// put/delete/GC churn schedule.
TEST(KeyOrder, ScanEquivalentToFullIterationUnderChurn) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions());
  constexpr uint64_t kKeys = 1500;
  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, ValueFor(k, 0, 50));
  }
  auto compare = [&](uint64_t start, uint64_t count) {
    ExpectScanMatchesFullIteration(store.get(), start, count);
  };
  for (int round = 1; round <= 4; round++) {
    // Churn: overwrites, deletes, re-puts — then a maintenance pass.
    for (uint64_t k = 0; k < kKeys; k += 3) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 50 + round));
    }
    for (uint64_t k = 1; k < kKeys; k += 97) store->Delete(k);
    for (uint64_t k = 1; k < kKeys; k += 194) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 33));
    }
    store->SealActiveLogChunks();
    store->RunCleanersOnce();
    compare(0, kKeys);
    compare(kKeys / 3, 100);
    compare(kKeys - 40, 200);  // tail: fewer than `count` keys remain
    compare(kKeys + 1000, 10);  // empty range
  }
  EXPECT_GT(store->ChunksCleaned(), 0u);

  // Dense runs of tombstones with a live key every 50th: one on keys
  // written before the churn, one on fresh keys. A 100-key scan from a
  // run's start resolves several windows of tombstones before it can
  // emit enough pairs, and each round asks the key tree for only the rows
  // still wanted, so it walks the tree again and again. Sweeping the
  // start key moves the window bounds across tombstones and live keys
  // alike.
  constexpr uint64_t kRunBegin = 300, kRunEnd = 1200;
  constexpr uint64_t kFreshBegin = 5000, kFreshEnd = 5900;
  for (uint64_t k = kRunBegin; k < kRunEnd; k++) store->Delete(k);
  for (uint64_t k = kRunBegin; k < kRunEnd; k += 50) {
    store->Put(k, ValueFor(k, 9, 45));
  }
  for (uint64_t k = kFreshBegin; k < kFreshEnd; k++) {
    store->Put(k, ValueFor(k, 9, 45));
    if (k % 50 != 0) store->Delete(k);
  }
  for (int pass = 0; pass < 2; pass++) {
    compare(0, kKeys);
    compare(0, kFreshEnd);
    for (uint64_t begin : {kRunBegin, kFreshBegin}) {
      for (uint64_t start = begin - 5; start < begin + 40; start += 3) {
        compare(start, 1);
        compare(start, 17);
        compare(start, 100);
      }
    }
    compare(kRunEnd - 1, 50);
    compare(kKeys - 1, 10);       // the last old key, then fresh keys
    compare(kFreshEnd - 1, 10);   // the last key only
    compare(kFreshEnd, 10);       // just past the last key
    compare(UINT64_MAX, 10);  // the very end of the key space
    // Second pass: the tombstones' chunks cleaned, so the index has
    // dropped keys the key tree still holds.
    store->SealActiveLogChunks();
    while (store->RunCleanersOnce() > 0) {
    }
  }
}

// Stores whose key tree was built each way: by Drain's inserts of fresh
// keys (no pass ever ran), by Drain with maintenance passes relocating
// the entries, by recovery's replay after a crash, and by recovery after
// a clean shutdown (the index from the checkpoint).
TEST(KeyOrder, ScanEquivalentOnDrainedAndRecoveredStores) {
  constexpr uint64_t kKeys = 1024;
  auto drained_pool = MakePool();
  auto drained = FlatStore::Create(drained_pool.get(), KeyOrderOptions());
  for (uint64_t k = 0; k < kKeys; k++) drained->Put(k, ValueFor(k, 1, 40));
  auto cleaned_pool = MakePool();
  auto cleaned = FlatStore::Create(cleaned_pool.get(), KeyOrderOptions());
  FillAndCleanAll(cleaned.get(), kKeys);
  auto crashed_pool = MakePool();
  FillAndCleanAll(
      FlatStore::Create(crashed_pool.get(), KeyOrderOptions()).get(), kKeys);
  auto crashed = FlatStore::Open(crashed_pool.get(), KeyOrderOptions());
  auto shut_pool = MakePool();
  FillAndCleanAll(FlatStore::Create(shut_pool.get(), KeyOrderOptions()).get(),
                  kKeys);
  {
    auto store = FlatStore::Open(shut_pool.get(), KeyOrderOptions());
    store->Shutdown();
  }
  auto shut = FlatStore::Open(shut_pool.get(), KeyOrderOptions());
  for (FlatStore* store :
       {drained.get(), cleaned.get(), crashed.get(), shut.get()}) {
    ExpectScanMatchesFullIteration(store, 0, kKeys);
    ExpectScanMatchesFullIteration(store, 0, 3 * kKeys);
    ExpectScanMatchesFullIteration(store, 511, 100);
    ExpectScanMatchesFullIteration(store, kKeys - 1, 5);
    ExpectScanMatchesFullIteration(store, kKeys, 5);
    ExpectScanMatchesFullIteration(store, UINT64_MAX, 5);
  }
}

// Checks one scan of `count` rows from `start` while writers and
// maintenance race it: every key from `start` to keys-1 exists and is
// never deleted, and the scan reaches no key above them, so it returns
// exactly those min(count, keys - start) keys, in order, each value one
// some Put wrote for its key.
bool ScanWellFormed(FlatStore* store, uint64_t keys, uint64_t start,
                    uint64_t count = 120) {
  ScanRows rows;
  const uint64_t want = std::min<uint64_t>(count, keys - start);
  EXPECT_EQ(store->Scan(start, count, &rows), want) << start;
  EXPECT_EQ(rows.size(), want) << start;
  for (size_t j = 0; j < rows.size(); j++) {
    EXPECT_EQ(rows[j].first, start + j) << start;
  }
  for (const auto& [k, v] : rows) {
    EXPECT_EQ(v.size(), 48u) << k;
    uint64_t embedded = 0;
    std::memcpy(&embedded, v.data(), std::min<size_t>(8, v.size()));
    EXPECT_EQ(embedded, k);
  }
  return !::testing::Test::HasFailure();
}

// Scans racing a live writer — and a maintenance pass that relocates
// half-dead chunks, swinging index entries under them — must stay
// well-formed: strictly ascending keys, no crashes, every returned value
// a version some Put wrote. No key is ever deleted, so every scan returns
// exactly min(120, kKeys - start) rows.
TEST(KeyOrder, ConcurrentScanSmoke) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 48));
  store->SealActiveLogChunks();
  // The odd keys move on, leaving the first chunks half dead for the
  // concurrent pass to relocate while the scans below run.
  for (uint64_t k = 1; k < kKeys; k += 2) store->Put(k, ValueFor(k, 1, 48));
  store->SealActiveLogChunks();
  const uint64_t cleaned_before = store->ChunksCleaned();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t nonce = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t k = 0; k < kKeys; k += 5) {
        store->Put(k, ValueFor(k, nonce, 48));
      }
      nonce++;
    }
  });
  // The pass starts once scans are running, and scans go on until it ends.
  std::atomic<bool> scanning{false}, cleaned{false};
  std::thread cleaning([&] {
    while (!scanning.load()) std::this_thread::yield();
    store->RunCleanersOnce();
    cleaned.store(true);
  });
  scanning.store(true);
  bool ok = true;
  for (int i = 0; ok && (i < 50 || !cleaned.load()); i++) {
    ok = ScanWellFormed(store.get(), kKeys,
                        (static_cast<uint64_t>(i) * 37) % kKeys);
  }
  cleaning.join();
  stop.store(true);
  writer.join();
  EXPECT_GT(store->ChunksCleaned(), cleaned_before);
  ExpectScanMatchesFullIteration(store.get(), 0, kKeys);
}

// Scans racing a writer that inserts fresh keys into the key tree stay
// exact. The writer writes batches of keys, each right above the one
// before; the scans of a batch run while the writer inserts the next,
// so the tree's leaves at the batch's end split under them. Each scan
// returns exactly the min(120, batch keys >= start) keys of the batch
// from its start, because no key is ever deleted and a key joins the
// tree only after its index insert. Maintenance passes run meanwhile,
// and in the end a scan of the whole store still finds every key.
TEST(KeyOrder, ConcurrentScanWhileKeysArrive) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions());
  constexpr uint64_t kKeys = 1024, kRounds = 8;
  // Batches written, and batches whose scans are done.
  std::atomic<uint64_t> batched{0}, scanned{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t r = 0; r <= kRounds && !stop.load(); r++) {
      // Batch r is written while the scans of batch r - 1 run.
      while (scanned.load() + 1 < r && !stop.load()) {
        std::this_thread::yield();
      }
      for (uint64_t k = r * kKeys; k < (r + 1) * kKeys; k++) {
        store->Put(k, ValueFor(k, 0, 48));
      }
      batched.store(r + 1);
    }
  });
  std::thread passes([&] {
    while (!stop.load()) {
      store->RunCleanersOnce();
      std::this_thread::yield();
    }
  });
  bool ok = true;
  for (uint64_t r = 0; ok && r < kRounds; r++) {
    while (batched.load() <= r) std::this_thread::yield();
    const uint64_t base = r * kKeys;
    // Scans go on until the writer has written the next batch.
    for (int i = 0; ok && (i < 20 || batched.load() <= r + 1); i++) {
      // Later batches lie above this one, so a scan asks for no more rows
      // than the batch holds from its start.
      const uint64_t start = base + (static_cast<uint64_t>(i) * 37) % kKeys;
      ok = ScanWellFormed(store.get(), base + kKeys, start,
                          std::min<uint64_t>(120, base + kKeys - start));
    }
    scanned.store(r + 1);
  }
  stop.store(true);
  writer.join();
  passes.join();
  ExpectScanMatchesFullIteration(store.get(), 0, (kRounds + 1) * kKeys);
}

// A reader pinned before a maintenance pass keeps the victims' entries it
// may still decode: the pass frees no victim at once, but defers the free
// of each victim it retires, and nothing else.
TEST(KeyOrder, PinnedReaderDefersVictimFrees) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions());
  FillAndCleanAll(store.get(), 128);
  // Every key of the filled chunks moves on, so they die, and fresh keys
  // join the key tree.
  for (uint64_t k = 0; k < 256; k++) store->Put(k, ValueFor(k, 2, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 8; k++) {
    store->Put((1ull << 33) + k, ValueFor(k, 1, 40));
  }
  common::EpochManager* epochs = store->epochs();
  epochs->DrainDeferred();
  ASSERT_EQ(epochs->deferred_pending(), 0u);
  {
    common::EpochManager::GuestGuard pin(epochs);
    const uint64_t cleaned_before = store->ChunksCleaned();
    store->RunCleanersOnce();
    const uint64_t cleaned = store->ChunksCleaned() - cleaned_before;
    ASSERT_GT(cleaned, 0u);
    EXPECT_EQ(epochs->deferred_pending(), cleaned);
    ExpectScanMatchesFullIteration(store.get(), 0, 300);
  }
  epochs->ReclaimDeferred();
  EXPECT_EQ(epochs->deferred_pending(), 0u);
  ExpectScanMatchesFullIteration(store.get(), 0, 300);
}

// Cleaning passes racing readers: a writer overwrites (and deletes and
// re-puts) keys so chunks keep dying, and adds fresh keys to the key
// tree; a maintenance thread's passes relocate survivors, swing index
// entries and free victims through the epoch manager. Meanwhile ordered
// scans (a one-row scan is the point read that may run beside the
// writer) run under their own pins. Every value read is one some Put
// wrote for its key; every scan is strictly ascending.
TEST(KeyOrder, ConcurrentCleanSmoke) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 48));
  store->SealActiveLogChunks();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t fresh = 1ull << 40;
    for (uint64_t nonce = 1; !stop.load(std::memory_order_relaxed);
         nonce++) {
      for (uint64_t k = nonce % 7; k < kKeys; k += 7) {
        // Odd keys are deleted and put back, so tombstones reach the
        // cleaner's scans too.
        if (k % 2 == 1) store->Delete(k);
        store->Put(k, ValueFor(k, nonce, 48));
      }
      for (int i = 0; i < 16; i++, fresh++) {
        store->Put(fresh, ValueFor(fresh, nonce, 48));
      }
      // Short sealed chunks die and are cleaned; the writer waits while
      // the passes catch up.
      if (nonce % 4 == 0) store->SealActiveLogChunks();
      while (store->allocator()->free_chunks() < 24 &&
             !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  std::atomic<uint64_t> passes{0};
  std::thread maintenance([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      store->RunCleanersOnce();
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // One check round: a point read (a one-row scan, the read that may run
  // beside the writer) of an even key, never deleted, and a 64-row scan.
  auto check = [&](uint64_t k) {
    ScanRows rows;
    EXPECT_EQ(store->Scan(k, 1, &rows), 1u) << k;
    if (rows.size() != 1) return false;
    EXPECT_EQ(rows[0].first, k);
    uint64_t embedded = 0;
    std::memcpy(&embedded, rows[0].second.data(), 8);
    EXPECT_EQ(embedded, k);
    rows.clear();
    store->Scan(k, 64, &rows);
    for (size_t j = 0; j < rows.size(); j++) {
      EXPECT_TRUE(j == 0 || rows[j - 1].first < rows[j].first) << k;
      EXPECT_EQ(rows[j].second.size(), 48u);
      std::memcpy(&embedded, rows[j].second.data(), 8);
      EXPECT_EQ(embedded, rows[j].first);
    }
    return !::testing::Test::HasFailure();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto busy = [&] {
    return (store->ChunksCleaned() < 32 || passes < 32) &&
           std::chrono::steady_clock::now() < deadline;
  };
  for (int i = 0;
       check((static_cast<uint64_t>(i) * 74) % kKeys) && (i < 60 || busy());
       i++) {
  }
  stop.store(true);
  writer.join();
  maintenance.join();
  EXPECT_GE(store->ChunksCleaned(), 32u) << "too few chunks were cleaned";
  ExpectScanMatchesFullIteration(store.get(), 0, 1ull << 20);
  const FsckReport rep = FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
}

// Drain inserts a round's fresh keys into the key tree in the order they
// arrive: random-order MultiPut batches scan exactly like a full
// iteration.
TEST(KeyOrder, RandomOrderBatchesScanLikeFullIteration) {
  std::mt19937_64 rng(5);
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), KeyOrderOptions(1));
  constexpr uint64_t kKeys = 3000;
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) keys[i] = i * 3;
  std::shuffle(keys.begin(), keys.end(), rng);
  constexpr size_t kBatch = 24;
  for (size_t i = 0; i < kKeys; i += kBatch) {
    std::string vals[kBatch];
    WriteOp ops[kBatch];
    OpStatus st[kBatch];
    const size_t b = std::min<size_t>(kBatch, kKeys - i);
    for (size_t j = 0; j < b; j++) {
      vals[j] = ValueFor(keys[i + j], 1, 40);
      ops[j] = {keys[i + j], vals[j].data(),
                static_cast<uint32_t>(vals[j].size()), false};
    }
    ASSERT_EQ(store->MultiPutOnCore(0, ops, b, st), b);
  }
  ExpectScanMatchesFullIteration(store.get(), 0, 3 * kKeys);
  ExpectScanMatchesFullIteration(store.get(), 1000, 500);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
