// Persistent ordered tier (DESIGN.md §11): log-to-tier conversion by the
// cleaners' maintenance pass (called directly or in the background,
// never pinning a dead chunk, never reverting a newer conversion, and
// only with tier_enabled), merged hash-store scans over the key run and
// the new-key buffer, scan equivalence against the full-iteration
// baseline under puts/deletes/GC churn, tombstone handling, the tier's
// DRAM key directory, concurrent scans across conversions and folds, the
// vt cost of a scan, incremental (bounded) recovery that skips tiered
// chunks, and the reclaim of decayed tiered chunks (unlinked nodes,
// their reuse, and the usage and free list a reopen rebuilds).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/fsck.h"
#include "core/flatstore.h"
#include "log/layout.h"
#include "pm/pm_device.h"
#include "tier/tier.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {
namespace {

using ScanRows = std::vector<std::pair<uint64_t, std::string>>;

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, static_cast<char>('a' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  return v;
}

FlatStoreOptions TierOptions(int cores = 2) {
  FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = cores;
  fo.hash_initial_depth = 4;
  fo.tier_enabled = true;
  return fo;
}

std::unique_ptr<pm::PmPool> MakePool(uint64_t mb = 128,
                                     pm::PmDevice* device = nullptr) {
  pm::PmPool::Options o;
  o.size = mb << 20;
  o.device = device;
  return std::make_unique<pm::PmPool>(o);
}

// Keys and values of the merged scan must equal the full-iteration
// baseline's.
void ExpectScanMatchesFullIteration(FlatStore* store, uint64_t start,
                                    uint64_t count) {
  ScanRows merged, full;
  const uint64_t a = store->Scan(start, count, &merged);
  const uint64_t b = store->ScanFullIteration(start, count, &full);
  ASSERT_EQ(a, b) << "start=" << start << " count=" << count;
  ASSERT_EQ(merged, full) << "start=" << start << " count=" << count;
}

// Puts keys [0, keys), seals, writes a few keys far above the range so
// every core's durable tail moves into a fresh chunk (the tail chunk
// never tiers), then runs maintenance passes until nothing is left to
// convert: every key in [0, keys) is then served by the tier alone.
void FillAndTierAll(FlatStore* store, uint64_t keys) {
  for (uint64_t k = 0; k < keys; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 8; k++) {
    store->Put((1ull << 32) + k, ValueFor(k, 1, 40));
  }
  while (store->RunCleanersOnce() > 0) {
  }
}

TEST(Tier, ConvertAndServe) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  for (uint64_t k = 0; k < 512; k++) {
    store->Put(k, ValueFor(k, 1, 40));
  }
  store->SealActiveLogChunks();
  // Advance each core's durable tail into a fresh chunk: the tail chunk
  // itself never tiers (recovery's tail record must stay replayable).
  for (uint64_t k = 512; k < 520; k++) {
    store->Put(k, ValueFor(k, 1, 40));
  }
  store->RunCleanersOnce();
  EXPECT_GT(store->ChunksTiered(), 0u);
  ASSERT_NE(store->tier(), nullptr);
  EXPECT_GT(store->tier()->node_count(), 0u);
  // Point reads still come through the volatile index.
  for (uint64_t k = 0; k < 512; k += 13) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, 1, 40));
  }
  // Range scan over the merged path: ordered, complete, correct bytes.
  ScanRows rows;
  EXPECT_EQ(store->Scan(100, 50, &rows), 50u);
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].first, 100 + i);
    EXPECT_EQ(rows[i].second, ValueFor(100 + i, 1, 40));
  }
}

TEST(Tier, SupersededEntriesNeverResurface) {
  auto pool = MakePool();
  auto opts = TierOptions();
  // The sealed chunk ends under half live: a cap below that makes the
  // pass convert it rather than relocate it.
  opts.gc_live_ratio = 0.3;
  auto store = FlatStore::Create(pool.get(), opts);
  for (uint64_t k = 0; k < 256; k++) {
    store->Put(k, ValueFor(k, 1, 60));
  }
  store->SealActiveLogChunks();
  // Supersede half the keys and delete a few AFTER sealing: the tier
  // conversion must keep only entries the index still points at.
  for (uint64_t k = 0; k < 256; k += 2) {
    store->Put(k, ValueFor(k, 2, 72));
  }
  for (uint64_t k = 1; k < 32; k += 2) {
    ASSERT_TRUE(store->Delete(k));
  }
  store->RunCleanersOnce();
  EXPECT_GT(store->ChunksTiered(), 0u);
  ScanRows rows;
  store->Scan(0, 256, &rows);
  for (const auto& [k, v] : rows) {
    if (k % 2 == 0) {
      EXPECT_EQ(v, ValueFor(k, 2, 72)) << k;
    } else {
      EXPECT_GE(k, 32u) << "deleted key resurfaced in scan";
      EXPECT_EQ(v, ValueFor(k, 1, 60)) << k;
    }
  }
}

// The acceptance check: the merged volatile+tier scan must be
// byte-identical to the full volatile-index iteration at every quiesced
// point of a put/delete/GC/tiering churn schedule.
TEST(Tier, ScanEquivalentToFullIterationUnderChurn) {
  auto pool = MakePool(256);
  auto opts = TierOptions();
  opts.gc_live_ratio = 0.9;
  auto store = FlatStore::Create(pool.get(), opts);
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
  EXPECT_GT(store->ChunksTiered(), 0u);

  // Dense runs of tombstones with a live key every 50th: one on keys the
  // key run holds, one on fresh keys that sit in the new-key buffer. A
  // 100-key scan from a run's start resolves several windows of
  // tombstones before it can emit enough pairs, and a buffer window holds
  // at most kMaxReadBatch keys, so over the fresh keys it also gathers
  // the buffer again and again. Sweeping the start key moves the window
  // bounds across tombstones and live keys alike.
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
    // Second pass: the fresh keys folded into the run, and the
    // tombstones converted into tier nodes.
    store->SealActiveLogChunks();
    while (store->RunCleanersOnce() > 0) {
    }
  }
}

// Stores whose keys sit on one side of the merge only: every key in the
// key run (a fully tiered store, folded by its passes), or every key still
// in the new-key buffer (no pass ever ran).
TEST(Tier, ScanEquivalentOnSingleSourceStores) {
  constexpr uint64_t kKeys = 1024;
  static_assert(kKeys < kKeyBufferCap, "the buffer must not fold");
  auto run_pool = MakePool();
  auto run_only = FlatStore::Create(run_pool.get(), TierOptions());
  FillAndTierAll(run_only.get(), kKeys);
  auto buffer_pool = MakePool();
  auto buffer_only = FlatStore::Create(buffer_pool.get(), TierOptions());
  for (uint64_t k = 0; k < kKeys; k++) {
    buffer_only->Put(k, ValueFor(k, 1, 40));
  }
  for (FlatStore* store : {run_only.get(), buffer_only.get()}) {
    ExpectScanMatchesFullIteration(store, 0, kKeys);
    ExpectScanMatchesFullIteration(store, 0, 3 * kKeys);
    ExpectScanMatchesFullIteration(store, 511, 100);
    ExpectScanMatchesFullIteration(store, kKeys - 1, 5);
    ExpectScanMatchesFullIteration(store, kKeys, 5);
    ExpectScanMatchesFullIteration(store, UINT64_MAX, 5);
  }
}

// DRAM lines a scan charges for its key order when the buffer is empty
// and the run holds n keys, the first start + items of them 0, 1, 2, ...
// and the rest larger: the seek of key `start` (a binary search while
// more than a line's worth of keys remains, then a scan of the rest) and
// the walk over `items` keys, a line counted when the cursor moves onto
// it.
uint64_t RunLines(uint64_t n, uint64_t start, uint64_t items) {
  constexpr uint64_t kPerLine = 8;
  std::vector<uint64_t> read;  // run positions, in the order read
  uint64_t lo = 0, len = n;
  while (len > kPerLine) {
    const uint64_t half = len / 2;
    read.push_back(lo + half);
    if (lo + half < start) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  for (; len > 0; lo++, len--) {
    read.push_back(lo);
    if (lo >= start) break;
  }
  for (uint64_t i = start; i < start + items; i++) read.push_back(i);
  uint64_t lines = 0, line = UINT64_MAX;
  for (uint64_t i : read) {
    if (i / kPerLine != line) lines++;
    line = i / kPerLine;
  }
  return lines;
}

// Scans take their key order from the store, not from the tier: a 100-key
// scan of a fully tiered store charges exactly the vt and the PM reads of
// a never-tiered twin whose maintenance pass only folded its new-key
// buffer into its run. The key order's share is exactly the run lines
// the scan reads. The run is homed on socket 0, so the same scan from a
// socket-1 clock pays the remote-load surcharge on those lines and on
// nothing else (single-socket pool: the index and the PM are
// socket-agnostic).
TEST(Tier, ScanCostIsTheSameTieredOrNot) {
  constexpr uint64_t kKeys = 1024, kStart = 200, kItems = 100;
  auto tier_pool = MakePool();
  auto tiered = FlatStore::Create(tier_pool.get(), TierOptions());
  FillAndTierAll(tiered.get(), kKeys);
  ASSERT_GE(tiered->tier()->node_count(), kKeys);
  auto twin_pool = MakePool();
  auto twin = FlatStore::Create(twin_pool.get(), TierOptions());
  // FillAndTierAll's writes without its seal: nothing can convert.
  for (uint64_t k = 0; k < kKeys; k++) twin->Put(k, ValueFor(k, 1, 40));
  for (uint64_t k = 0; k < 8; k++) {
    twin->Put((1ull << 32) + k, ValueFor(k, 1, 40));
  }
  twin->RunCleanersOnce();
  ASSERT_EQ(twin->ChunksTiered(), 0u);

  auto scan = [&](FlatStore* store, pm::PmPool* pool, int socket,
                  ScanRows* rows, pm::PmStats::Snapshot* reads) {
    vt::Clock clock;
    clock.set_socket(socket);
    vt::ScopedClock bind(&clock);
    const pm::PmStats::Snapshot before = pool->stats().Get();
    EXPECT_EQ(store->Scan(kStart, kItems, rows), kItems);
    *reads = pm::Delta(before, pool->stats().Get());
    return clock.now();
  };
  ScanRows tier_rows, twin_rows, remote_rows;
  pm::PmStats::Snapshot tier_io, twin_io, remote_io;
  const uint64_t tier_ns =
      scan(tiered.get(), tier_pool.get(), 0, &tier_rows, &tier_io);
  const uint64_t twin_ns =
      scan(twin.get(), twin_pool.get(), 0, &twin_rows, &twin_io);
  EXPECT_EQ(tier_rows, twin_rows);
  EXPECT_EQ(tier_ns, twin_ns);
  EXPECT_EQ(twin_io.reads, kItems);  // one entry header per key
  EXPECT_EQ(tier_io.reads, twin_io.reads);
  EXPECT_EQ(tier_io.read_lines, twin_io.read_lines);

  const uint64_t remote_ns =
      scan(twin.get(), twin_pool.get(), 1, &remote_rows, &remote_io);
  EXPECT_EQ(remote_rows, twin_rows);
  EXPECT_EQ(remote_io.read_lines, twin_io.read_lines);
  const uint64_t lines = RunLines(kKeys + 8, kStart, kItems);
  EXPECT_EQ(remote_ns - twin_ns, lines * vt::kRemoteSocketLoadPenalty)
      << lines << " run lines";
}

// The tier's keys in L0 order, read straight from PM.
std::vector<std::pair<uint64_t, uint64_t>> ReadL0Nodes(
    const pm::PmPool& pool, const tier::PersistentTier& t) {
  const auto* root = pool.PtrAt<tier::TierRoot>(
      t.root_off() + alloc::kChunkHeaderSize + sizeof(tier::ArenaHeader));
  std::vector<std::pair<uint64_t, uint64_t>> nodes;  // {key, packed}
  for (uint64_t off = root->head0; off != 0;) {
    const auto* n = pool.PtrAt<tier::TierNode>(off);
    nodes.emplace_back(n->key, n->packed);
    off = n->next0;
  }
  return nodes;
}

// The directory is soft state: Get must find exactly the keys a linear
// L0 walk finds, with their `packed` words, and ForEach must walk them
// in L0 order, on one- and two-socket pools, both as InsertBatch merges
// interleaved rounds and as a reopen rebuilds it from L0. The directory
// costs 16 bytes per node.
TEST(Tier, DirectorySeekMatchesLinearWalk) {
  for (int sockets : {1, 2}) {
    SCOPED_TRACE("sockets=" + std::to_string(sockets));
    pm::PmPool::Options po;
    po.size = 256ull << 20;
    po.num_sockets = sockets;
    auto pool = std::make_unique<pm::PmPool>(po);
    const FlatStoreOptions opts = TierOptions(4);
    auto check = [&](FlatStore* store) {
      const tier::PersistentTier& t = *store->tier();
      const auto nodes = ReadL0Nodes(*pool, t);
      ASSERT_GT(nodes.size(), 4000u);
      ASSERT_EQ(t.node_count(), nodes.size());
      EXPECT_EQ(t.directory_bytes(), 16 * nodes.size());
      std::vector<uint64_t> keys;
      for (const auto& [k, p] : nodes) keys.push_back(k);
      std::mt19937_64 rng(static_cast<uint64_t>(sockets));
      for (int i = 0; i < 2000; i++) {
        uint64_t target = rng() % (keys[keys.size() - 9] + 16);
        if (i == 0) target = 0;
        if (i == 1) target = UINT64_MAX;
        const auto it = std::lower_bound(keys.begin(), keys.end(), target);
        uint64_t packed = 0;
        const bool hit = it != keys.end() && *it == target;
        ASSERT_EQ(t.Get(target, &packed), hit) << target;
        if (hit) {
          EXPECT_EQ(packed, nodes[it - keys.begin()].second);
        }
      }
      // Every node's own key.
      for (size_t j = 0; j < nodes.size(); j++) {
        uint64_t packed = 0;
        ASSERT_TRUE(t.Get(keys[j], &packed)) << keys[j];
        ASSERT_EQ(packed, nodes[j].second);
      }
      size_t i = 0;
      t.ForEach([&](uint64_t k, uint64_t p) {
        ASSERT_LT(i, nodes.size());
        EXPECT_EQ(std::make_pair(k, p), nodes[i++]);
      });
      EXPECT_EQ(i, nodes.size());
      const core::FsckReport rep = core::FsckPool(*pool);
      EXPECT_TRUE(rep.ok) << rep.Summary();
    };
    {
      auto store = FlatStore::Create(pool.get(), opts);
      // Four tiering rounds whose keys interleave, so each merge links
      // new nodes between the earlier rounds' nodes.
      for (uint64_t round = 0; round < 4; round++) {
        for (uint64_t k = 0; k < 1500; k++) {
          store->Put(3 * (4 * k + round), ValueFor(k, round, 40));
        }
        store->SealActiveLogChunks();
        for (uint64_t k = 0; k < 8; k++) {
          store->Put((1ull << 32) + 8 * round + k, ValueFor(k, round, 40));
        }
        while (store->RunCleanersOnce() > 0) {
        }
      }
      check(store.get());
    }
    // Dropped without Shutdown: the reopen rebuilds the directory from L0.
    auto store = FlatStore::Open(pool.get(), opts);
    check(store.get());
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

// Scans racing live writers — and a maintenance pass that links new L0
// nodes, publishes directory snapshots and folds the new-key buffer under
// them — must stay well-formed: strictly ascending keys, no crashes,
// every returned value a version some Put wrote. No key is ever deleted,
// so every scan returns exactly min(120, kKeys - start) rows.
TEST(Tier, ConcurrentScanSmoke) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k += 2) {
    store->Put(k, ValueFor(k, 0, 48));
  }
  store->SealActiveLogChunks();
  store->RunCleanersOnce();
  // The odd keys sit in pre-sealed chunks that the concurrent pass
  // converts while the scans below run.
  for (uint64_t k = 1; k < kKeys; k += 2) {
    store->Put(k, ValueFor(k, 0, 48));
  }
  store->SealActiveLogChunks();
  const uint64_t tiered_before = store->ChunksTiered();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t nonce = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t k = 0; k < kKeys; k += 5) {
        store->Put(k, ValueFor(k, nonce, 48));
      }
      nonce++;
    }
  });
  // The pass starts once scans are running, and scans go on until it ends.
  std::atomic<bool> scanning{false}, tiered{false};
  std::thread tiering([&] {
    while (!scanning.load()) std::this_thread::yield();
    store->RunCleanersOnce();
    tiered.store(true);
  });
  scanning.store(true);
  bool ok = true;
  for (int i = 0; ok && (i < 50 || !tiered.load()); i++) {
    ok = ScanWellFormed(store.get(), kKeys,
                        (static_cast<uint64_t>(i) * 37) % kKeys);
  }
  tiering.join();
  stop.store(true);
  writer.join();
  EXPECT_GT(store->ChunksTiered(), tiered_before);
}

// The background flow: with StartCleaners(), the cleaner threads' own
// maintenance passes convert chunks into the tier while a writer and
// scans run — no explicit pass is ever called. Scans stay complete and
// strictly ascending throughout, as in ConcurrentScanSmoke.
TEST(Tier, ConcurrentScanWithBackgroundTiering) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 48));
  store->SealActiveLogChunks();
  store->StartCleaners();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Its first writes move every core's durable tail past the sealed
    // chunks, which makes them eligible for conversion.
    uint64_t nonce = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t k = 0; k < kKeys; k += 5) {
        store->Put(k, ValueFor(k, nonce, 48));
      }
      nonce++;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool ok = true;
  for (int i = 0; ok && (i < 50 || (store->ChunksTiered() == 0 &&
                                    std::chrono::steady_clock::now() <
                                        deadline));
       i++) {
    ok = ScanWellFormed(store.get(), kKeys,
                        (static_cast<uint64_t>(i) * 37) % kKeys);
  }
  stop.store(true);
  writer.join();
  store->StopCleaners();
  EXPECT_GT(store->ChunksTiered(), 0u)
      << "background cleaners never converted a chunk";
  ExpectScanMatchesFullIteration(store.get(), 0, kKeys);
}

// Scans racing a writer that inserts fresh keys, so that the new-key
// buffer fills and folds into a fresh run again and again, stay exact.
// In each round the writer writes a batch of keys above the earlier
// batches, where they sit in the buffer, then a buffer's worth of fresh
// keys far above every batch, which folds it at least once; the scans
// of the batch meanwhile see it move from the buffer into a new run
// between two of their gathers. Each scan returns exactly the
// min(120, batch keys >= start) keys of the batch from its start.
// Maintenance passes meanwhile fold the buffer while the writer adds
// keys to it, and in the end a scan of the whole store still finds
// every key.
TEST(Tier, ConcurrentScanAcrossFolds) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1024, kRounds = 8;
  static_assert(kKeys < kKeyBufferCap, "a batch must fit in the buffer");
  // Rounds whose batch is written, whose fresh keys are written, and
  // whose scans are done.
  std::atomic<uint64_t> batched{0}, folded{0}, scanned{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t fresh = 1ull << 40;
    for (uint64_t r = 0; r < kRounds && !stop.load(); r++) {
      for (uint64_t k = r * kKeys; k < (r + 1) * kKeys; k++) {
        store->Put(k, ValueFor(k, 0, 48));
      }
      batched.store(r + 1);
      for (uint64_t i = 0; i < kKeyBufferCap && !stop.load(); i++, fresh++) {
        store->Put(fresh, ValueFor(fresh, 0, 48));
      }
      folded.store(r + 1);
      while (scanned.load() <= r && !stop.load()) std::this_thread::yield();
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
    for (int i = 0; ok && (i < 20 || folded.load() <= r); i++) {
      // Fresh keys lie above the batch, so a scan asks for no more rows
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
  ExpectScanMatchesFullIteration(store.get(), 0,
                                 kRounds * (kKeys + kKeyBufferCap));
}

// A reader pinned before a maintenance pass keeps the key run and the
// directory snapshot it loaded: the pass frees neither at once, but
// defers the free of each directory snapshot it retires (one per
// converted chunk) and of the run its fold retires. Conversion touches
// no key order, so nothing else is deferred.
TEST(Tier, PinnedReaderDefersRunAndSnapshotFrees) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  FillAndTierAll(store.get(), 128);
  // Fresh keys: in the buffer until the pass below folds them.
  for (uint64_t k = 128; k < 256; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 8; k++) {
    store->Put((1ull << 33) + k, ValueFor(k, 1, 40));
  }
  common::EpochManager* epochs = store->epochs();
  epochs->DrainDeferred();
  ASSERT_EQ(epochs->deferred_pending(), 0u);
  {
    common::EpochManager::GuestGuard pin(epochs);
    const uint64_t old_nodes = store->tier()->node_count();
    const uint64_t tiered_before = store->ChunksTiered();
    store->RunCleanersOnce();
    const uint64_t converted = store->ChunksTiered() - tiered_before;
    ASSERT_GT(converted, 0u);
    ASSERT_GT(store->tier()->node_count(), old_nodes);
    EXPECT_EQ(epochs->deferred_pending(), converted + 1);
    ExpectScanMatchesFullIteration(store.get(), 0, 300);
  }
  epochs->ReclaimDeferred();
  EXPECT_EQ(epochs->deferred_pending(), 0u);
  ExpectScanMatchesFullIteration(store.get(), 0, 300);
}

TEST(Tier, RecoverySkipsTieredChunksAndKeepsData) {
  auto pool = MakePool();
  {
    auto store = FlatStore::Create(pool.get(), TierOptions());
    for (uint64_t k = 0; k < 600; k++) {
      store->Put(k, ValueFor(k, 3, 44));
    }
    store->SealActiveLogChunks();
    for (uint64_t k = 0; k < 64; k++) {
      store->Put(k, ValueFor(k, 4, 52));  // un-tiered suffix
    }
    store->RunCleanersOnce();
    ASSERT_GT(store->ChunksTiered(), 0u);
    // No Shutdown(): simulate a crash so Open takes the replay path.
  }
  core::FsckReport rep = core::FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
  EXPECT_GT(rep.tiered_chunks, 0u);
  EXPECT_GT(rep.tier_nodes, 0u);
  auto store = FlatStore::Open(pool.get(), TierOptions());
  const auto& rs = store->recovery_stats();
  EXPECT_GT(rs.tier_nodes_loaded, 0u);
  EXPECT_GT(rs.chunks_skipped_tiered, 0u);
  for (uint64_t k = 0; k < 600; k++) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, k < 64 ? 4 : 3, k < 64 ? 52 : 44)) << k;
  }
  // The merged scan works right after recovery (key run rebuilt).
  ScanRows rows, full;
  ASSERT_EQ(store->Scan(0, 600, &rows),
            store->ScanFullIteration(0, 600, &full));
  EXPECT_EQ(rows, full);
}

TEST(Tier, TieredTombstoneStaysDeadAcrossReopen) {
  auto pool = MakePool();
  {
    auto store = FlatStore::Create(pool.get(), TierOptions());
    for (uint64_t k = 0; k < 128; k++) {
      store->Put(k, ValueFor(k, 5, 40));
    }
    ASSERT_TRUE(store->Delete(7));
    ASSERT_TRUE(store->Delete(11));
    store->SealActiveLogChunks();
    for (uint64_t k = 200; k < 208; k++) {
      store->Put(k, ValueFor(k, 5, 40));  // advance tails past the seal
    }
    store->RunCleanersOnce();
    ASSERT_GT(store->ChunksTiered(), 0u);
    std::string v;
    EXPECT_FALSE(store->Get(7, &v));
  }
  auto store = FlatStore::Open(pool.get(), TierOptions());
  std::string v;
  EXPECT_FALSE(store->Get(7, &v));
  EXPECT_FALSE(store->Get(11, &v));
  ASSERT_TRUE(store->Get(8, &v));
  EXPECT_EQ(v, ValueFor(8, 5, 40));
  ScanRows rows;
  store->Scan(0, 128, &rows);
  for (const auto& [k, val] : rows) {
    EXPECT_NE(k, 7u);
    EXPECT_NE(k, 11u);
  }
}

TEST(Tier, RepeatedConversionAcrossReopens) {
  auto pool = MakePool(256);
  for (int gen = 0; gen < 3; gen++) {
    auto store = gen == 0 ? FlatStore::Create(pool.get(), TierOptions())
                          : FlatStore::Open(pool.get(), TierOptions());
    for (uint64_t k = 0; k < 400; k++) {
      store->Put(k + static_cast<uint64_t>(gen) * 1000,
                 ValueFor(k, static_cast<uint64_t>(gen), 46));
    }
    store->SealActiveLogChunks();
    store->RunCleanersOnce();
  }
  auto store = FlatStore::Open(pool.get(), TierOptions());
  for (int gen = 0; gen < 3; gen++) {
    for (uint64_t k = 0; k < 400; k += 11) {
      std::string v;
      const uint64_t key = k + static_cast<uint64_t>(gen) * 1000;
      ASSERT_TRUE(store->Get(key, &v)) << key;
      EXPECT_EQ(v, ValueFor(k, static_cast<uint64_t>(gen), 46));
    }
  }
  ScanRows rows, full;
  ASSERT_EQ(store->Scan(0, 1200, &rows),
            store->ScanFullIteration(0, 1200, &full));
  EXPECT_EQ(rows, full);
}

// A convert victim whose entries all die between its pick and its scan
// is freed like a relocation victim, not pinned in the tier with no
// nodes. A tiny budget parks the second of two convert jobs before its
// first scan slice; its keys are then overwritten.
TEST(Tier, ConvertVictimThatDiesBeforeItsScanIsFreed) {
  auto pool = MakePool();
  auto opts = TierOptions(1);
  opts.gc_quantum_bytes = 4096;
  auto store = FlatStore::Create(pool.get(), opts);
  for (uint64_t k = 0; k < 200; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 1000; k < 1200; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  store->Put(1u << 20, ValueFor(0, 1, 40));  // the tail leaves both chunks
  const auto sealed = store->LogForCore(0)->UsageSnapshot();
  ASSERT_EQ(sealed.size(), 3u);
  const uint64_t doomed = std::next(sealed.begin())->first;

  store->RunCleanersOnce();  // both picked to convert; the budget ends
  ASSERT_EQ(store->ChunksTiered(), 0u);  // inside the first one's scan
  for (uint64_t k = 1000; k < 1200; k++) store->Put(k, ValueFor(k, 2, 40));
  // A bounded pass that finishes no job returns 0, so run a fixed count.
  for (int pass = 0; pass < 32; pass++) store->RunCleanersOnce();
  EXPECT_EQ(store->ChunksTiered(), 1u);
  EXPECT_EQ(store->ChunksCleaned(), 1u);
  EXPECT_EQ(store->LogForCore(0)->UsageSnapshot().count(doomed), 0u);
  std::string v;
  for (uint64_t k = 1000; k < 1200; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, 2, 40));
  }
  const core::FsckReport rep = core::FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
}

// With the tier on, a cold-lane chunk that decays below
// kTierMinLiveRatio is relocated like any other victim (a dead one is
// simply freed), never held for a conversion that will not take it.
// Every survivor goes to the cold lane (gc_cold_age = 0), and three
// quarters of the keys are overwritten between passes, so cold chunks
// keep dying; no sealed cold-lane chunk with no live bytes may outlive a
// pass.
TEST(Tier, DeadColdLaneChunksDoNotOutliveAPass) {
  auto pool = MakePool(256);
  auto opts = TierOptions();
  opts.gc_cold_age = 0;
  auto store = FlatStore::Create(pool.get(), opts);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 120));
  std::mt19937_64 rng(7);
  uint64_t cold_seen = 0;
  for (uint64_t round = 1; round <= 12; round++) {
    for (uint64_t k = 0; k < kKeys; k++) {
      if (rng() % 4 != 0) store->Put(k, ValueFor(k, round, 120));
    }
    store->SealActiveLogChunks();
    store->RunCleanersOnce();
    for (int c = 0; c < opts.num_cores; c++) {
      for (const auto& [off, u] : store->LogForCore(c)->UsageSnapshot()) {
        if (!u.sealed || !u.cleaner || u.temp != log::Temp::kCold) continue;
        cold_seen++;
        EXPECT_GT(u.live_bytes, 0u)
            << "round " << round << ": dead cold-lane chunk " << off;
      }
    }
  }
  EXPECT_GT(cold_seen, 0u) << "the scenario never built a cold-lane chunk";
  std::string v;
  for (uint64_t k = 0; k < kKeys; k += 97) ASSERT_TRUE(store->Get(k, &v));
}

// A convert job parked mid-scan must not undo a newer conversion of a
// key it scanned. The budget parks the long chunk A after its first
// slices, which already hold key 0; key 0 is then overwritten into a
// short chunk C, which is picked to convert later but finishes first.
// When A converts, key 0's tier node must stay on C: recovery skips
// both tiered chunks and serves key 0 from its node.
TEST(Tier, ParkedConvertJobDoesNotRevertANewerConversion) {
  auto pool = MakePool();
  auto opts = TierOptions(1);
  opts.gc_quantum_bytes = 320 << 10;
  {
    auto store = FlatStore::Create(pool.get(), opts);
    constexpr uint64_t kKeys = 16000;
    for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 1, 100));
    store->SealActiveLogChunks();
    const auto sealed = store->LogForCore(0)->UsageSnapshot();
    ASSERT_EQ(sealed.size(), 1u);
    // A must outlast several bounded passes.
    ASSERT_GT(store->LogForCore(0)->CommittedBytes(sealed.begin()->first),
              4 * opts.gc_quantum_bytes);
    store->Put(1u << 20, ValueFor(0, 1, 40));  // the tail leaves A

    store->RunCleanersOnce();  // A picked to convert; parks mid-scan
    ASSERT_EQ(store->ChunksTiered(), 0u);
    store->Put(0, ValueFor(0, 2, 100));  // k=0@v2 joins the tail's chunk C
    store->SealActiveLogChunks();
    store->Put((1u << 20) + 1, ValueFor(0, 1, 40));  // the tail leaves C
    // C converts on the next passes while A is still scanning.
    store->RunCleanersOnce();
    store->RunCleanersOnce();
    ASSERT_EQ(store->ChunksTiered(), 1u);
    for (int pass = 0; pass < 32; pass++) store->RunCleanersOnce();
    ASSERT_EQ(store->ChunksTiered(), 2u);
    std::string v;
    ASSERT_TRUE(store->Get(0, &v));
    EXPECT_EQ(v, ValueFor(0, 2, 100));
    // No Shutdown(): simulate a crash so Open takes the replay path.
  }
  auto store = FlatStore::Open(pool.get(), opts);
  EXPECT_GT(store->recovery_stats().chunks_skipped_tiered, 1u);
  std::string v;
  ASSERT_TRUE(store->Get(0, &v));
  EXPECT_EQ(v, ValueFor(0, 2, 100));
  for (uint64_t k = 1; k < 16000; k += 97) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, 1, 100)) << k;
  }
}

// Only tier_enabled converts. A store reopened without it over a pool
// that holds a tier keeps honouring the tier but only relocates: it
// starts no conversion of its own.
TEST(Tier, OptedOutStoreOverATieredPoolOnlyRelocates) {
  auto pool = MakePool();
  {
    auto store = FlatStore::Create(pool.get(), TierOptions());
    FillAndTierAll(store.get(), 400);
    ASSERT_GT(store->ChunksTiered(), 0u);
    store->Shutdown();
  }
  auto opts = TierOptions();
  opts.tier_enabled = false;
  auto store = FlatStore::Open(pool.get(), opts);
  ASSERT_NE(store->tier(), nullptr);
  for (uint64_t k = 1000; k < 3000; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 1000; k < 3000; k += 2) store->Put(k, ValueFor(k, 2, 40));
  store->SealActiveLogChunks();
  store->Put(1u << 20, ValueFor(0, 1, 40));
  store->RunCleanersOnce();
  EXPECT_EQ(store->ChunksTiered(), 0u);
  EXPECT_GT(store->ChunksCleaned(), 0u);
  std::string v;
  for (uint64_t k = 0; k < 400; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, 1, 40));
  }
  for (uint64_t k = 1000; k < 3000; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, k % 2 == 0 ? 2 : 1, 40));
  }
}

// NoteNewKeys takes a Drain round's fresh keys in any order, sorts them
// and merges them into the new-key buffer in one backward pass
// (MergeNewKeys). Rounds of random keys, some already buffered, keep the
// buffer sorted and duplicate-free, and a buffered key moves only when a
// new key lands below it. End to end, random-order MultiPut batches into
// a store whose buffer never folds scan exactly like a full iteration.
TEST(KeyBuffer, RandomArrivalsStaySortedAndDuplicateFree) {
  std::mt19937_64 rng(5);
  std::vector<uint64_t> buf(kKeyBufferCap);
  std::set<uint64_t> want;
  size_t n = 0;
  while (n + 32 <= kKeyBufferCap) {
    std::set<uint64_t> fresh;
    const size_t m = 1 + rng() % 32;
    while (fresh.size() < m) fresh.insert(rng() % 16384);
    std::vector<uint64_t> round(fresh.begin(), fresh.end());
    uint64_t lowest_new = UINT64_MAX;
    for (uint64_t k : round) {
      if (want.count(k) == 0) lowest_new = std::min(lowest_new, k);
    }
    const size_t shifted =
        lowest_new == UINT64_MAX
            ? 0
            : static_cast<size_t>(
                  std::distance(want.upper_bound(lowest_new), want.end()));
    size_t moved = 0;
    n = MergeNewKeys(buf.data(), n, round.data(), round.size(), &moved);
    want.insert(fresh.begin(), fresh.end());
    ASSERT_EQ(n, want.size());
    ASSERT_TRUE(std::equal(want.begin(), want.end(), buf.begin()));
    ASSERT_EQ(moved, shifted);
  }

  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions(1));
  constexpr uint64_t kKeys = 3000;
  static_assert(kKeys < kKeyBufferCap, "the buffer must not fold");
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

// The tiered chunks of core `core`, by offset.
std::map<uint64_t, log::ChunkUsage> TieredChunks(FlatStore* store,
                                                 int core) {
  std::map<uint64_t, log::ChunkUsage> out;
  for (const auto& [off, u] : store->LogForCore(core)->UsageSnapshot()) {
    if (u.tiered) out[off] = u;
  }
  return out;
}

// Arena node slots in use: every slot below each arena chunk's `used`
// mark, the root block aside, is either on L0 or on the free list.
uint64_t ArenaSlots(FlatStore* store, const pm::PmPool& pool) {
  uint64_t slots = 0;
  const uint64_t root = store->tier()->root_off();
  store->tier()->ForEachArenaChunk([&](uint64_t chunk) {
    const auto* hdr = const_cast<pm::PmPool&>(pool).PtrAt<tier::ArenaHeader>(
        chunk + alloc::kChunkHeaderSize);
    const uint64_t used =
        hdr->used - (chunk == root ? sizeof(tier::TierRoot) : 0);
    slots += used / sizeof(tier::TierNode);
  });
  return slots;
}

// A tiered chunk whose entries start dying is relocated like any other
// victim: its survivors return to the log, every node naming it leaves
// L0 (a survivor's and a superseded key's alike), and it is freed. A
// reader pinned across the pass holds back both the chunk and the
// unlinked nodes; afterwards the nodes wait on the free list, the next
// conversion reuses them instead of growing the arena, and a reopen
// rebuilds the same free list from the arena minus L0.
TEST(Tier, DecayedTieredChunkIsReclaimedAndItsNodesReused) {
  auto pool = MakePool();
  constexpr uint64_t kKeys = 300;
  uint64_t free_before_crash = 0, nodes_before_crash = 0;
  {
    auto store = FlatStore::Create(pool.get(), TierOptions(1));
    FillAndTierAll(store.get(), kKeys);
    const auto tiered = TieredChunks(store.get(), 0);
    ASSERT_EQ(tiered.size(), 1u);
    const uint64_t victim = tiered.begin()->first;
    ASSERT_EQ(store->tier()->node_count(), kKeys);
    ASSERT_EQ(store->tier()->free_nodes(), 0u);
    const uint64_t slots = ArenaSlots(store.get(), *pool);
    // Keys 0 and 150 survive in the victim; the rest move to the serving
    // chunk, which stays active, so the pass below reclaims the victim
    // and converts nothing.
    for (uint64_t k = 1; k < kKeys; k++) {
      if (k != 150) store->Put(k, ValueFor(k, 2, 40));
    }
    {
      common::EpochManager::GuestGuard pin(store->epochs());
      store->RunCleanersOnce();
      EXPECT_EQ(store->tier()->node_count(), 0u);
      EXPECT_EQ(store->tier()->free_nodes(), 0u) << "reused under a reader";
      const auto usage = store->LogForCore(0)->UsageSnapshot();
      ASSERT_EQ(usage.count(victim), 1u) << "freed under a reader";
      EXPECT_TRUE(usage.at(victim).retired);
    }
    store->epochs()->ReclaimDeferred();
    EXPECT_EQ(store->tier()->free_nodes(), kKeys);
    EXPECT_EQ(store->LogForCore(0)->UsageSnapshot().count(victim), 0u);
    int owner;
    uint32_t seq;
    EXPECT_FALSE(store->root()->ChunkInfo(victim, &owner, &seq));
    std::string v;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &v)) << k;
      EXPECT_EQ(v, ValueFor(k, k == 0 || k == 150 ? 1 : 2, 40)) << k;
    }
    const FsckReport mid = FsckPool(*pool);
    EXPECT_TRUE(mid.ok) << mid.Summary();

    // The overwrites (and FillAndTierAll's 8 far keys) convert next: the
    // new nodes take every freed slot before the arena grows.
    store->SealActiveLogChunks();
    store->Put(1ull << 33, ValueFor(0, 1, 40));
    while (store->RunCleanersOnce() > 0) {
    }
    EXPECT_EQ(store->tier()->node_count(), kKeys + 8);
    EXPECT_EQ(store->tier()->free_nodes(), 0u);
    EXPECT_EQ(ArenaSlots(store.get(), *pool), slots + 8);
    free_before_crash = store->tier()->free_nodes();
    nodes_before_crash = store->tier()->node_count();
    // No Shutdown(): the reopen takes the crash-recovery path.
  }
  const FsckReport rep = FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
  auto store = FlatStore::Open(pool.get(), TierOptions(1));
  EXPECT_EQ(store->tier()->node_count(), nodes_before_crash);
  EXPECT_EQ(store->tier()->free_nodes(), free_before_crash);
  std::string v;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, k == 0 || k == 150 ? 1 : 2, 40)) << k;
  }
}

// Recovery rebuilds a tiered chunk's usage from its nodes: the live
// counters from the nodes that win the duel (matching what NoteDead
// counted before the crash), the total from every node naming it, and
// the whole chunk as its byte total. A chunk with stale nodes has lost
// entries since its conversion, so the first pass after the reopen
// reclaims it.
TEST(Tier, ReopenRebuildsTieredChunkUsage) {
  auto pool = MakePool();
  constexpr uint64_t kKeys = 200;
  log::ChunkUsage before;
  uint64_t victim = 0;
  {
    auto store = FlatStore::Create(pool.get(), TierOptions(1));
    FillAndTierAll(store.get(), kKeys);
    for (uint64_t k = 0; k < kKeys; k += 4) {
      store->Put(k, ValueFor(k, 2, 40));
    }
    const auto tiered = TieredChunks(store.get(), 0);
    ASSERT_EQ(tiered.size(), 1u);
    victim = tiered.begin()->first;
    before = tiered.begin()->second;
    EXPECT_EQ(before.total, kKeys);
    EXPECT_EQ(before.live, kKeys - kKeys / 4);
    EXPECT_EQ(before.total_bytes, log::kLogDataBytes);
  }
  auto store = FlatStore::Open(pool.get(), TierOptions(1));
  const auto tiered = TieredChunks(store.get(), 0);
  ASSERT_EQ(tiered.count(victim), 1u);
  const log::ChunkUsage& after = tiered.at(victim);
  EXPECT_EQ(after.live, before.live);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.total, kKeys);
  EXPECT_EQ(after.total_bytes, log::kLogDataBytes);
  EXPECT_TRUE(after.sealed);
  store->RunCleanersOnce();
  EXPECT_EQ(TieredChunks(store.get(), 0).count(victim), 0u);
  std::string v;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, k % 4 == 0 ? 2 : 1, 40)) << k;
  }
}

// A crash between a conversion's node links and its kChunkTiered commit
// leaves nodes naming an un-tiered chunk, which the log still replays.
// fsck warns (it cannot tell the window from a bug that a reopen would
// fix); Open unlinks the nodes, so the chunk can later be freed without
// leaving a node naming it, and frees them for reuse.
TEST(Tier, OpenUnlinksNodesOfAnInterruptedConversion) {
  auto pool = MakePool();
  constexpr uint64_t kKeys = 120;
  {
    auto store = FlatStore::Create(pool.get(), TierOptions(1));
    FillAndTierAll(store.get(), kKeys);
    const auto tiered = TieredChunks(store.get(), 0);
    ASSERT_EQ(tiered.size(), 1u);
    // Undo the commit point, as if the crash had come just before it.
    log::ChunkRecord* rec =
        &store->root()->registry()[tiered.begin()->second.registry_slot];
    rec->chunk_off &= ~log::kChunkTiered;
    pool->PersistFence(&rec->chunk_off, sizeof(uint64_t));
  }
  const FsckReport before = FsckPool(*pool);
  EXPECT_TRUE(before.ok) << before.Summary();
  EXPECT_GT(before.issues.size(), 0u) << "no warning for the window";
  {
    auto store = FlatStore::Open(pool.get(), TierOptions(1));
    EXPECT_EQ(store->tier()->node_count(), 0u);
    EXPECT_EQ(store->tier()->free_nodes(), kKeys);
    EXPECT_EQ(TieredChunks(store.get(), 0).size(), 0u);
    std::string v;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &v)) << k;
      EXPECT_EQ(v, ValueFor(k, 1, 40)) << k;
    }
  }
  const FsckReport after = FsckPool(*pool);
  EXPECT_TRUE(after.ok) << after.Summary();
  EXPECT_EQ(after.issues.size(), 0u) << after.issues[0].what;
}

// fsck's guard on the reclaimer: a node naming a chunk that is no longer
// registered (freed without its nodes unlinked) is fatal, since the
// chunk's next contents would decode in its place. The summary reports
// the tier's live bytes and the dead bytes it pins.
TEST(Tier, FsckFlagsANodeNamingAFreedChunk) {
  auto pool = MakePool();
  uint64_t slot = 0;
  {
    auto store = FlatStore::Create(pool.get(), TierOptions(1));
    FillAndTierAll(store.get(), 64);
    const auto tiered = TieredChunks(store.get(), 0);
    ASSERT_EQ(tiered.size(), 1u);
    slot = tiered.begin()->second.registry_slot;
    store->Shutdown();
  }
  const FsckReport good = FsckPool(*pool);
  EXPECT_TRUE(good.ok) << good.Summary();
  EXPECT_GT(good.tiered_live_bytes, 0u);
  EXPECT_EQ(good.tiered_live_bytes + good.tiered_dead_bytes,
            good.tiered_chunks * log::kLogDataBytes);
  EXPECT_NE(good.Summary().find("tiered live"), std::string::npos)
      << good.Summary();
  log::RootArea root(pool.get());
  root.UnregisterChunk(slot);
  const FsckReport bad = FsckPool(*pool);
  EXPECT_FALSE(bad.ok);
  bool named = false;
  for (const FsckIssue& i : bad.issues) {
    named = named || (i.fatal && i.what.find("unregistered") !=
                                     std::string::npos);
  }
  EXPECT_TRUE(named) << bad.Summary();
}

// Reclaim passes racing readers: a writer overwrites (and deletes and
// re-puts) keys so tiered chunks keep losing entries, and a maintenance
// thread's passes relocate them, unlink their nodes and publish
// directory snapshots, while new conversions reuse the freed node slots.
// Meanwhile merged scans (a one-row scan is the point read that may run
// beside the writer) and direct tier lookups (the tombstone veto's read)
// run under their own pins. Every value read is one some Put wrote for
// its key; every scan is strictly ascending.
TEST(Tier, ConcurrentReclaimSmoke) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 48));
  store->SealActiveLogChunks();
  store->Put(1ull << 33, ValueFor(1ull << 33, 0, 48));
  store->RunCleanersOnce();
  ASSERT_GT(store->ChunksTiered(), 0u);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t nonce = 1; !stop.load(std::memory_order_relaxed);
         nonce++) {
      for (uint64_t k = nonce % 7; k < kKeys; k += 7) {
        // Odd keys are deleted and put back, so tombstones reach the
        // cleaner's scans (and the veto) too.
        if (k % 2 == 1) store->Delete(k);
        store->Put(k, ValueFor(k, nonce, 48));
      }
      // Short sealed chunks convert, then die and are reclaimed; the
      // writer waits while the passes catch up.
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
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t k = 0; k < kKeys; k += 13) {
        common::EpochManager::GuestGuard pin(store->epochs());
        uint64_t packed = 0;
        if (store->tier()->Get(k, &packed)) {
          EXPECT_NE(log::UnpackOffset(packed), 0u) << k;
        }
      }
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
  // Conversions so far minus the chunks still tiered: the reclaimed ones.
  auto reclaimed = [&] {
    uint64_t tiered = 0;
    for (int c = 0; c < store->options().num_cores; c++) {
      tiered += TieredChunks(store.get(), c).size();
    }
    return store->ChunksTiered() - tiered;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; check((static_cast<uint64_t>(i) * 74) % kKeys) &&
                  (i < 60 || ((reclaimed() < 8 || passes < 8) &&
                              std::chrono::steady_clock::now() < deadline));
       i++) {
  }
  stop.store(true);
  writer.join();
  maintenance.join();
  prober.join();
  EXPECT_GE(reclaimed(), 8u) << "too few tiered chunks were reclaimed";
  ExpectScanMatchesFullIteration(store.get(), 0, kKeys);
  const FsckReport rep = FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
}

}  // namespace
}  // namespace core
}  // namespace flatstore
