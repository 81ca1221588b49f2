// Persistent ordered tier (DESIGN.md §11): log-to-tier conversion,
// merged hash-store scans, scan equivalence against the full-iteration
// baseline under puts/deletes/GC churn, tombstone handling, the DRAM key
// directory (seek equivalence, concurrent snapshot publication), the vt
// cost of a tier-served scan, and incremental (bounded) recovery that
// skips tiered chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/fsck.h"
#include "core/flatstore.h"
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
// never tiers), then tiers until nothing is left to convert: every key
// in [0, keys) is then served by the tier alone.
void FillAndTierAll(FlatStore* store, uint64_t keys) {
  for (uint64_t k = 0; k < keys; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 8; k++) {
    store->Put((1ull << 32) + k, ValueFor(k, 1, 40));
  }
  while (store->RunTieringOnce() > 0) {
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
  EXPECT_GT(store->RunTieringOnce(), 0u);
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
  auto store = FlatStore::Create(pool.get(), TierOptions());
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
  EXPECT_GT(store->RunTieringOnce(), 0u);
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
    // Churn: overwrites, deletes, re-puts — then GC and tiering passes.
    for (uint64_t k = 0; k < kKeys; k += 3) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 50 + round));
    }
    for (uint64_t k = 1; k < kKeys; k += 97) store->Delete(k);
    for (uint64_t k = 1; k < kKeys; k += 194) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 33));
    }
    store->SealActiveLogChunks();
    store->RunCleanersOnce();
    store->RunTieringOnce();
    compare(0, kKeys);
    compare(kKeys / 3, 100);
    compare(kKeys - 40, 200);  // tail: fewer than `count` keys remain
    compare(kKeys + 1000, 10);  // empty range
  }
  EXPECT_GT(store->ChunksTiered(), 0u);

  // A dense run of tombstones in the delta sets, with a live key every
  // 50th. A delta window holds at most count + 16 keys per core, so a
  // 100-key scan from the run's start exhausts and refills its window at
  // least twice before it can emit enough pairs, and sweeping the start
  // key moves the window bounds across tombstones and live keys alike.
  constexpr uint64_t kRunBegin = 300, kRunEnd = 1200;
  for (uint64_t k = kRunBegin; k < kRunEnd; k++) store->Delete(k);
  for (uint64_t k = kRunBegin; k < kRunEnd; k += 50) {
    store->Put(k, ValueFor(k, 9, 45));
  }
  for (int pass = 0; pass < 2; pass++) {
    compare(0, kKeys);
    for (uint64_t start = kRunBegin - 5; start < kRunBegin + 40; start += 3) {
      compare(start, 1);
      compare(start, 17);
      compare(start, 100);
    }
    compare(kRunEnd - 1, 50);
    compare(kKeys - 1, 10);    // the last key only
    compare(kKeys, 10);        // just past the last key
    compare(UINT64_MAX, 10);  // the very end of the key space
    // Second pass: the same tombstones after they convert into tier
    // nodes, so the tier cursor steps over them too.
    store->SealActiveLogChunks();
    store->RunTieringOnce();
  }
}

// Stores whose keys sit on one side of the merge only: every scanned key
// in a tier node, or every key still in the delta sets.
TEST(Tier, ScanEquivalentOnSingleSourceStores) {
  constexpr uint64_t kKeys = 1024;
  auto tier_pool = MakePool();
  auto tier_only = FlatStore::Create(tier_pool.get(), TierOptions());
  FillAndTierAll(tier_only.get(), kKeys);
  auto delta_pool = MakePool();
  auto delta_only = FlatStore::Create(delta_pool.get(), TierOptions());
  for (uint64_t k = 0; k < kKeys; k++) {
    delta_only->Put(k, ValueFor(k, 1, 40));
  }
  for (FlatStore* store : {tier_only.get(), delta_only.get()}) {
    ExpectScanMatchesFullIteration(store, 0, kKeys);
    ExpectScanMatchesFullIteration(store, 0, 3 * kKeys);
    ExpectScanMatchesFullIteration(store, 511, 100);
    ExpectScanMatchesFullIteration(store, kKeys - 1, 5);
    ExpectScanMatchesFullIteration(store, kKeys, 5);
    ExpectScanMatchesFullIteration(store, UINT64_MAX, 5);
  }
}

// A 100-key scan served by the tier alone reads no tier node: the tier
// keeps key order in its DRAM directory, and every key resolves through
// the volatile index. So the scan charges exactly the PM reads of a twin
// store holding the same keys in its delta sets only (one entry header
// per key: 40-byte values ride in the log entry), and costs at most the
// twin's vt plus one DRAM miss per directory line it reads: the seek's
// binary search over the 1,032-entry directory (8 probes, then at most 2
// lines for the last 4 entries) and one line per 4 keys walked.
TEST(Tier, ScanReadsNoTierNodes) {
  constexpr uint64_t kKeys = 1024, kStart = 200, kItems = 100;
  pm::PmDevice device;
  auto tier_pool = MakePool(128, &device);
  auto tiered = FlatStore::Create(tier_pool.get(), TierOptions());
  FillAndTierAll(tiered.get(), kKeys);
  ASSERT_GE(tiered->tier()->node_count(), kKeys);
  auto twin_pool = MakePool();
  auto twin = FlatStore::Create(twin_pool.get(), TierOptions());
  for (uint64_t k = 0; k < kKeys; k++) twin->Put(k, ValueFor(k, 1, 40));

  auto scan = [&](FlatStore* store, pm::PmPool* pool, ScanRows* rows,
                  pm::PmStats::Snapshot* reads) {
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    const pm::PmStats::Snapshot before = pool->stats().Get();
    EXPECT_EQ(store->Scan(kStart, kItems, rows), kItems);
    *reads = pm::Delta(before, pool->stats().Get());
    return clock.now();
  };
  ScanRows tier_rows, twin_rows;
  pm::PmStats::Snapshot tier_io, twin_io;
  const uint64_t tier_ns =
      scan(tiered.get(), tier_pool.get(), &tier_rows, &tier_io);
  const uint64_t twin_ns =
      scan(twin.get(), twin_pool.get(), &twin_rows, &twin_io);
  EXPECT_EQ(tier_rows, twin_rows);
  EXPECT_EQ(twin_io.reads, kItems);
  EXPECT_EQ(tier_io.reads, twin_io.reads);
  EXPECT_EQ(tier_io.read_lines, twin_io.read_lines);
  const uint64_t dir_lines = 8 + 2 + kItems / 4;
  EXPECT_LE(tier_ns, twin_ns + dir_lines * vt::kCpuCacheMiss)
      << tier_ns << " vs " << twin_ns << " ns";
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

// The directory is soft state: a seek in it must land exactly where a
// linear L0 walk does, a cursor must then step through the keys in L0
// order, and Get must agree, on one- and two-socket pools, both as
// InsertBatch merges interleaved rounds and as a reopen rebuilds it from
// L0. The directory costs 16 bytes per node.
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
        tier::PersistentTier::Cursor c(&t, target);
        const size_t steps = rng() % 48;
        for (size_t j = 0; j <= steps; j++) {
          if (it + j == keys.end()) {
            ASSERT_FALSE(c.Valid()) << target;
            break;
          }
          ASSERT_TRUE(c.Valid()) << target;
          ASSERT_EQ(c.key(), *(it + j)) << target << " step " << j;
          c.Next();
        }
        uint64_t packed = 0;
        const bool hit = it != keys.end() && *it == target;
        ASSERT_EQ(t.Get(target, &packed), hit) << target;
        if (hit) {
          EXPECT_EQ(packed, nodes[it - keys.begin()].second);
        }
      }
      // Every node's own key, each the target of an exact seek.
      for (size_t j = 0; j < nodes.size(); j++) {
        tier::PersistentTier::Cursor c(&t, keys[j]);
        ASSERT_TRUE(c.Valid());
        ASSERT_EQ(c.key(), keys[j]);
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
        while (store->RunTieringOnce() > 0) {
        }
      }
      check(store.get());
    }
    // Dropped without Shutdown: the reopen rebuilds the directory from L0.
    auto store = FlatStore::Open(pool.get(), opts);
    check(store.get());
  }
}

// Scans racing live writers — and a tiering pass that links new L0 nodes
// and publishes directory snapshots under them — must stay well-formed:
// strictly ascending keys, no crashes, every returned value a version
// some Put wrote. No key is ever deleted, so every scan returns exactly
// min(120, kKeys - start) rows: a key the pass moves from the delta sets
// into the tier is never missing from both.
TEST(Tier, ConcurrentScanSmoke) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1024;
  for (uint64_t k = 0; k < kKeys; k += 2) {
    store->Put(k, ValueFor(k, 0, 48));
  }
  store->SealActiveLogChunks();
  store->RunTieringOnce();
  // The odd keys sit in pre-sealed chunks that the concurrent tiering pass
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
    store->RunTieringOnce();
    tiered.store(true);
  });
  scanning.store(true);
  for (int i = 0; i < 50 || !tiered.load(); i++) {
    ScanRows rows;
    const uint64_t start = (static_cast<uint64_t>(i) * 37) % kKeys;
    const uint64_t want = std::min<uint64_t>(120, kKeys - start);
    ASSERT_EQ(store->Scan(start, 120, &rows), want) << start;
    ASSERT_EQ(rows.size(), want) << start;
    for (size_t j = 1; j < rows.size(); j++) {
      ASSERT_LT(rows[j - 1].first, rows[j].first);
    }
    for (const auto& [k, v] : rows) {
      ASSERT_EQ(v.size(), 48u) << k;
      uint64_t embedded = 0;
      std::memcpy(&embedded, v.data(), 8);
      ASSERT_EQ(embedded, k);
    }
  }
  tiering.join();
  stop.store(true);
  writer.join();
  EXPECT_GT(store->ChunksTiered(), tiered_before);
}

// A reader pinned before a tiering pass keeps the directory snapshot it
// loaded, and the keys the pass moves into the tier stay in the delta
// sets until that reader unpins: the pass defers both the free of each
// snapshot it retires and each chunk's delta erase. (A scan that read the
// old snapshot and then gathered the delta sets after an immediate erase
// would miss those keys.)
TEST(Tier, PinnedReaderDefersSnapshotFreeAndDeltaErase) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  FillAndTierAll(store.get(), 128);
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
    tier::PersistentTier::Cursor old(store->tier(), 0);
    const uint64_t old_nodes = store->tier()->node_count();
    const size_t converted = store->RunTieringOnce();
    ASSERT_GT(converted, 0u);
    ASSERT_GT(store->tier()->node_count(), old_nodes);
    // One retired snapshot and one delta erase per converted chunk.
    EXPECT_EQ(epochs->deferred_pending(), 2 * converted);
    // The pinned cursor still walks the snapshot it loaded.
    uint64_t walked = 0;
    for (; old.Valid(); old.Next()) {
      ASSERT_LT(old.key(), 128u);
      walked++;
    }
    EXPECT_EQ(walked, 128u);
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
    ASSERT_GT(store->RunTieringOnce(), 0u);
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
  // The merged scan works right after recovery (delta sets rebuilt).
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
    ASSERT_GT(store->RunTieringOnce(), 0u);
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
    store->RunTieringOnce();
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

}  // namespace
}  // namespace core
}  // namespace flatstore
