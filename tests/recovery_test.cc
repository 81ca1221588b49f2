// Crash-recovery and clean-shutdown tests (paper §3.5), using the PM
// pool's shadow crash model: only explicitly persisted lines survive
// SimulateCrash(), and SetFlushBudget cuts power after an arbitrary
// number of line flushes (including mid-operation).
//
// The core durability contract verified here:
//   * every op acknowledged before the crash is present after recovery
//     (value-exact), including deletes;
//   * the boundary op is atomic: fully present or fully absent;
//   * the allocator's bitmaps are rebuilt consistently (no live block is
//     re-issued, no dead block leaks);
//   * version counters continue monotonically so post-recovery ops work.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "alloc/lazy_allocator.h"
#include "common/cacheline.h"
#include "common/random.h"
#include "core/flatstore.h"
#include "harness/crash_explorer.h"
#include "log/layout.h"
#include "log/log_reader.h"

namespace flatstore {
namespace core {
namespace {

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, char('A' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  if (len >= 16) std::memcpy(&v[8], &nonce, 8);
  return v;
}

FlatStoreOptions SmallOptions(IndexKind kind = IndexKind::kHash) {
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  fo.index = kind;
  return fo;
}

std::unique_ptr<pm::PmPool> CrashPool(uint64_t size = 256ull << 20) {
  pm::PmPool::Options o;
  o.size = size;
  o.crash_tracking = true;
  return std::make_unique<pm::PmPool>(o);
}

TEST(Recovery, CrashAfterPutsRecoversEverything) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 3000; k++) {
    std::string v = ValueFor(k, 0, 16 + k % 400);  // inline + out-of-log mix
    store->Put(k, v);
    model[k] = v;
  }
  store.reset();
  pool->SimulateCrash();

  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(recovered->Size(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(recovered->Get(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
}

TEST(Recovery, NewestVersionWinsAfterOverwrites) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  for (int round = 0; round < 5; round++) {
    for (uint64_t k = 0; k < 500; k++) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 32));
    }
  }
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(recovered->Size(), 500u);
  for (uint64_t k = 0; k < 500; k++) {
    std::string got;
    ASSERT_TRUE(recovered->Get(k, &got));
    ASSERT_EQ(got, ValueFor(k, 4, 32)) << "stale version for key " << k;
  }
}

TEST(Recovery, DeletesSurviveAsTombstones) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  for (uint64_t k = 0; k < 1000; k++) store->Put(k, ValueFor(k, 0, 24));
  for (uint64_t k = 0; k < 1000; k += 2) store->Delete(k);
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(recovered->Size(), 500u);
  for (uint64_t k = 0; k < 1000; k++) {
    std::string got;
    if (k % 2 == 0) {
      EXPECT_FALSE(recovered->Get(k, &got)) << k;
    } else {
      ASSERT_TRUE(recovered->Get(k, &got)) << k;
    }
  }
  // Deleted keys can be re-put after recovery.
  recovered->Put(0, "reborn");
  std::string got;
  ASSERT_TRUE(recovered->Get(0, &got));
  EXPECT_EQ(got, "reborn");
}

TEST(Recovery, AllocatorBitmapsRebuiltFromLog) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  // Large values force allocator blocks; overwrite to create dead blocks.
  for (uint64_t k = 0; k < 200; k++) store->Put(k, ValueFor(k, 0, 1000));
  for (uint64_t k = 0; k < 200; k += 2) store->Put(k, ValueFor(k, 1, 1000));
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  // Exactly 200 live 1008-byte blocks (1024-class) were re-marked.
  // Allocated bytes = blocks + log chunks; writing new values must not
  // corrupt old ones (would happen if a live block were re-issued).
  for (uint64_t k = 1000; k < 1200; k++) {
    recovered->Put(k, ValueFor(k, 7, 1000));
  }
  for (uint64_t k = 0; k < 200; k++) {
    std::string got;
    ASSERT_TRUE(recovered->Get(k, &got));
    ASSERT_EQ(got, ValueFor(k, k % 2 == 0 ? 1 : 0, 1000)) << k;
  }
}

TEST(Recovery, MidOperationPowerCutIsAtomic) {
  // The main crash-injection property test. Formerly 12 rounds with a
  // randomly drawn flush budget; now the CrashExplorer cuts power at
  // EVERY flush index of a fixed mixed workload (clean cuts — the
  // adversarial torn/unordered/eviction modes run in
  // crash_explorer_test), verifying the prefix contract each time.
  testing::ExplorerOptions opts;
  opts.pool_size = 128ull << 20;
  opts.store = SmallOptions();
  opts.modes = {pm::PmPool::CrashMode::kClean};
  testing::Workload w = [](testing::WorkloadCtx& ctx) {
    // Warm-up phase fully durable, outside the enumerated window.
    Rng rng(0xC8A54);
    uint64_t nonce = 0;
    for (uint64_t k = 0; k < 64; k++) {
      ctx.Put(k, ValueFor(k, nonce, 16 + k * 7 % 500));
    }
    ctx.Arm();
    // Fixed-seed mixed traffic: same op sequence in every replay, so the
    // flush at index N is always issued by the same operation.
    for (uint64_t i = 0; i < 40; i++) {
      uint64_t k = rng.Uniform(96);
      nonce++;
      if (rng.Uniform(4) == 0 && k < 64) {
        ctx.Delete(k);
      } else {
        ctx.Put(k, ValueFor(k, nonce, 8 + rng.Uniform(500)));
      }
    }
  };
  testing::CrashExplorer explorer("recovery-mixed", opts);
  testing::ExplorerResult res = explorer.Explore(w);
  EXPECT_GT(res.total_flushes, 40u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

TEST(Recovery, DoubleCrashIsIdempotent) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  for (uint64_t k = 0; k < 500; k++) store->Put(k, ValueFor(k, 0, 64));
  store.reset();
  pool->SimulateCrash();
  auto r1 = FlatStore::Open(pool.get(), SmallOptions());
  r1->Put(999999, "between crashes");
  r1.reset();
  pool->SimulateCrash();
  auto r2 = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(r2->Size(), 501u);
  std::string got;
  ASSERT_TRUE(r2->Get(999999, &got));
  EXPECT_EQ(got, "between crashes");
}

TEST(Recovery, RecoveredStoreContinuesVersioning) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  store->Put(7, "v1");
  store->Put(7, "v2");
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  // A post-recovery overwrite must supersede the recovered version even
  // through another crash.
  recovered->Put(7, "v3");
  recovered.reset();
  pool->SimulateCrash();
  auto again = FlatStore::Open(pool.get(), SmallOptions());
  std::string got;
  ASSERT_TRUE(again->Get(7, &got));
  EXPECT_EQ(got, "v3");
}

TEST(CleanShutdown, CheckpointRestoresWithoutReplayIndexing) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 2000; k++) {
    std::string v = ValueFor(k, 3, 16 + k % 300);
    store->Put(k, v);
    model[k] = v;
  }
  store->Shutdown();
  store.reset();
  pool->SimulateCrash();  // shutdown state itself must be durable

  auto reopened = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(reopened->Size(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(reopened->Get(k, &got)) << k;
    ASSERT_EQ(got, v);
  }
  // The shutdown flag was consumed: a crash now requires full replay and
  // still works.
  reopened->Put(5, "after clean open");
  reopened.reset();
  pool->SimulateCrash();
  auto crashed = FlatStore::Open(pool.get(), SmallOptions());
  std::string got;
  ASSERT_TRUE(crashed->Get(5, &got));
  EXPECT_EQ(got, "after clean open");
}

TEST(CleanShutdown, MasstreeCheckpointToo) {
  auto pool = CrashPool();
  auto store =
      FlatStore::Create(pool.get(), SmallOptions(IndexKind::kMasstree));
  for (uint64_t k = 0; k < 1000; k++) store->Put(k, ValueFor(k, 0, 20));
  store->Shutdown();
  store.reset();
  pool->SimulateCrash();
  auto reopened =
      FlatStore::Open(pool.get(), SmallOptions(IndexKind::kMasstree));
  EXPECT_EQ(reopened->Size(), 1000u);
  std::vector<std::pair<uint64_t, std::string>> out;
  EXPECT_EQ(reopened->Scan(10, 5, &out), 5u);
  EXPECT_EQ(out[0].first, 10u);
}

TEST(Recovery, CrashDuringShutdownFallsBackToReplay) {
  auto pool = CrashPool();
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  for (uint64_t k = 0; k < 800; k++) store->Put(k, ValueFor(k, 0, 32));
  // Cut power midway through the checkpoint write.
  pool->SetFlushBudget(20);
  store->Shutdown();
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(recovered->Size(), 800u);
  std::string got;
  ASSERT_TRUE(recovered->Get(0, &got));
}

TEST(Recovery, EmptyStoreRecovers) {
  auto pool = CrashPool(64ull << 20);
  auto store = FlatStore::Create(pool.get(), SmallOptions());
  store.reset();
  pool->SimulateCrash();
  auto recovered = FlatStore::Open(pool.get(), SmallOptions());
  EXPECT_EQ(recovered->Size(), 0u);
  recovered->Put(1, "first");
  std::string got;
  ASSERT_TRUE(recovered->Get(1, &got));
}

TEST(Recovery, MasstreeCrashReplay) {
  auto pool = CrashPool();
  auto store =
      FlatStore::Create(pool.get(), SmallOptions(IndexKind::kMasstree));
  for (uint64_t k = 0; k < 2000; k++) store->Put(k, ValueFor(k, 0, 48));
  for (uint64_t k = 0; k < 2000; k += 3) store->Delete(k);
  store.reset();
  pool->SimulateCrash();
  auto recovered =
      FlatStore::Open(pool.get(), SmallOptions(IndexKind::kMasstree));
  for (uint64_t k = 0; k < 2000; k++) {
    std::string got;
    EXPECT_EQ(recovered->Get(k, &got), k % 3 != 0) << k;
  }
}

// ---- recovered chunk usage against a rescan of the log ----

// What recovery must rebuild, recomputed the slow way from the recovered
// registry, log and index: each registered chunk is walked with
// ChainedChunkReader and an entry is live iff the index names it. The
// allocator holds every registered log chunk and the block of every live
// out-of-log value.
struct Rescan {
  std::vector<std::map<uint64_t, log::ChunkUsage>> usage;  // per core
  uint64_t allocated_bytes = 0;
  uint64_t orphan_chains = 0;  // torn or aborted txn chains dropped
  uint64_t chunks = 0;
  uint64_t cleaner_chunks = 0;  // relocation chunks among them
};

Rescan RescanUsage(FlatStore* store, pm::PmPool* pool) {
  Rescan ref;
  ref.usage.resize(static_cast<size_t>(store->options().num_cores));
  std::set<uint64_t> blocks;
  auto indexed = [store](uint64_t key, uint64_t packed) {
    uint64_t cur = 0;
    return store->IndexForCore(store->CoreForKey(key))->Get(key, &cur) &&
           cur == packed;
  };
  log::RootArea* root = store->root();
  const log::ChunkRecord* regs = root->registry();
  for (uint64_t s = 0; s < root->registry_slots(); s++) {
    if (regs[s].chunk_off == 0) continue;
    const uint64_t chunk = regs[s].chunk_off & ~log::kChunkFlagsMask;
    const int core = static_cast<int>(regs[s].core);
    log::ChunkUsage u;
    u.seq = regs[s].seq;
    u.last_write_clock = regs[s].seq;  // re-seeded from the sequence
    u.cleaner = (regs[s].chunk_off & log::kChunkCleaner) != 0;
    u.registry_slot = s;
    ref.allocated_bytes += alloc::kChunkSize;
    uint64_t tail_seq = 0;
    const uint64_t tail = root->ReadTail(core, &tail_seq);
    const bool is_tail =
        tail != 0 && AlignDown(tail, alloc::kChunkSize) == chunk;
    u.sealed = !is_tail;
    const uint64_t committed =
        is_tail ? tail - (chunk + log::kLogDataOff)
                : pool->PtrAt<log::LogChunkHeader>(chunk +
                                                   alloc::kChunkHeaderSize)
                      ->used_final;
    log::ChainedChunkReader reader(pool, chunk, committed);
    log::DecodedEntry e;
    uint64_t off;
    while (reader.Next(&e, &off)) {
      u.total++;
      u.total_bytes += e.entry_len;
      if (e.op == log::OpType::kTxnCommit) continue;
      if (e.op == log::OpType::kDelete) {
        u.tombs++;
        u.max_covered_seq =
            std::max(u.max_covered_seq, static_cast<uint32_t>(e.ptr));
      }
      if (indexed(e.key, log::PackIndexValue(off, e.version))) {
        u.live++;
        u.live_bytes += e.entry_len;
        if (e.op == log::OpType::kPut && !e.embedded) blocks.insert(e.ptr);
      }
    }
    ref.orphan_chains += reader.orphan_chains();
    ref.chunks++;
    if (u.cleaner) ref.cleaner_chunks++;
    ref.usage[static_cast<size_t>(core)][chunk] = u;
  }
  for (uint64_t b : blocks) {
    ref.allocated_bytes +=
        pool->PtrAt<alloc::ChunkHeader>(AlignDown(b, alloc::kChunkSize))
            ->size_class;
  }
  return ref;
}

// Every core's recovered usage records and the allocator's bytes equal
// the rescan's. Returns the rescan for the caller's scenario checks.
Rescan ExpectUsageMatchesRescan(FlatStore* store, pm::PmPool* pool) {
  const Rescan ref = RescanUsage(store, pool);
  for (size_t c = 0; c < ref.usage.size(); c++) {
    const auto got = store->LogForCore(static_cast<int>(c))->UsageSnapshot();
    EXPECT_EQ(got.size(), ref.usage[c].size()) << "core " << c;
    for (const auto& [chunk, want] : ref.usage[c]) {
      auto it = got.find(chunk);
      if (it == got.end()) {
        ADD_FAILURE() << "core " << c << " lost chunk " << chunk;
        continue;
      }
      const log::ChunkUsage& u = it->second;
      const std::string where =
          "core " + std::to_string(c) + " chunk " + std::to_string(chunk);
      EXPECT_EQ(u.seq, want.seq) << where;
      EXPECT_EQ(u.total, want.total) << where;
      EXPECT_EQ(u.live, want.live) << where;
      EXPECT_EQ(u.tombs, want.tombs) << where;
      EXPECT_EQ(u.max_covered_seq, want.max_covered_seq) << where;
      EXPECT_EQ(u.total_bytes, want.total_bytes) << where;
      EXPECT_EQ(u.live_bytes, want.live_bytes) << where;
      EXPECT_EQ(u.last_write_clock, want.last_write_clock) << where;
      EXPECT_EQ(u.sealed, want.sealed) << where;
      EXPECT_EQ(u.cleaner, want.cleaner) << where;
      EXPECT_TRUE(u.temp == want.temp) << where;
      EXPECT_EQ(u.retired, want.retired) << where;
      EXPECT_EQ(u.registry_slot, want.registry_slot) << where;
    }
  }
  EXPECT_EQ(store->allocator()->allocated_bytes(), ref.allocated_bytes);
  return ref;
}

FlatStoreOptions KeyOrderedStoreOptions() {
  FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 4;
  fo.tier_enabled = true;  // keep key order
  return fo;
}

// Keys `first`..`first + n` with inline and out-of-log values, sealed,
// then a few far keys that move every core's durable tail into a fresh
// chunk (a tail chunk is never cleaned).
void PutAndSeal(FlatStore* store, uint64_t first, uint64_t n,
                uint64_t nonce) {
  for (uint64_t k = first; k < first + n; k++) {
    store->Put(k, ValueFor(k, nonce, 16 + k * 37 % 400));
  }
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 32; k++) {
    store->Put((nonce << 40) + k, ValueFor(k, nonce, 40));
  }
}

// A 4-core key-ordered store whose history has cleaned chunks, relocation
// chunks holding survivors and tombstones, and sealed chunks left with
// dead entries that no pass reclaimed.
void CleanedHistory(FlatStore* store) {
  PutAndSeal(store, 0, 1500, 1);
  PutAndSeal(store, 100000, 1500, 2);
  // Most of the first batch dies (overwrites and deletes), so the passes
  // clean its chunks and relocate the survivors.
  for (uint64_t k = 0; k < 1500; k++) {
    if (k % 5 == 0) {
      store->Delete(k);
    } else if (k % 5 != 1) {
      store->Put(k, ValueFor(k, 3, 16 + k * 11 % 400));
    }
  }
  store->SealActiveLogChunks();
  while (store->RunCleanersOnce() > 0) {
  }
  ASSERT_GT(store->ChunksCleaned(), 0u);
  // Entries of the second batch die without a pass to reclaim them.
  for (uint64_t k = 100000; k < 101500; k += 7) store->Delete(k);
}

// A suffix no pass sees: fresh keys, overwrites of older keys, deletes.
void Suffix(FlatStore* store, uint64_t nonce) {
  for (uint64_t k = 200000; k < 200600; k++) {
    store->Put(k, ValueFor(k, nonce, 16 + k * 13 % 400));
  }
  for (uint64_t k = 100001; k < 101500; k += 9) {
    store->Put(k, ValueFor(k, nonce, 300));
  }
  for (uint64_t k = 200000; k < 200600; k += 4) store->Delete(k);
}

// The recovered key run serves scans exactly like a full iteration.
void ExpectScansMatchFullIteration(FlatStore* store) {
  for (uint64_t start : {0ull, 750ull, 100000ull, 200300ull}) {
    std::vector<std::pair<uint64_t, std::string>> merged, full;
    EXPECT_EQ(store->Scan(start, 500, &merged),
              store->ScanFullIteration(start, 500, &full))
        << start;
    EXPECT_EQ(merged, full) << start;
  }
}

TEST(Recovery, RecoveredUsageMatchesRescanKeyOrderedCrash) {
  auto pool = CrashPool();
  {
    auto store = FlatStore::Create(pool.get(), KeyOrderedStoreOptions());
    CleanedHistory(store.get());
    Suffix(store.get(), 4);
  }
  pool->SimulateCrash();
  auto store = FlatStore::Open(pool.get(), KeyOrderedStoreOptions());
  const Rescan ref = ExpectUsageMatchesRescan(store.get(), pool.get());
  EXPECT_GT(ref.cleaner_chunks, 0u);
  EXPECT_GT(ref.chunks, ref.cleaner_chunks);
  ExpectScansMatchFullIteration(store.get());
}

TEST(Recovery, RecoveredUsageMatchesRescanKeyOrderedCheckpoint) {
  auto pool = CrashPool();
  {
    auto store = FlatStore::Create(pool.get(), KeyOrderedStoreOptions());
    CleanedHistory(store.get());
    store->CheckpointNow();
    Suffix(store.get(), 5);
  }
  ASSERT_NE(log::RootArea(pool.get()).superblock()->clean_shutdown, 0u)
      << "the suffix disarmed the checkpoint";
  auto store = FlatStore::Open(pool.get(), KeyOrderedStoreOptions());
  const Rescan ref = ExpectUsageMatchesRescan(store.get(), pool.get());
  EXPECT_GT(ref.cleaner_chunks, 0u);
  EXPECT_GT(ref.chunks, ref.cleaner_chunks);
  ExpectScansMatchFullIteration(store.get());
}

TEST(Recovery, RecoveredUsageMatchesRescanMasstree) {
  auto pool = CrashPool();
  {
    auto store =
        FlatStore::Create(pool.get(), SmallOptions(IndexKind::kMasstree));
    for (uint64_t k = 0; k < 3000; k++) {
      store->Put(k, ValueFor(k, 0, 16 + k * 37 % 400));
    }
    for (uint64_t k = 0; k < 3000; k += 3) {
      store->Put(k, ValueFor(k, 1, 16 + k * 11 % 400));
    }
    for (uint64_t k = 1; k < 3000; k += 5) store->Delete(k);
  }
  pool->SimulateCrash();
  auto store =
      FlatStore::Open(pool.get(), SmallOptions(IndexKind::kMasstree));
  const Rescan ref = ExpectUsageMatchesRescan(store.get(), pool.get());
  EXPECT_GT(ref.chunks, 1u);
}

// A torn txn chain (members durable, no valid commit record after them,
// forged into the log as a torn fused persist would leave it) between a
// committed transaction and later puts: its members count as neither
// total nor live, and the one that names an indexed key leaves that
// key's entry live.
TEST(Recovery, RecoveredUsageMatchesRescanTornTxn) {
  auto pool = CrashPool(64ull << 20);
  {
    auto store = FlatStore::Create(pool.get(), SmallOptions());
    for (uint64_t k = 0; k < 200; k++) {
      store->Put(k, ValueFor(k, 0, 16 + k * 37 % 400));
    }
    const std::string inline_val(200, 'i');
    const std::string block_val(400, 'b');
    // Two committed transactions on one core: a put with a delete of a
    // preloaded key, then an out-of-log put superseding the first.
    const uint64_t key = 1000;
    const int core = store->CoreForKey(key);
    uint64_t doomed = 0;
    while (store->CoreForKey(doomed) != core) doomed++;
    TxnOp ops[2];
    ops[0].key = key;
    ops[0].value = inline_val.data();
    ops[0].len = static_cast<uint32_t>(inline_val.size());
    ops[1].kind = TxnOpKind::kDelete;
    ops[1].key = doomed;
    ASSERT_EQ(store->CommitTxnOnCore(core, ops, 2), TxnStatus::kCommitted);
    ops[0].value = block_val.data();
    ops[0].len = static_cast<uint32_t>(block_val.size());
    ASSERT_EQ(store->CommitTxnOnCore(core, ops, 1), TxnStatus::kCommitted);

    uint8_t e1[log::kMaxEntrySize];
    uint8_t e2[log::kMaxEntrySize];
    const std::string v = "orphaned-member";
    const uint32_t l1 = log::EncodePutValue(
        e1, 7, 9, v.data(), static_cast<uint32_t>(v.size()));
    const uint32_t l2 = log::EncodePutValue(
        e2, 7001, 1, v.data(), static_cast<uint32_t>(v.size()));
    log::MarkTxnMember(e1);
    log::MarkTxnMember(e2);
    log::OpLog::EntryRef refs[2] = {{e1, l1}, {e2, l2}};
    uint64_t offs[2];
    ASSERT_TRUE(store->LogForCore(0)->AppendBatch(refs, 2, offs));
    for (uint64_t k = 100; k < 300; k++) {
      store->Put(k, ValueFor(k, 1, 16 + k * 11 % 400));
    }
    for (uint64_t k = 0; k < 300; k += 7) store->Delete(k);
  }
  pool->SimulateCrash();
  auto store = FlatStore::Open(pool.get(), SmallOptions());
  const Rescan ref = ExpectUsageMatchesRescan(store.get(), pool.get());
  EXPECT_EQ(ref.orphan_chains, 1u);
  std::string got;
  EXPECT_FALSE(store->Get(7001, &got));
  EXPECT_FALSE(store->Get(7, &got)) << "an orphaned member was replayed";
  ASSERT_TRUE(store->Get(1000, &got));
  EXPECT_EQ(got, std::string(400, 'b'));
}

}  // namespace
}  // namespace core
}  // namespace flatstore
