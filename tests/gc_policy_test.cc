// Cost-benefit victim selection under one relocation cap, hot/cold
// survivor segregation, pipelined quantum-bounded cleaning, and allocator
// backpressure (§3.4).
//
// OpLog-level tests drive PickVictims directly over hand-built chunk
// populations; FlatStore-level tests verify the end-to-end behavior of
// the staged cleaner (temperature lanes, WA accounting, resumable
// quanta, pressure-boosted budgets).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "log/layout.h"
#include "log/log_entry.h"
#include "log/log_reader.h"
#include "log/oplog.h"
#include "pm/pm_stats.h"

namespace flatstore {
namespace log {
namespace {

class GcPolicyTest : public ::testing::Test {
 protected:
  GcPolicyTest() {
    pm::PmPool::Options o;
    o.size = 128ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    root_ = std::make_unique<RootArea>(pool_.get());
    root_->Format(/*num_cores=*/2);
    alloc_ = std::make_unique<alloc::LazyAllocator>(
        pool_.get(), alloc::kChunkSize, o.size - alloc::kChunkSize, 2);
    log_ = std::make_unique<OpLog>(root_.get(), alloc_.get(), 0);
  }

  // Appends `n` ptr-based entries as one batch; returns their offsets.
  std::vector<uint64_t> AppendPtrBatch(int n, uint32_t version = 1) {
    std::vector<std::vector<uint8_t>> bufs(n);
    std::vector<OpLog::EntryRef> refs(n);
    for (int i = 0; i < n; i++) {
      bufs[i].resize(kPtrEntrySize);
      EncodePutPtr(bufs[i].data(), next_key_++, version, 0x100u * 256);
      refs[i] = {bufs[i].data(), kPtrEntrySize};
    }
    std::vector<uint64_t> offs(n);
    EXPECT_TRUE(log_->AppendBatch(refs.data(), refs.size(), offs.data()));
    return offs;
  }

  // Appends one inline-value entry of `vlen` value bytes as its own batch.
  uint64_t AppendValueEntry(uint32_t vlen, uint32_t version = 1) {
    std::vector<uint8_t> value(vlen, 0x5A);
    std::vector<uint8_t> buf(kValueEntryHeader + vlen);
    const uint32_t len =
        EncodePutValue(buf.data(), next_key_++, version, value.data(), vlen);
    OpLog::EntryRef ref{buf.data(), len};
    uint64_t off = 0;
    EXPECT_TRUE(log_->AppendBatch(&ref, 1, &off));
    return off;
  }

  static uint64_t ChunkOf(uint64_t entry_off) {
    return AlignDown(entry_off, alloc::kChunkSize);
  }

  // Appends `n` ptr-based entries through the cleaner path into `temp`'s
  // lane; returns their offsets.
  std::vector<uint64_t> AppendCleanerBatch(int n, Temp temp) {
    std::vector<std::vector<uint8_t>> bufs(n);
    std::vector<OpLog::EntryRef> refs(n);
    for (int i = 0; i < n; i++) {
      bufs[i].resize(kPtrEntrySize);
      EncodePutPtr(bufs[i].data(), next_key_++, 1, 0x100u * 256);
      refs[i] = {bufs[i].data(), kPtrEntrySize};
    }
    std::vector<uint64_t> offs(n);
    EXPECT_TRUE(log_->CleanerAppendBatch(refs.data(), refs.size(),
                                         offs.data(), temp));
    return offs;
  }

  // Ticks the logical write clock by `n` (each serving batch = one tick).
  void TickClock(int n) {
    for (int i = 0; i < n; i++) AppendPtrBatch(1);
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<RootArea> root_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  std::unique_ptr<OpLog> log_;
  uint64_t next_key_ = 1;
};

TEST_F(GcPolicyTest, CostBenefitPrefersOlderAtEqualLiveRatio) {
  auto offs_a = AppendPtrBatch(16);
  log_->SealActiveChunk();
  auto offs_b = AppendPtrBatch(16);
  log_->SealActiveChunk();
  const uint64_t chunk_a = ChunkOf(offs_a[0]);
  const uint64_t chunk_b = ChunkOf(offs_b[0]);
  ASSERT_NE(chunk_a, chunk_b);

  // Kill half of A, age it 20 ticks, then kill half of B: equal live
  // ratios (0.5), but A's last write/death event is 20 ticks older.
  for (int i = 0; i < 8; i++) log_->NoteDead(offs_a[i], kPtrEntrySize);
  TickClock(20);
  for (int i = 0; i < 8; i++) log_->NoteDead(offs_b[i], kPtrEntrySize);

  VictimQuery q;  // defaults: kCostBenefit, cap 0.98
  q.max = 8;
  auto victims = log_->PickVictims(q);
  ASSERT_GE(victims.size(), 2u);
  EXPECT_EQ(victims[0].chunk_off, chunk_a) << "older chunk must rank first";
  EXPECT_EQ(victims[1].chunk_off, chunk_b);
  EXPECT_GT(victims[0].age, victims[1].age);
  EXPECT_DOUBLE_EQ(victims[0].live_ratio, victims[1].live_ratio);
}

TEST_F(GcPolicyTest, CostBenefitPrefersEmptierAtEqualAge) {
  auto offs_a = AppendPtrBatch(16);
  log_->SealActiveChunk();
  auto offs_b = AppendPtrBatch(16);
  log_->SealActiveChunk();
  const uint64_t chunk_a = ChunkOf(offs_a[0]);
  const uint64_t chunk_b = ChunkOf(offs_b[0]);

  // Kill 4/16 of A and 12/16 of B in the same clock window, then age
  // both equally: same age, but B frees three times the space.
  for (int i = 0; i < 4; i++) log_->NoteDead(offs_a[i], kPtrEntrySize);
  for (int i = 0; i < 12; i++) log_->NoteDead(offs_b[i], kPtrEntrySize);
  TickClock(10);

  VictimQuery q;
  q.max = 8;
  auto victims = log_->PickVictims(q);
  ASSERT_GE(victims.size(), 2u);
  EXPECT_EQ(victims[0].chunk_off, chunk_b) << "emptier chunk must rank first";
  EXPECT_EQ(victims[1].chunk_off, chunk_a);
  EXPECT_LT(victims[0].live_ratio, victims[1].live_ratio);
}

TEST_F(GcPolicyTest, EqualScoresTieBreakByOldestSequence) {
  auto offs_a = AppendPtrBatch(16);
  log_->SealActiveChunk();
  auto offs_b = AppendPtrBatch(16);
  log_->SealActiveChunk();

  // Identical kill pattern in the same window: equal ratio and age.
  for (int i = 0; i < 8; i++) log_->NoteDead(offs_a[i], kPtrEntrySize);
  for (int i = 0; i < 8; i++) log_->NoteDead(offs_b[i], kPtrEntrySize);
  TickClock(5);

  VictimQuery q;
  q.max = 8;
  auto victims = log_->PickVictims(q);
  ASSERT_GE(victims.size(), 2u);
  EXPECT_EQ(victims[0].chunk_off, ChunkOf(offs_a[0]))
      << "ties must break toward the older sequence (deterministic)";
}

// The picker's one relocation cap (DESIGN.md §3.4), here 0.9: every
// chunk below it is picked, hot or cold lane alike, and none at or above
// it. Each row is one sealed 16-entry chunk with `live` entries left.
TEST_F(GcPolicyTest, PickerTableOneCapForEveryChunk) {
  struct Row {
    const char* name;
    bool cold;
    int live;
    bool picked;
  };
  const Row table[] = {
      {"hot, full", false, 16, false},
      {"hot, over the cap", false, 15, false},  // 0.9375
      {"hot, under the cap", false, 14, true},  // 0.875
      {"hot, half", false, 8, true},
      {"hot, dead", false, 0, true},
      {"cold, full", true, 16, false},
      {"cold, over the cap", true, 15, false},
      {"cold, under the cap", true, 14, true},
      {"cold, half", true, 8, true},
      {"cold, dead", true, 0, true},
  };

  std::map<uint64_t, const Row*> chunk_row;
  for (const Row& r : table) {
    std::vector<uint64_t> offs;
    if (r.cold) {
      offs = AppendCleanerBatch(16, Temp::kCold);
      log_->RotateCleanerChunk();
    } else {
      offs = AppendPtrBatch(16);
      log_->SealActiveChunk();
    }
    for (int i = r.live; i < 16; i++) log_->NoteDead(offs[i], kPtrEntrySize);
    chunk_row[ChunkOf(offs[0])] = &r;
  }
  TickClock(3);  // the durable tail leaves the last sealed chunk

  VictimQuery q;
  q.live_ratio = 0.9;
  q.max = 16;
  std::map<uint64_t, bool> picked;
  for (const VictimInfo& v : log_->PickVictims(q)) {
    ASSERT_TRUE(chunk_row.count(v.chunk_off) != 0) << v.chunk_off;
    EXPECT_EQ(v.from_cold_chunk, chunk_row[v.chunk_off]->cold);
    picked[v.chunk_off] = true;
  }
  for (const auto& [chunk, row] : chunk_row) {
    EXPECT_EQ(picked.count(chunk) != 0, row->picked) << row->name;
  }
}

// A pick returns at most query.max chunks, the best-ranked first.
TEST_F(GcPolicyTest, PickerReturnsAtMostMax) {
  std::vector<uint64_t> chunks;
  for (int i = 0; i < 6; i++) {
    auto offs = AppendPtrBatch(16);
    log_->SealActiveChunk();
    // Chunk i keeps 2 + i live entries: the emptier, the better.
    for (int j = 2 + i; j < 16; j++) log_->NoteDead(offs[j], kPtrEntrySize);
    chunks.push_back(ChunkOf(offs[0]));
  }
  TickClock(3);

  VictimQuery q;
  q.live_ratio = 0.9;
  for (size_t max : {size_t{6}, size_t{4}, size_t{1}, size_t{0}}) {
    q.max = max;
    const auto victims = log_->PickVictims(q);
    ASSERT_EQ(victims.size(), max);
    for (size_t i = 0; i < max; i++) {
      EXPECT_EQ(victims[i].chunk_off, chunks[i]);
    }
  }
}

// The durable-tail chunk and the chunks being written (serving and both
// cleaner lanes) are never picked, whatever the policy would say.
TEST_F(GcPolicyTest, PickerSparesTailAndActiveChunks) {
  const uint64_t old_chunk = ChunkOf(AppendPtrBatch(16)[0]);
  log_->SealActiveChunk();
  // The tail chunk: sealed, but the durable tail record points into it.
  const uint64_t tail_chunk = ChunkOf(AppendPtrBatch(16)[0]);
  log_->SealActiveChunk();
  // The active cleaner chunks of both lanes, unsealed.
  const uint64_t hot_lane = ChunkOf(AppendCleanerBatch(16, Temp::kHot)[0]);
  const uint64_t cold_lane = ChunkOf(AppendCleanerBatch(16, Temp::kCold)[0]);
  ASSERT_EQ(AlignDown(log_->tail(), alloc::kChunkSize), tail_chunk);

  {
    VictimQuery q;
    q.live_ratio = 1.5;  // every chunk relocatable
    q.max = 16;
    const auto victims = log_->PickVictims(q);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].chunk_off, old_chunk);
  }
  // The serving chunk after the tail moves into it: unsealed, so spared,
  // and the former tail chunk becomes eligible.
  const uint64_t serving = ChunkOf(AppendPtrBatch(4)[0]);
  VictimQuery q;
  q.live_ratio = 1.5;
  q.max = 16;
  std::vector<uint64_t> picked;
  for (const VictimInfo& v : log_->PickVictims(q)) {
    picked.push_back(v.chunk_off);
    EXPECT_NE(v.chunk_off, serving);
    EXPECT_NE(v.chunk_off, hot_lane);
    EXPECT_NE(v.chunk_off, cold_lane);
  }
  std::sort(picked.begin(), picked.end());
  std::vector<uint64_t> want = {old_chunk, tail_chunk};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(picked, want);
}

TEST_F(GcPolicyTest, IncrementalByteCountersMatchRescanOracle) {
  // Mixed-size population across two chunks, deaths notified with and
  // without explicit lengths — the incrementally maintained byte counters
  // must agree with a from-scratch rescan of the chunk contents.
  struct Entry {
    uint64_t off;
    uint32_t len;
  };
  std::vector<Entry> entries;
  for (int round = 0; round < 3; round++) {
    for (uint64_t off : AppendPtrBatch(8)) {
      entries.push_back({off, kPtrEntrySize});
    }
    for (uint32_t vlen : {40u, 100u, 256u}) {
      entries.push_back({AppendValueEntry(vlen),
                         kValueEntryHeader + vlen});
    }
  }
  log_->SealActiveChunk();

  std::map<uint64_t, uint64_t> dead_bytes;  // chunk -> killed bytes
  for (size_t i = 0; i < entries.size(); i += 3) {
    // Alternate explicit-length and decode-in-place notification paths.
    log_->NoteDead(entries[i].off, i % 2 == 0 ? entries[i].len : 0);
    dead_bytes[ChunkOf(entries[i].off)] += entries[i].len;
  }

  for (const auto& [chunk, u] : log_->UsageSnapshot()) {
    // Oracle: rescan the chunk for total bytes.
    uint64_t scanned_total = 0;
    LogChunkReader reader(pool_.get(), chunk, log_->CommittedBytes(chunk));
    DecodedEntry e;
    uint64_t off;
    while (reader.Next(&e, &off)) scanned_total += e.entry_len;
    EXPECT_EQ(u.total_bytes, scanned_total) << "chunk " << chunk;
    const uint64_t killed =
        dead_bytes.count(chunk) != 0 ? dead_bytes[chunk] : 0;
    EXPECT_EQ(u.live_bytes, scanned_total - killed) << "chunk " << chunk;
  }
}

TEST_F(GcPolicyTest, CleanerLanesSeparateByTemperatureAndInheritAge) {
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 7, 1, 0x100u * 256);
  OpLog::EntryRef ref{buf, kPtrEntrySize};
  uint64_t hot_off = 0, cold_off = 0;
  ASSERT_TRUE(log_->CleanerAppendBatch(&ref, 1, &hot_off, Temp::kHot,
                                       /*age_clock=*/3));
  ASSERT_TRUE(log_->CleanerAppendBatch(&ref, 1, &cold_off, Temp::kCold,
                                       /*age_clock=*/5));
  ASSERT_NE(ChunkOf(hot_off), ChunkOf(cold_off))
      << "temperature lanes must use distinct chunks";
  auto usage = log_->UsageSnapshot();
  const ChunkUsage& hot = usage.at(ChunkOf(hot_off));
  const ChunkUsage& cold = usage.at(ChunkOf(cold_off));
  EXPECT_TRUE(hot.cleaner);
  EXPECT_TRUE(cold.cleaner);
  EXPECT_EQ(hot.temp, Temp::kHot);
  EXPECT_EQ(cold.temp, Temp::kCold);
  // Relocation chunks inherit the victim's stamp, not "now".
  EXPECT_EQ(hot.last_write_clock, 3u);
  EXPECT_EQ(cold.last_write_clock, 5u);
}

TEST(AllocatorBackpressure, PressureTracksFreeListAgainstWatermark) {
  pm::PmPool::Options o;
  o.size = 64ull << 20;  // 16 chunks; 15 allocatable
  pm::PmPool pool(o);
  alloc::LazyAllocator alloc(&pool, alloc::kChunkSize,
                             o.size - alloc::kChunkSize, 1);
  EXPECT_EQ(alloc.MemoryPressure(), 0) << "signal disarmed by default";

  alloc.SetFreeChunkLowWatermark(8);
  EXPECT_EQ(alloc.MemoryPressure(), 0) << "15 free > watermark 8";

  std::vector<uint64_t> taken;
  while (alloc.free_chunks() > 8) taken.push_back(alloc.AllocRawChunk(0));
  EXPECT_EQ(alloc.MemoryPressure(), 1) << "at the watermark";
  while (alloc.free_chunks() > 2) taken.push_back(alloc.AllocRawChunk(0));
  EXPECT_EQ(alloc.MemoryPressure(), 2) << "below a quarter of the watermark";

  while (!taken.empty()) {
    alloc.FreeRawChunk(taken.back());
    taken.pop_back();
  }
  EXPECT_EQ(alloc.MemoryPressure(), 0) << "recovers as chunks return";
}

}  // namespace
}  // namespace log

namespace core {
namespace {

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, char('a' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  return v;
}

FlatStoreOptions SegOptions() {
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  fo.gc_live_ratio = 0.95;
  return fo;
}

// Builds garbage: fills a sealed chunk per core, then supersedes 3/4 of
// the keys so the sealed chunks fall well under the live-ratio cap.
void StageGarbage(FlatStore* store) {
  for (uint64_t k = 0; k < 4000; k++) {
    store->Put(k, ValueFor(k, 0, 200));
  }
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 3000; k++) {
    store->Put(k, ValueFor(k, 1, 200));
  }
}

TEST(HotColdSegregation, ColdAgeZeroRoutesAllSurvivorsCold) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  auto opts = SegOptions();
  opts.gc_cold_age = 0;  // every victim classifies as cold
  auto store = FlatStore::Create(&pool, opts);
  StageGarbage(store.get());
  while (store->RunCleanersOnce() > 0) {
  }
  ASSERT_GT(store->ChunksCleaned(), 0u);

  const auto s = pool.stats().Get();
  EXPECT_GT(s.gc_bytes_relocated, 0u);
  EXPECT_GT(s.gc_bytes_reclaimed, 0u);
  EXPECT_GT(s.gc_survivor_bytes_cold, 0u);
  EXPECT_EQ(s.gc_survivor_bytes_hot, 0u);
  // Survivors (1/4 of the data) cost well under one byte of rewrite per
  // reclaimed byte.
  EXPECT_LT(pm::GcWriteAmp(s), 1.0);
  EXPECT_GT(s.gc_victims, 0u);

  for (int c = 0; c < 2; c++) {
    for (const auto& [off, u] : store->LogForCore(c)->UsageSnapshot()) {
      if (u.cleaner) {
        EXPECT_EQ(u.temp, log::Temp::kCold) << "chunk " << off;
      }
    }
  }
  // Data intact after relocation.
  std::string v;
  for (uint64_t k = 3000; k < 4000; k += 97) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, 0, 200)) << k;
  }
  for (uint64_t k = 0; k < 3000; k += 97) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, 1, 200)) << k;
  }
}

TEST(HotColdSegregation, SegregationOffKeepsEverySurvivorHot) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  auto opts = SegOptions();
  opts.gc_segregate = false;
  opts.gc_cold_age = 0;  // would be cold — but segregation is off
  auto store = FlatStore::Create(&pool, opts);
  StageGarbage(store.get());
  while (store->RunCleanersOnce() > 0) {
  }
  ASSERT_GT(store->ChunksCleaned(), 0u);

  const auto s = pool.stats().Get();
  EXPECT_GT(s.gc_survivor_bytes_hot, 0u);
  EXPECT_EQ(s.gc_survivor_bytes_cold, 0u);
  for (int c = 0; c < 2; c++) {
    for (const auto& [off, u] : store->LogForCore(c)->UsageSnapshot()) {
      if (u.cleaner) {
        EXPECT_EQ(u.temp, log::Temp::kHot) << "chunk " << off;
      }
    }
  }
}

// A cold-lane chunk is relocated as soon as it falls below the one cap,
// like any other chunk. Every survivor goes to the cold lane
// (gc_cold_age = 0); 40 % of the cold keys are then overwritten, which
// leaves the cold chunks a little over half live, under gc_live_ratio.
TEST(HotColdSegregation, ColdChunkUnderTheCapIsRelocated) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  auto opts = SegOptions();
  opts.gc_live_ratio = 0.9;
  opts.gc_cold_age = 0;
  auto store = FlatStore::Create(&pool, opts);
  StageGarbage(store.get());
  while (store->RunCleanersOnce() > 0) {
  }
  for (uint64_t k = 3000; k < 3400; k++) store->Put(k, ValueFor(k, 2, 200));
  std::vector<std::pair<int, uint64_t>> cold;  // (core, chunk)
  for (int c = 0; c < 2; c++) {
    for (const auto& [off, u] : store->LogForCore(c)->UsageSnapshot()) {
      if (!u.cleaner || u.temp != log::Temp::kCold) continue;
      const double ratio = static_cast<double>(u.live_bytes) /
                           static_cast<double>(u.total_bytes);
      EXPECT_LT(ratio, opts.gc_live_ratio) << "chunk " << off;
      EXPECT_GT(ratio, opts.gc_live_ratio / 2) << "chunk " << off;
      cold.push_back({c, off});
    }
  }
  ASSERT_FALSE(cold.empty());
  const uint64_t cleaned = store->ChunksCleaned();
  store->RunCleanersOnce();
  EXPECT_GE(store->ChunksCleaned(), cleaned + cold.size());
  for (const auto& [c, off] : cold) {
    EXPECT_EQ(store->LogForCore(c)->UsageSnapshot().count(off), 0u)
        << "cold chunk " << off << " was not relocated";
  }
  std::string v;
  for (uint64_t k = 3000; k < 4000; k += 37) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, k < 3400 ? 2 : 0, 200)) << k;
  }
}

TEST(QuantumCleaning, BoundedPassesResumeAcrossCalls) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  auto opts = SegOptions();
  opts.gc_quantum_bytes = 32 * 1024;  // far below one victim's extent
  auto store = FlatStore::Create(&pool, opts);
  StageGarbage(store.get());

  // A single bounded pass cannot scan + relocate a ~450 KB victim; the
  // work must spread across multiple resumed passes.
  int passes = 0;
  while (store->ChunksCleaned() == 0) {
    store->RunCleanersOnce();
    passes++;
    ASSERT_LT(passes, 1000) << "bounded cleaning never completed";
  }
  EXPECT_GT(passes, 1) << "quantum did not bound the pass";

  // Drain the rest and verify nothing was lost mid-pipeline.
  while (store->RunCleanersOnce() > 0) {
  }
  std::string v;
  for (uint64_t k = 0; k < 4000; k += 131) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, k < 3000 ? 1 : 0, 200)) << k;
  }
}

TEST(QuantumCleaning, PressureLiftsTheBudget) {
  // With the pool nearly exhausted (pressure level 2) the same tiny
  // quantum must not pace the cleaner: one pass runs unbounded and
  // retires a victim immediately.
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  auto opts = SegOptions();
  opts.gc_quantum_bytes = 4096;
  opts.gc_backpressure_watermark = 10000;  // free count is always <= wm/4
  auto store = FlatStore::Create(&pool, opts);
  StageGarbage(store.get());
  ASSERT_EQ(store->allocator()->MemoryPressure(), 2);

  store->RunCleanersOnce();
  EXPECT_GT(store->ChunksCleaned(), 0u)
      << "pressure level 2 must unbound the quantum";
}

// The cleaner must never separate a live txn chain from a covering
// commit record: relocated members keep their chain flag and are grouped
// contiguously under a fresh commit in the cleaner chunk, so a replay of
// the relocated chunk yields them as committed — zero orphan chains.
TEST(TxnGc, CleanerRelocatesChainsWithCommits) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  fo.gc_live_ratio = 0.95;
  auto store = FlatStore::Create(&pool, fo);

  // 50 transactions of 4 inline puts each: 200 live txn-chain members.
  constexpr uint64_t kTxns = 50;
  constexpr size_t kOpsPerTxn = 4;
  auto txn_key = [](uint64_t t, size_t i) { return 10000 + 4 * t + i; };
  for (uint64_t t = 0; t < kTxns; t++) {
    std::string vals[kOpsPerTxn];
    core::TxnOp ops[kOpsPerTxn];
    for (size_t i = 0; i < kOpsPerTxn; i++) {
      vals[i] = ValueFor(txn_key(t, i), 5, 64);
      ops[i].kind = core::TxnOpKind::kPut;
      ops[i].key = txn_key(t, i);
      ops[i].value = vals[i].data();
      ops[i].len = static_cast<uint32_t>(vals[i].size());
    }
    ASSERT_EQ(store->CommitTxnOnCore(0, ops, kOpsPerTxn),
              core::TxnStatus::kCommitted);
  }
  // Filler sharing the chunk, superseded below so the chunk becomes a
  // victim while every txn member stays live.
  for (uint64_t k = 0; k < 2000; k++) store->Put(k, ValueFor(k, 0, 200));
  store->SealActiveLogChunks();
  for (uint64_t k = 0; k < 2000; k++) store->Put(k, ValueFor(k, 1, 200));

  while (store->RunCleanersOnce() > 0) {
  }
  ASSERT_GT(store->ChunksCleaned(), 0u);

  // Every txn key survived relocation with its value intact.
  std::string v;
  for (uint64_t t = 0; t < kTxns; t++) {
    for (size_t i = 0; i < kOpsPerTxn; i++) {
      ASSERT_TRUE(store->Get(txn_key(t, i), &v)) << txn_key(t, i);
      ASSERT_EQ(v, ValueFor(txn_key(t, i), 5, 64)) << txn_key(t, i);
    }
  }

  // Walk every cleaner-written chunk with the chain-aware reader: the
  // relocated members must still carry the chain flag and be covered by
  // fresh commit records — no orphans, no dropped entries.
  log::OpLog* log = store->LogForCore(0);
  uint64_t reloc_members = 0;
  uint64_t reloc_commits = 0;
  uint64_t cleaner_chunks = 0;
  for (const auto& [off, u] : log->UsageSnapshot()) {
    if (!u.cleaner) continue;
    cleaner_chunks++;
    log::ChainedChunkReader reader(&pool, off, log->CommittedBytes(off));
    log::DecodedEntry e;
    uint64_t eoff;
    while (reader.Next(&e, &eoff)) {
      if (e.op == log::OpType::kTxnCommit) {
        reloc_commits++;
      } else if (e.txn) {
        reloc_members++;
      }
    }
    EXPECT_EQ(reader.orphan_chains(), 0u) << "chunk " << off;
    EXPECT_EQ(reader.dropped_entries(), 0u) << "chunk " << off;
  }
  EXPECT_GT(cleaner_chunks, 0u);
  EXPECT_EQ(reloc_members, kTxns * kOpsPerTxn);
  EXPECT_GT(reloc_commits, 0u);
  // Grouped relocation re-chains members under sub-batch commits: far
  // fewer commits than original txns, but at least one per sub-batch.
  EXPECT_LE(reloc_commits, (reloc_members + 31) / 32 + cleaner_chunks);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
