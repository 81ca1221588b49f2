// Tests of the compacted log: entry encode/decode bit layout, OpLog batch
// append (flush counts, padding, tail records, rollover), the chunk
// registry, the chunk reader's padding-skip rule, and tail recovery after
// crashes.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "log/layout.h"
#include "log/log_entry.h"
#include "log/log_reader.h"
#include "common/random.h"
#include "log/oplog.h"

namespace flatstore {
namespace log {
namespace {

TEST(LogEntry, PtrEntryRoundTrip) {
  uint8_t buf[kPtrEntrySize];
  uint32_t len = EncodePutPtr(buf, 0xDEADBEEFCAFEull, 77, 0x123400);
  EXPECT_EQ(len, kPtrEntrySize);
  DecodedEntry e;
  ASSERT_TRUE(DecodeEntry(buf, sizeof(buf), &e));
  EXPECT_EQ(e.op, OpType::kPut);
  EXPECT_FALSE(e.embedded);
  EXPECT_EQ(e.version, 77u);
  EXPECT_EQ(e.key, 0xDEADBEEFCAFEull);
  EXPECT_EQ(e.ptr, 0x123400u);
  EXPECT_EQ(e.entry_len, kPtrEntrySize);
}

TEST(LogEntry, ValueEntryRoundTrip) {
  uint8_t buf[kMaxEntrySize];
  uint8_t value[256];
  for (int i = 0; i < 256; i++) value[i] = static_cast<uint8_t>(i);
  for (uint32_t vlen : {1u, 8u, 100u, 255u, 256u}) {
    uint32_t len = EncodePutValue(buf, 42, 3, value, vlen);
    EXPECT_EQ(len, kValueEntryHeader + vlen);
    DecodedEntry e;
    ASSERT_TRUE(DecodeEntry(buf, sizeof(buf), &e));
    EXPECT_TRUE(e.embedded);
    EXPECT_EQ(e.value_len, vlen);
    EXPECT_EQ(std::memcmp(e.value, value, vlen), 0);
  }
}

TEST(LogEntry, DeleteTombstoneCarriesCoveredSeq) {
  uint8_t buf[kPtrEntrySize];
  EncodeDelete(buf, 5, 9, 31337);
  DecodedEntry e;
  ASSERT_TRUE(DecodeEntry(buf, sizeof(buf), &e));
  EXPECT_EQ(e.op, OpType::kDelete);
  EXPECT_EQ(e.ptr, 31337u);  // covered sequence, not shifted
  EXPECT_EQ(e.version, 9u);
}

TEST(LogEntry, PaperBitOffsets) {
  // Fig. 3: Op at bit 0 (2b), Emd at bit 2, Version at [4,24), Key at
  // byte 3, Ptr at byte 11.
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 0x1122334455667788ull, 0xABCDE, 0xAABBCCDD00ull << 8);
  EXPECT_EQ(buf[0] & 0x3, 1);          // kPut
  EXPECT_EQ((buf[0] >> 2) & 0x3, 0);   // not embedded
  uint32_t version = (static_cast<uint32_t>(buf[0]) >> 4) |
                     (static_cast<uint32_t>(buf[1]) << 4) |
                     (static_cast<uint32_t>(buf[2]) << 12);
  EXPECT_EQ(version, 0xABCDEu);
  uint64_t key;
  std::memcpy(&key, buf + 3, 8);
  EXPECT_EQ(key, 0x1122334455667788ull);
}

TEST(LogEntry, VersionWraps20Bits) {
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 1, (1u << 20) | 5, 0x100);  // version overflows
  DecodedEntry e;
  ASSERT_TRUE(DecodeEntry(buf, sizeof(buf), &e));
  EXPECT_EQ(e.version, 5u);
}

TEST(LogEntry, ZeroBytesDoNotDecode) {
  uint8_t buf[kPtrEntrySize] = {};
  DecodedEntry e;
  EXPECT_FALSE(DecodeEntry(buf, sizeof(buf), &e));
}

TEST(LogEntry, SixteenEntriesSpanFourLines) {
  // The headline compaction claim: 16 ptr-based entries = 256 B = 4 lines
  // (vs. 16 lines if entries were line-sized).
  EXPECT_EQ(16 * kPtrEntrySize, 256u);
}

TEST(PackedIndexValue, RoundTrip) {
  uint64_t p = PackIndexValue(0x123456789ull, 0xFFFFF);
  EXPECT_EQ(UnpackOffset(p), 0x123456789ull);
  EXPECT_EQ(UnpackVersion(p), 0xFFFFFu);
}

// ---- OpLog fixture ------------------------------------------------------

class OpLogTest : public ::testing::Test {
 protected:
  OpLogTest() {
    pm::PmPool::Options o;
    o.size = 128ull << 20;
    o.crash_tracking = true;
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

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<RootArea> root_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  std::unique_ptr<OpLog> log_;
  uint64_t next_key_ = 1;
};

TEST_F(OpLogTest, RootAreaFormatAndDetect) {
  EXPECT_TRUE(root_->IsFormatted());
  EXPECT_EQ(root_->superblock()->num_cores, 2u);
}

TEST_F(OpLogTest, BatchOf16EntriesFlushesFourLinesPlusTail) {
  AppendPtrBatch(1);  // allocate the first chunk out of the way
  auto before = pool_->stats().Get();
  AppendPtrBatch(16);
  auto d = pm::Delta(before, pool_->stats().Get());
  // 16 x 16 B entries, batch-aligned: 4 data lines + 1 tail line.
  EXPECT_EQ(d.lines_flushed, 5u);
  EXPECT_EQ(d.fences, 2u);  // entries fence + tail fence
}

TEST_F(OpLogTest, BatchingAmortizesFlushes) {
  AppendPtrBatch(1);
  auto before = pool_->stats().Get();
  for (int i = 0; i < 16; i++) AppendPtrBatch(1);  // unbatched
  uint64_t unbatched = pm::Delta(before, pool_->stats().Get()).lines_flushed;
  before = pool_->stats().Get();
  AppendPtrBatch(16);  // batched
  uint64_t batched = pm::Delta(before, pool_->stats().Get()).lines_flushed;
  EXPECT_EQ(unbatched, 32u);  // 1 entry line + 1 tail line each
  EXPECT_EQ(batched, 5u);
}

TEST_F(OpLogTest, PaddingKeepsBatchesOnDistinctLines) {
  auto offs1 = AppendPtrBatch(3);  // 48 B: not line aligned
  auto offs2 = AppendPtrBatch(1);
  EXPECT_EQ(offs2[0] % kCachelineSize, 0u);
  EXPECT_NE(CachelineIndex(offs2[0]),
            CachelineIndex(offs1.back() + kPtrEntrySize - 1));
}

TEST_F(OpLogTest, UnpaddedBatchesShareLines) {
  OpLog::Options o;
  o.pad_batches = false;
  OpLog raw(root_.get(), alloc_.get(), 1, o);
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 1, 1, 0x100u * 256);
  OpLog::EntryRef ref{buf, kPtrEntrySize};
  uint64_t off1, off2;
  ASSERT_TRUE(raw.AppendBatch(&ref, 1, &off1));
  ASSERT_TRUE(raw.AppendBatch(&ref, 1, &off2));
  EXPECT_EQ(off2, off1 + kPtrEntrySize);  // back to back, same line
}

TEST_F(OpLogTest, TailRecordsRotateAcrossLines) {
  AppendPtrBatch(1);
  AppendPtrBatch(1);
  uint64_t seq;
  uint64_t tail = root_->ReadTail(0, &seq);
  EXPECT_EQ(seq, log_->tail_seq());
  EXPECT_EQ(tail, log_->tail());
  // The two tail records landed on different cachelines.
  auto* area = root_->tails(0);
  EXPECT_EQ(area->lines[1].slot.seq, 1u);
  EXPECT_EQ(area->lines[2].slot.seq, 2u);
}

TEST_F(OpLogTest, ReaderIteratesBatchesAcrossPadding) {
  AppendPtrBatch(3);
  AppendPtrBatch(5);
  AppendPtrBatch(1);
  auto usage = log_->UsageSnapshot();
  ASSERT_EQ(usage.size(), 1u);
  uint64_t chunk = usage.begin()->first;
  LogChunkReader reader(pool_.get(), chunk, log_->CommittedBytes(chunk));
  DecodedEntry e;
  uint64_t off;
  uint64_t keys_seen = 0;
  while (reader.Next(&e, &off)) {
    EXPECT_EQ(e.key, ++keys_seen);
  }
  EXPECT_EQ(keys_seen, 9u);
}

TEST_F(OpLogTest, ChunkRolloverSealsAndRegisters) {
  // Fill more than one chunk with large embedded entries.
  std::vector<uint8_t> value(256, 0xAB);
  uint8_t buf[kMaxEntrySize];
  const int entries_per_chunk =
      static_cast<int>(kLogDataBytes / (kValueEntryHeader + 256 + 52)) + 16;
  for (int i = 0; i < entries_per_chunk; i++) {
    uint32_t len = EncodePutValue(buf, static_cast<uint64_t>(i), 1,
                                  value.data(), 256);
    OpLog::EntryRef ref{buf, len};
    uint64_t off;
    ASSERT_TRUE(log_->AppendBatch(&ref, 1, &off));
  }
  auto usage = log_->UsageSnapshot();
  ASSERT_EQ(usage.size(), 2u);
  int sealed = 0;
  for (const auto& [off, u] : usage) sealed += u.sealed ? 1 : 0;
  EXPECT_EQ(sealed, 1);
  // Both chunks registered.
  int registered = 0;
  for (uint64_t s = 0; s < kRegistrySlots; s++) {
    if (root_->registry()[s].chunk_off != 0) registered++;
  }
  EXPECT_EQ(registered, 2);
  // Reading both chunks yields every key exactly once.
  uint64_t total = 0;
  for (const auto& [off, u] : usage) {
    LogChunkReader reader(pool_.get(), off, log_->CommittedBytes(off));
    DecodedEntry e;
    uint64_t eo;
    while (reader.Next(&e, &eo)) total++;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(entries_per_chunk));
}

TEST_F(OpLogTest, NoteDeadDrivesVictimSelection) {
  auto offs = AppendPtrBatch(16);
  // Fill & seal the chunk by rolling to a new one.
  std::vector<uint8_t> value(256, 1);
  uint8_t buf[kMaxEntrySize];
  while (log_->UsageSnapshot().size() < 2) {
    uint32_t len = EncodePutValue(buf, 999999, 1, value.data(), 256);
    OpLog::EntryRef ref{buf, len};
    uint64_t off;
    ASSERT_TRUE(log_->AppendBatch(&ref, 1, &off));
    offs.push_back(off);
  }
  VictimQuery q;
  q.live_ratio = 0.5;
  q.max = 8;
  EXPECT_TRUE(log_->PickVictims(q).empty());  // everything live
  const uint64_t first_chunk = log_->UsageSnapshot().begin()->first;
  for (uint64_t off : offs) {
    if (AlignDown(off, alloc::kChunkSize) == first_chunk) log_->NoteDead(off);
  }
  auto victims = log_->PickVictims(q);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].chunk_off, first_chunk);
}

TEST_F(OpLogTest, ReleaseChunkUnregistersAndFrees) {
  AppendPtrBatch(4);
  // Roll over to seal chunk 1.
  std::vector<uint8_t> value(256, 1);
  uint8_t buf[kMaxEntrySize];
  while (log_->UsageSnapshot().size() < 2) {
    uint32_t len = EncodePutValue(buf, 7, 1, value.data(), 256);
    OpLog::EntryRef ref{buf, len};
    uint64_t off;
    ASSERT_TRUE(log_->AppendBatch(&ref, 1, &off));
  }
  uint64_t victim = log_->UsageSnapshot().begin()->first;
  uint64_t free_before = alloc_->free_chunks();
  log_->ReleaseChunk(victim);
  EXPECT_EQ(alloc_->free_chunks(), free_before + 1);
  EXPECT_EQ(log_->UsageSnapshot().size(), 1u);
}

TEST_F(OpLogTest, TailSurvivesCrash) {
  AppendPtrBatch(5);
  AppendPtrBatch(3);
  uint64_t committed_tail = log_->tail();
  uint64_t committed_seq = log_->tail_seq();
  pool_->SimulateCrash();
  uint64_t seq;
  EXPECT_EQ(root_->ReadTail(0, &seq), committed_tail);
  EXPECT_EQ(seq, committed_seq);
}

TEST_F(OpLogTest, CrashMidBatchKeepsOldTail) {
  AppendPtrBatch(4);
  uint64_t old_tail = log_->tail();
  // Cut power after 1 more flush: the next batch's entries may land but
  // the tail record must not.
  pool_->SetFlushBudget(1);
  AppendPtrBatch(8);
  pool_->SimulateCrash();
  uint64_t seq;
  EXPECT_EQ(root_->ReadTail(0, &seq), old_tail);
  // Replay to the recovered tail sees exactly the first batch.
  uint64_t chunk = AlignDown(old_tail, alloc::kChunkSize);
  LogChunkReader reader(pool_.get(), chunk,
                        old_tail - (chunk + kLogDataOff));
  DecodedEntry e;
  uint64_t off;
  int n = 0;
  while (reader.Next(&e, &off)) n++;
  EXPECT_EQ(n, 4);
}

TEST_F(OpLogTest, CleanerAppendCommitsViaUsedFinal) {
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 77, 2, 0x200u * 256);
  OpLog::EntryRef ref{buf, kPtrEntrySize};
  uint64_t off;
  ASSERT_TRUE(log_->CleanerAppendBatch(&ref, 1, &off));
  // Tail untouched; the cleaner chunk is registered and carries its
  // committed extent in used_final.
  EXPECT_EQ(log_->tail(), 0u);
  auto usage = log_->UsageSnapshot();
  ASSERT_EQ(usage.size(), 1u);
  uint64_t chunk = usage.begin()->first;
  EXPECT_TRUE(usage.begin()->second.cleaner);
  EXPECT_EQ(log_->CommittedBytes(chunk), kPtrEntrySize);
  // Readable after a crash (used_final was persisted).
  pool_->SimulateCrash();
  LogChunkReader reader(pool_.get(), chunk, kPtrEntrySize);
  DecodedEntry e;
  uint64_t eo;
  ASSERT_TRUE(reader.Next(&e, &eo));
  EXPECT_EQ(e.key, 77u);
}

TEST_F(OpLogTest, ReusedChunkDoesNotResurrectStaleEntries) {
  // Incarnation A fills a full cacheline of entries, then the chunk is
  // freed and reused by incarnation B, which writes a single entry. After
  // a crash, replaying B's chunk must see exactly B's entry — A's stale
  // bytes in the padding gap must not decode (they are durable in the
  // shadow from A's persists!).
  auto offs_a = AppendPtrBatch(4);  // 64 B: exactly one line, persisted
  const uint64_t chunk = AlignDown(offs_a[0], alloc::kChunkSize);
  log_->ReleaseChunk(chunk);

  OpLog reincarnation(root_.get(), alloc_.get(), 0);
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 424242, 1, 0x100u * 256);
  OpLog::EntryRef ref{buf, kPtrEntrySize};
  uint64_t off;
  ASSERT_TRUE(reincarnation.AppendBatch(&ref, 1, &off));
  ASSERT_EQ(AlignDown(off, alloc::kChunkSize), chunk) << "chunk not reused";
  // Second batch: the padding gap between the two batches now lies inside
  // the committed range — exactly where A's stale bytes would sit.
  EncodePutPtr(buf, 424243, 1, 0x100u * 256);
  uint64_t off2;
  ASSERT_TRUE(reincarnation.AppendBatch(&ref, 1, &off2));

  pool_->SimulateCrash();
  uint64_t committed = reincarnation.tail() - (chunk + kLogDataOff);
  LogChunkReader reader(pool_.get(), chunk, committed);
  DecodedEntry e;
  uint64_t eo;
  int n = 0;
  while (reader.Next(&e, &eo)) {
    EXPECT_TRUE(e.key == 424242u || e.key == 424243u)
        << "stale entry resurrected: key " << e.key;
    n++;
  }
  EXPECT_EQ(n, 2);
}

TEST_F(OpLogTest, VictimSelectionSparesTheTailChunk) {
  // Forced rotation seals the active chunk while the durable tail record
  // still points into it. Even fully dead it must not become a victim:
  // retiring it would leave a crash-time tail referencing a freed chunk.
  auto offs = AppendPtrBatch(4);
  const uint64_t chunk = AlignDown(offs[0], alloc::kChunkSize);
  for (uint64_t off : offs) log_->NoteDead(off);
  log_->SealActiveChunk();
  VictimQuery q;
  q.live_ratio = 1.0;
  q.max = 8;
  EXPECT_TRUE(log_->PickVictims(q).empty());
  // Once the tail moves to a fresh chunk the old one is fair game.
  AppendPtrBatch(1);
  auto victims = log_->PickVictims(q);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].chunk_off, chunk);
}

TEST_F(OpLogTest, TornTailSlotFailsCheckAndFallsBack) {
  AppendPtrBatch(4);
  const uint64_t good_tail = log_->tail();
  const uint64_t good_seq = log_->tail_seq();
  AppendPtrBatch(2);
  // Tear the newest tail record the way an 8-byte-atomic medium can: its
  // seq word persisted but its tail word did not. The check word no
  // longer validates, so recovery must fall back to the previous slot.
  auto* area = root_->tails(0);
  TailSlot& newest = area->lines[2].slot;
  ASSERT_EQ(newest.seq, 2u);
  newest.tail = 0;  // torn away
  uint64_t seq;
  EXPECT_EQ(root_->ReadTail(0, &seq), good_tail);
  EXPECT_EQ(seq, good_seq);
}

TEST_F(OpLogTest, GarbageTailSlotsNeverValidate) {
  AppendPtrBatch(3);
  const uint64_t good_tail = log_->tail();
  auto* area = root_->tails(0);
  // A slot full of stale garbage with a huge seq must lose to the honest
  // record: without the check word it would hijack recovery.
  TailSlot& junk = area->lines[5].slot;
  junk.seq = ~0ull;
  junk.tail = 0xDEAD000;
  junk.check = 12345;  // not TailCheck(seq, tail)
  uint64_t seq;
  EXPECT_EQ(root_->ReadTail(0, &seq), good_tail);
  EXPECT_EQ(seq, 1u);
}

TEST_F(OpLogTest, ProvisionalRegistryRecordIsScrubbedAndSkipped) {
  auto offs = AppendPtrBatch(2);  // one real, committed chunk
  const uint64_t real_chunk = AlignDown(offs[0], alloc::kChunkSize);
  // Forge the crash state RegisterChunk's step (1) leaves behind: the
  // slot is claimed provisional but the final offset was never stored.
  ChunkRecord* recs = root_->registry();
  uint64_t slot = kRegistrySlots;
  for (uint64_t s = 0; s < kRegistrySlots; s++) {
    if (recs[s].chunk_off == 0) {
      slot = s;
      break;
    }
  }
  ASSERT_LT(slot, kRegistrySlots);
  const uint64_t ghost_chunk = real_chunk + alloc::kChunkSize;
  recs[slot].chunk_off = ghost_chunk | kChunkProvisional;
  recs[slot].core = 99;  // garbage — never durably committed
  recs[slot].seq = 7;

  // The mirror must not believe in the ghost chunk...
  root_->RebuildMirror();
  int core;
  uint32_t cseq;
  EXPECT_FALSE(root_->ChunkInfo(ghost_chunk, &core, &cseq));
  EXPECT_TRUE(root_->ChunkInfo(real_chunk, &core, &cseq));
  // ...and the scrub frees exactly the forged slot.
  EXPECT_EQ(root_->ScrubProvisionalRecords(), 1u);
  EXPECT_EQ(recs[slot].chunk_off, 0u);
  EXPECT_EQ(root_->ScrubProvisionalRecords(), 0u);
  EXPECT_TRUE(root_->ChunkInfo(real_chunk, &core, &cseq));
}

TEST_F(OpLogTest, AdoptRecoveredStateResumesAppend) {
  AppendPtrBatch(5);
  uint64_t tail = log_->tail();
  auto usage = log_->UsageSnapshot();
  // Build a fresh OpLog as recovery would.
  OpLog recovered(root_.get(), alloc_.get(), 0);
  recovered.AdoptRecoveredState(tail, log_->tail_seq(), usage);
  EXPECT_EQ(recovered.tail(), tail);
  // Appending continues in the same chunk, after the old tail.
  uint8_t buf[kPtrEntrySize];
  EncodePutPtr(buf, 1234, 1, 0x100u * 256);
  OpLog::EntryRef ref{buf, kPtrEntrySize};
  uint64_t off;
  ASSERT_TRUE(recovered.AppendBatch(&ref, 1, &off));
  EXPECT_GT(off, tail);
  EXPECT_EQ(AlignDown(off, alloc::kChunkSize),
            AlignDown(tail, alloc::kChunkSize));
}

TEST(LogEntryFuzz, RandomBytesNeverMisbehave) {
  // DecodeEntry over random buffers: must never claim an entry longer
  // than the readable window, and successful decodes must be
  // re-encodable to identical semantics.
  Rng rng(0xF122);
  uint8_t buf[kMaxEntrySize + 8];
  for (int round = 0; round < 20000; round++) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    const uint64_t window = 1 + rng.Uniform(sizeof(buf));
    DecodedEntry e;
    if (!DecodeEntry(buf, window, &e)) continue;
    ASSERT_LE(e.entry_len, window);
    ASSERT_TRUE(e.op == OpType::kPut || e.op == OpType::kDelete ||
                e.op == OpType::kTxnCommit);
    if (e.op == OpType::kTxnCommit) {
      // Commit records are fixed-size and never carry an inline value.
      ASSERT_EQ(e.entry_len, kPtrEntrySize);
      ASSERT_FALSE(e.embedded);
    }
    if (e.embedded) {
      ASSERT_GE(e.value_len, 1u);
      ASSERT_LE(e.value_len, kMaxInlineValue);
      ASSERT_EQ(e.value, buf + 12);
    }
  }
}

TEST(LogReaderFuzz, RandomChunkContentTerminates) {
  // A reader over arbitrary bytes must terminate and never report an
  // entry beyond the committed window.
  pm::PmPool::Options o;
  o.size = 8ull << 20;
  pm::PmPool pool(o);
  Rng rng(0x5EED);
  auto* data = static_cast<uint8_t*>(pool.At(kLogDataOff));
  for (int round = 0; round < 200; round++) {
    const uint64_t committed = rng.Uniform(64 * 1024);
    for (uint64_t i = 0; i < committed; i++) {
      data[i] = static_cast<uint8_t>(rng.Next());
    }
    LogChunkReader reader(&pool, 0, committed);
    DecodedEntry e;
    uint64_t off;
    uint64_t entries = 0;
    while (reader.Next(&e, &off)) {
      ASSERT_GE(off, kLogDataOff);
      ASSERT_LE(off - kLogDataOff + e.entry_len, committed);
      entries++;
      ASSERT_LT(entries, committed + 1) << "reader failed to terminate";
    }
  }
}

}  // namespace
}  // namespace log
}  // namespace flatstore
