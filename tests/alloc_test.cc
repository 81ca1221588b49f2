// Tests of the lazy-persist allocator: class selection, alignment
// guarantees needed by the 40-bit Ptr encoding, per-socket chunk sharing
// and per-core magazines, free/reuse, emptied chunks returning to the
// free pool, raw chunks, exhaustion, and — most importantly — bitmap
// reconstruction after a crash (the "lazy persist" property).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/lazy_allocator.h"

namespace flatstore {
namespace alloc {
namespace {

class LazyAllocatorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRegion = 64ull << 20;  // 16 chunks

  LazyAllocatorTest() {
    pm::PmPool::Options o;
    o.size = kRegion + kChunkSize;  // first chunk reserved (superblock)
    o.crash_tracking = true;
    pool_ = std::make_unique<pm::PmPool>(o);
    alloc_ =
        std::make_unique<LazyAllocator>(pool_.get(), kChunkSize, kRegion, 4);
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<LazyAllocator> alloc_;
};

TEST(SizeClasses, ClassForPicksSmallestFit) {
  EXPECT_EQ(LazyAllocator::ClassFor(1), 512u);
  EXPECT_EQ(LazyAllocator::ClassFor(512), 512u);
  EXPECT_EQ(LazyAllocator::ClassFor(513), 768u);
  EXPECT_EQ(LazyAllocator::ClassFor(1000), 1024u);
  EXPECT_EQ(LazyAllocator::ClassFor(1048576), 1048576u);
  EXPECT_EQ(LazyAllocator::ClassFor(1048577), 0u);  // raw chunk
}

TEST(SizeClasses, AllMultiplesOf256) {
  for (uint32_t cls : kSizeClasses) EXPECT_EQ(cls % 256, 0u) << cls;
}

TEST_F(LazyAllocatorTest, BlocksAre256Aligned) {
  // The 40-bit Ptr drops the low 8 bits, so this alignment is load-bearing.
  for (uint64_t size : {300u, 700u, 5000u, 100000u}) {
    uint64_t off = alloc_->Alloc(0, size);
    ASSERT_NE(off, 0u);
    EXPECT_EQ(off % 256, 0u) << "size " << size;
  }
}

TEST_F(LazyAllocatorTest, DistinctBlocksNoOverlap) {
  std::set<uint64_t> offs;
  for (int i = 0; i < 1000; i++) {
    uint64_t off = alloc_->Alloc(0, 512);
    ASSERT_NE(off, 0u);
    EXPECT_TRUE(offs.insert(off).second) << "duplicate block";
  }
  // All within one or two 512-class chunks, spaced by >= 512.
  std::vector<uint64_t> v(offs.begin(), offs.end());
  for (size_t i = 1; i < v.size(); i++) EXPECT_GE(v[i] - v[i - 1], 512u);
}

TEST_F(LazyAllocatorTest, FreeAllowsReuse) {
  uint64_t a = alloc_->Alloc(0, 512);
  alloc_->Free(a);
  EXPECT_FALSE(alloc_->IsAllocated(a));
  // The freed block is reusable (same chunk stays current).
  std::set<uint64_t> seen;
  bool reused = false;
  for (uint32_t i = 0; i < LazyAllocator::BlocksPerChunk(512) + 1 && !reused; i++) {
    reused = alloc_->Alloc(0, 512) == a;
  }
  EXPECT_TRUE(reused);
}

TEST_F(LazyAllocatorTest, CoresOfOneSocketShareClassChunks) {
  uint64_t a = alloc_->Alloc(0, 512);
  uint64_t b = alloc_->Alloc(1, 512);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a / kChunkSize, b / kChunkSize)
      << "cores of one socket must fill the same chunk of a class";
  EXPECT_EQ(alloc_->total_chunks() - alloc_->free_chunks(), 1u);
}

TEST(LazyAllocatorFloor, OneOpenChunkPerClassAcrossSixteenCores) {
  constexpr uint64_t kChunks = 64;
  pm::PmPool::Options o;
  o.size = (kChunks + 1) * kChunkSize;
  pm::PmPool pool(o);
  LazyAllocator alloc(&pool, kChunkSize, kChunks * kChunkSize, 16);
  size_t classes = 0;
  for (uint32_t cls : kSizeClasses) {
    // The largest classes hold fewer blocks than 16 cores' refills take.
    if (16 * LazyAllocator::MagazineCapacity(cls) >
        LazyAllocator::BlocksPerChunk(cls)) {
      continue;
    }
    classes++;
    for (int core = 0; core < 16; core++) {
      ASSERT_NE(alloc.Alloc(core, cls), 0u) << "class " << cls;
    }
  }
  EXPECT_EQ(classes, 9u);
  EXPECT_EQ(alloc.total_chunks() - alloc.free_chunks(), classes);
}

TEST_F(LazyAllocatorTest, MagazineBoundsBlocksAndBytes) {
  for (uint32_t cls : kSizeClasses) {
    const uint32_t cap = LazyAllocator::MagazineCapacity(cls);
    EXPECT_GE(cap, 1u) << cls;
    EXPECT_LE(cap, kMagazineBlocks) << cls;
    if (cap > 1) {
      EXPECT_LE(cap * cls, kMagazineBytes) << cls;
    }
  }
  // One refill of the 512 B class sets a full magazine in the bitmap but
  // hands out one block.
  const uint64_t a = alloc_->Alloc(0, 512);
  const uint64_t chunk = a / kChunkSize * kChunkSize;
  uint32_t set = 0;
  for (uint32_t i = 0; i < 2 * kMagazineBlocks; i++) {
    set += alloc_->IsAllocated(chunk + kChunkHeaderSize + i * 512) ? 1 : 0;
  }
  EXPECT_EQ(set, LazyAllocator::MagazineCapacity(512));
  EXPECT_EQ(alloc_->allocated_bytes(), 512u);
}

TEST_F(LazyAllocatorTest, EmptiedChunksReturnToFreePool) {
  const uint64_t start = alloc_->free_chunks();
  std::vector<uint64_t> offs;
  std::set<uint64_t> chunks;
  for (uint32_t i = 0; i < 3 * LazyAllocator::BlocksPerChunk(4096); i++) {
    offs.push_back(alloc_->Alloc(0, 4096));
    ASSERT_NE(offs.back(), 0u);
    chunks.insert(offs.back() / kChunkSize);
  }
  EXPECT_EQ(chunks.size(), 3u);
  for (uint64_t off : offs) alloc_->Free(off);
  EXPECT_GE(alloc_->free_chunks() + 1, start)
      << "emptied chunks other than the current one must be free again";
  EXPECT_EQ(alloc_->allocated_bytes(), 0u);
  // A returned chunk is reformatted for another class on reuse.
  for (int i = 0; i < 20; i++) ASSERT_NE(alloc_->Alloc(1, 1048576), 0u);
}

TEST_F(LazyAllocatorTest, DifferentClassesDifferentChunks) {
  uint64_t a = alloc_->Alloc(0, 512);
  uint64_t b = alloc_->Alloc(0, 4096);
  EXPECT_NE(a / kChunkSize, b / kChunkSize);
}

TEST_F(LazyAllocatorTest, ChunkRollsOverWhenFull) {
  uint32_t blocks = LazyAllocator::BlocksPerChunk(1048576);  // 3 per chunk
  std::set<uint64_t> chunks;
  for (uint32_t i = 0; i < blocks + 1; i++) {
    uint64_t off = alloc_->Alloc(0, 1000000);
    ASSERT_NE(off, 0u);
    chunks.insert(off / kChunkSize);
  }
  EXPECT_EQ(chunks.size(), 2u);
}

TEST_F(LazyAllocatorTest, RawChunkAllocFree) {
  uint64_t before = alloc_->free_chunks();
  uint64_t c = alloc_->AllocRawChunk(2);
  ASSERT_NE(c, 0u);
  EXPECT_EQ(c % kChunkSize, 0u);
  EXPECT_EQ(alloc_->free_chunks(), before - 1);
  EXPECT_TRUE(alloc_->IsAllocated(c + kChunkHeaderSize));
  alloc_->FreeRawChunk(c);
  EXPECT_EQ(alloc_->free_chunks(), before);
}

TEST_F(LazyAllocatorTest, HugeValueUsesRawChunk) {
  uint64_t off = alloc_->Alloc(0, 2 << 20);  // 2 MB > largest class
  ASSERT_NE(off, 0u);
  EXPECT_EQ(off % kChunkSize, kChunkHeaderSize);
  alloc_->Free(off);  // routed to FreeRawChunk
}

TEST_F(LazyAllocatorTest, ExhaustionReturnsZero) {
  // 16 chunks of 1 MB class = 3 blocks each.
  int got = 0;
  while (alloc_->Alloc(0, 1000000) != 0) got++;
  EXPECT_EQ(got, 16 * 3);
  EXPECT_EQ(alloc_->free_chunks(), 0u);
}

TEST_F(LazyAllocatorTest, AllocatedBytesTracksUsage) {
  EXPECT_EQ(alloc_->allocated_bytes(), 0u);
  alloc_->Alloc(0, 512);
  alloc_->Alloc(0, 512);
  EXPECT_EQ(alloc_->allocated_bytes(), 1024u);
}

TEST_F(LazyAllocatorTest, BitmapRecoveredFromPointersAfterCrash) {
  // Allocate blocks across classes/cores; bitmaps are never flushed.
  std::vector<uint64_t> live;
  for (int i = 0; i < 50; i++) live.push_back(alloc_->Alloc(i % 4, 512));
  for (int i = 0; i < 20; i++) live.push_back(alloc_->Alloc(i % 4, 4096));
  uint64_t freed = live.back();
  live.pop_back();
  alloc_->Free(freed);

  // Crash: everything unflushed (i.e., every bitmap) is wiped; only the
  // chunk headers' magic+class survive (persisted at format time).
  pool_->SimulateCrash();

  // Recovery driven by the "log": mark each live pointer.
  alloc_->StartRecovery();
  for (uint64_t off : live) alloc_->MarkBlockAllocated(off);
  alloc_->FinishRecovery();

  for (uint64_t off : live) EXPECT_TRUE(alloc_->IsAllocated(off));
  EXPECT_FALSE(alloc_->IsAllocated(freed));

  // Post-recovery allocation never hands out a live block.
  std::set<uint64_t> live_set(live.begin(), live.end());
  for (int i = 0; i < 200; i++) {
    uint64_t off = alloc_->Alloc(0, 512);
    ASSERT_NE(off, 0u);
    EXPECT_EQ(live_set.count(off), 0u) << "recovered-live block re-issued";
  }
}

TEST_F(LazyAllocatorTest, MagazineBlocksAreFreeAfterCrash) {
  // One live block; the rest of its refill sits in core 0's magazine,
  // set in the (unflushed) bitmap but named by no log entry.
  const uint64_t live = alloc_->Alloc(0, 512);
  const uint64_t chunk = live / kChunkSize * kChunkSize;
  std::vector<uint64_t> held;
  for (uint32_t i = 0; i < LazyAllocator::BlocksPerChunk(512); i++) {
    const uint64_t off = chunk + kChunkHeaderSize + i * 512;
    if (off != live && alloc_->IsAllocated(off)) held.push_back(off);
  }
  ASSERT_EQ(held.size(), LazyAllocator::MagazineCapacity(512) - 1);
  alloc_->PersistMetadata();  // even a flushed bitmap must not keep them
  pool_->SimulateCrash();
  alloc_->StartRecovery();
  alloc_->MarkBlockAllocated(live);
  alloc_->FinishRecovery();
  EXPECT_TRUE(alloc_->IsAllocated(live));
  for (uint64_t off : held) EXPECT_FALSE(alloc_->IsAllocated(off)) << off;
  EXPECT_EQ(alloc_->allocated_bytes(), 512u);
  // The next refill hands the held blocks out again; the live one never.
  std::set<uint64_t> again;
  for (uint32_t i = 0; i < LazyAllocator::MagazineCapacity(512); i++) {
    const uint64_t off = alloc_->Alloc(0, 512);
    ASSERT_NE(off, live);
    again.insert(off);
  }
  for (uint64_t off : held) EXPECT_EQ(again.count(off), 1u) << off;
}

TEST_F(LazyAllocatorTest, RecoveryReclaimsUnreferencedChunks) {
  // Fill several chunks, then "crash" with no live pointers at all:
  // every chunk must come back as free.
  for (int i = 0; i < 100; i++) alloc_->Alloc(0, 65536);
  pool_->SimulateCrash();
  alloc_->StartRecovery();
  alloc_->FinishRecovery();
  EXPECT_EQ(alloc_->free_chunks(), alloc_->total_chunks());
}

TEST_F(LazyAllocatorTest, MarkBlockAllocatedIsIdempotent) {
  uint64_t off = alloc_->Alloc(0, 512);
  pool_->SimulateCrash();
  alloc_->StartRecovery();
  alloc_->MarkBlockAllocated(off);
  alloc_->MarkBlockAllocated(off);  // replay may see a key twice
  alloc_->FinishRecovery();
  uint64_t bytes = alloc_->allocated_bytes();
  EXPECT_EQ(bytes, 512u);
}

TEST_F(LazyAllocatorTest, CleanShutdownPersistsBitmaps) {
  uint64_t a = alloc_->Alloc(0, 512);
  alloc_->PersistMetadata();
  pool_->SimulateCrash();
  // After a clean shutdown the bitmap itself survives; no replay needed.
  ChunkHeader* h = pool_->PtrAt<ChunkHeader>(a & ~(kChunkSize - 1));
  BitmapView bm(h->bitmap, LazyAllocator::BlocksPerChunk(512));
  EXPECT_TRUE(bm.Test((a % kChunkSize - kChunkHeaderSize) / 512));
}

TEST_F(LazyAllocatorTest, CrossCoreFreeReturnsToOwner) {
  // Core 0 allocates; a "cleaner" frees it; core 0 can reuse the space.
  uint32_t blocks = LazyAllocator::BlocksPerChunk(1048576);
  std::vector<uint64_t> offs;
  for (uint32_t i = 0; i < blocks; i++) {
    offs.push_back(alloc_->Alloc(0, 1048576));  // fill chunk completely
  }
  uint64_t full_chunk = offs[0] / kChunkSize;
  alloc_->Free(offs[1]);  // chunk becomes partial again
  // Next allocations eventually reuse the freed block in that chunk.
  bool reused = false;
  for (uint32_t i = 0; i < blocks * 16u && !reused; i++) {
    uint64_t off = alloc_->Alloc(0, 1048576);
    if (off == 0) break;
    reused = off / kChunkSize == full_chunk;
  }
  EXPECT_TRUE(reused);
}

}  // namespace
}  // namespace alloc
}  // namespace flatstore
