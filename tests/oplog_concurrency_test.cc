// Concurrency tests for the two OpLog races fixed by the thread-safety
// pass (see oplog.h):
//
//  * next_chunk_seq_ is fetch_add'ed by BOTH append paths' rollovers —
//    the old plain increment could hand two chunks the same sequence
//    number. The first test drives serving and cleaner rollovers from
//    two threads and asserts every chunk sequence is unique.
//
//  * chunk_/tail_/tail_seq_/cleaner_chunk_ are written by the append
//    paths and read by the cleaner's victim-selection path without the
//    usage lock. The second test hammers PickVictims/CommittedBytes/
//    tail() from a reader thread during appends; under
//    -DFLATSTORE_SANITIZE=thread (the tsan_smoke label) any residual
//    race is a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "log/layout.h"
#include "log/log_entry.h"
#include "log/oplog.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace log {
namespace {

class OpLogConcurrencyTest : public ::testing::Test {
 protected:
  OpLogConcurrencyTest() {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    root_ = std::make_unique<RootArea>(pool_.get());
    root_->Format(/*num_cores=*/2);
    alloc_ = std::make_unique<alloc::LazyAllocator>(
        pool_.get(), alloc::kChunkSize, o.size - alloc::kChunkSize, 2);
    log_ = std::make_unique<OpLog>(root_.get(), alloc_.get(), 0);
  }

  // One ptr-entry batch through the given append path.
  bool Append(bool cleaner, int n, uint64_t key_base) {
    std::vector<std::vector<uint8_t>> bufs(static_cast<size_t>(n));
    std::vector<OpLog::EntryRef> refs(static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
      bufs[static_cast<size_t>(i)].resize(kPtrEntrySize);
      EncodePutPtr(bufs[static_cast<size_t>(i)].data(),
                   key_base + static_cast<uint64_t>(i), 1, 0x100u * 256);
      refs[static_cast<size_t>(i)] = {bufs[static_cast<size_t>(i)].data(),
                                      kPtrEntrySize};
    }
    std::vector<uint64_t> offs(static_cast<size_t>(n));
    return cleaner ? log_->CleanerAppendBatch(refs.data(), refs.size(),
                                              offs.data())
                   : log_->AppendBatch(refs.data(), refs.size(), offs.data());
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<RootArea> root_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  std::unique_ptr<OpLog> log_;
};

TEST_F(OpLogConcurrencyTest, ConcurrentRolloversAssignUniqueChunkSeqs) {
  constexpr int kRounds = 12;
  std::thread serving([&] {
    for (int r = 0; r < kRounds; r++) {
      ASSERT_TRUE(Append(/*cleaner=*/false, 8, 1000u * (r + 1)));
      log_->SealActiveChunk();  // force a serving-path rollover next append
    }
  });
  std::thread cleaner([&] {
    for (int r = 0; r < kRounds; r++) {
      ASSERT_TRUE(Append(/*cleaner=*/true, 8, 500000u + 1000u * (r + 1)));
      log_->RotateCleanerChunk();  // force a cleaner-path rollover
    }
  });
  serving.join();
  cleaner.join();

  const std::map<uint64_t, ChunkUsage> usage = log_->UsageSnapshot();
  // Both paths rolled over every round, so a healthy run registers at
  // least kRounds chunks per path (plus the two initial ones).
  ASSERT_GE(usage.size(), static_cast<size_t>(2 * kRounds));
  std::set<uint32_t> seqs;
  for (const auto& [off, u] : usage) {
    EXPECT_TRUE(seqs.insert(u.seq).second)
        << "duplicate chunk seq " << u.seq << " at chunk offset " << off;
  }
}

TEST_F(OpLogConcurrencyTest, VictimScanRacesAppendsSafely) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t tail = log_->tail();
      if (tail != 0) {
        // The committed extent of whatever chunk holds the tail must
        // never exceed a chunk's data capacity.
        const uint64_t chunk_off = (tail / alloc::kChunkSize) *
                                   alloc::kChunkSize;
        EXPECT_LE(log_->CommittedBytes(chunk_off), kLogDataBytes);
      }
      VictimQuery q;
      q.live_ratio = 1.1;
      q.max = 8;
      for (const VictimInfo& v : log_->PickVictims(q)) {
        EXPECT_NE(v.chunk_off, 0u);
        EXPECT_EQ(v.chunk_off % alloc::kChunkSize, 0u);
      }
      (void)log_->MinSeq();
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int r = 0; r < 40; r++) {
    ASSERT_TRUE(Append(/*cleaner=*/false, 16, 1000u * (r + 1)));
    if (r % 5 == 4) log_->SealActiveChunk();
    if (r % 8 == 7) {
      ASSERT_TRUE(Append(/*cleaner=*/true, 16, 900000u + 1000u * r));
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(scans.load(std::memory_order_relaxed), 0u);
  // Final consistency: the tail is inside a registered chunk.
  const uint64_t tail = log_->tail();
  ASSERT_NE(tail, 0u);
  const auto usage = log_->UsageSnapshot();
  const uint64_t tail_chunk = (tail / alloc::kChunkSize) * alloc::kChunkSize;
  EXPECT_TRUE(usage.count(tail_chunk) != 0);
}

}  // namespace
}  // namespace log
}  // namespace flatstore
