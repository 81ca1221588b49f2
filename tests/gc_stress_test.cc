// Sustained-churn stress for the staged cleaner (ctest label: gc-stress).
//
// A serving thread overwrites a working set for many rounds while the
// background cleaners run with a bounded quantum, hot/cold segregation,
// and an armed allocator backpressure watermark — the production
// configuration, at miniature scale. The test holds if (a) every key
// still reads back its final value, (b) the cleaner actually reclaimed
// space (the pool is sized so churn without cleaning would exhaust it),
// and (c) the write-amplification accounting stays self-consistent.
// A synchronous soak checks that cleaning alone keeps PM bounded under
// steady overwrites, pass after pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include "core/flatstore.h"
#include "pm/pm_stats.h"

namespace flatstore {
namespace core {
namespace {

std::string ValueFor(uint64_t key, uint64_t round, size_t len) {
  std::string v(len, char('a' + (key * 31 + round) % 26));
  std::memcpy(&v[0], &key, 8);
  std::memcpy(&v[8], &round, 8);
  return v;
}

TEST(GcStress, ChurnUnderBoundedQuantumAndBackpressure) {
  // 20k keys x ~150 B x 9 writes each = ~27 MB of log traffic through a
  // 96 MB pool: without reclamation the allocator runs dry well before
  // the final round.
  constexpr uint64_t kKeys = 20000;
  constexpr uint64_t kRounds = 8;
  constexpr size_t kValLen = 136;

  pm::PmPool::Options po;
  po.size = 96ull << 20;
  pm::PmPool pool(po);

  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 8;
  fo.gc_live_ratio = 0.9;
  fo.gc_quantum_bytes = 64 * 1024;
  fo.gc_segregate = true;
  fo.gc_cold_age = 64;
  fo.gc_backpressure_watermark = 6;
  auto store = FlatStore::Create(&pool, fo);

  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, ValueFor(k, 0, kValLen));
  }
  store->StartCleaners();

  for (uint64_t r = 1; r <= kRounds; r++) {
    // Skip one residue class per round: ~1/8 of every sealed chunk stays
    // live, so victims carry survivors (exercising relocation, not just
    // whole-chunk drops).
    for (uint64_t k = 0; k < kKeys; k++) {
      if (k % 8 == r % 8) continue;
      store->Put(k, ValueFor(k, r, kValLen));
    }
    // Rotate so the round's garbage becomes collectible behind us.
    store->SealActiveLogChunks();
  }

  // Let the bounded-quantum cleaners drain the backlog. Wait for a
  // survivor-carrying victim too (fully-dead chunks retire first under
  // cost-benefit — they score highest — and relocate nothing).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((store->ChunksCleaned() < 4 ||
          pool.stats().Get().gc_bytes_relocated == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  store->StopCleaners();
  ASSERT_GE(store->ChunksCleaned(), 4u) << "cleaner made no headway";

  // (a) durability: each key's last-written round survives.
  std::string v;
  for (uint64_t k = 0; k < kKeys; k++) {
    const uint64_t last = k % 8 == kRounds % 8 ? kRounds - 1 : kRounds;
    ASSERT_TRUE(store->Get(k, &v)) << "key " << k << " lost";
    ASSERT_EQ(v, ValueFor(k, last, kValLen)) << "key " << k;
  }

  // (b)+(c) accounting: victims were retired, survivors were cheaper
  // than the space they freed, and the histogram-backed WA ratio is a
  // finite, sane number for this churn profile.
  const auto s = pool.stats().Get();
  EXPECT_GT(s.gc_victims, 0u);
  EXPECT_GT(s.gc_bytes_reclaimed, s.gc_bytes_relocated)
      << "cleaning must free more than it rewrites";
  const double wa = pm::GcWriteAmp(s);
  EXPECT_GT(wa, 0.0);
  EXPECT_LT(wa, 1.0);
  EXPECT_EQ(s.gc_survivor_bytes_hot + s.gc_survivor_bytes_cold,
            s.gc_bytes_relocated)
      << "per-temperature survivor counters must partition the total";
}

// The same churn with the cleaners stopped mid-stream and restarted:
// parked pipeline jobs must resume, not restart or leak victims.
TEST(GcStress, CleanerRestartResumesParkedJobs) {
  constexpr uint64_t kKeys = 8000;
  constexpr size_t kValLen = 136;

  pm::PmPool::Options po;
  po.size = 96ull << 20;
  pm::PmPool pool(po);

  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 8;
  fo.gc_live_ratio = 0.9;
  fo.gc_quantum_bytes = 16 * 1024;  // tiny: jobs certainly span restarts
  auto store = FlatStore::Create(&pool, fo);

  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, ValueFor(k, 0, kValLen));
  }
  for (uint64_t r = 1; r <= 3; r++) {
    for (uint64_t k = 0; k < kKeys; k++) {
      store->Put(k, ValueFor(k, r, kValLen));
    }
    store->SealActiveLogChunks();
  }

  for (int cycle = 0; cycle < 6; cycle++) {
    store->StartCleaners();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store->StopCleaners();
  }
  // Finish whatever is still parked, synchronously. A bounded pass can
  // retire nothing (scan-only), so drive a generous fixed budget of
  // passes rather than looping on the return value.
  for (int i = 0; i < 4000; i++) store->RunCleanersOnce();

  EXPECT_GT(store->ChunksCleaned(), 0u);
  std::string v;
  for (uint64_t k = 0; k < kKeys; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << "key " << k << " lost";
    ASSERT_EQ(v, ValueFor(k, 3, kValLen)) << "key " << k;
  }
}

// Steady state with cleaning alone: 60k keys, a third of them
// overwritten each round, maintenance (seal, one pass) after every round
// on a key-ordered store. Chunks decay as their keys are overwritten and
// must be cleaned: free chunks stay above a fixed floor after warm-up,
// for 100 rounds. Every key reads back its last value, before and after
// a crash.
TEST(CleanSoak, FreeChunksStayBounded) {
  constexpr uint64_t kKeys = 60000;
  constexpr uint64_t kPerRound = 20000;
  constexpr uint64_t kRounds = 100;
  constexpr uint64_t kWarmup = 10;
  constexpr uint64_t kFloor = 50;  // of 64 chunks in the 256 MB pool
  constexpr size_t kValLen = 120;

  pm::PmPool::Options po;
  po.size = 256ull << 20;
  pm::PmPool pool(po);
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 8;
  fo.tier_enabled = true;  // keep key order
  std::vector<uint64_t> last(kKeys, 0);
  uint64_t min_free = UINT64_MAX;
  {
    auto store = FlatStore::Create(&pool, fo);
    for (uint64_t k = 0; k < kKeys; k++) {
      store->Put(k, ValueFor(k, 0, kValLen));
    }
    std::mt19937_64 rng(11);
    for (uint64_t r = 1; r <= kRounds; r++) {
      for (uint64_t i = 0; i < kPerRound; i++) {
        const uint64_t k = rng() % kKeys;
        store->Put(k, ValueFor(k, r, kValLen));
        last[k] = r;
      }
      store->SealActiveLogChunks();
      store->RunCleanersOnce();
      if (r < kWarmup) continue;
      const uint64_t free_chunks = store->allocator()->free_chunks();
      min_free = std::min(min_free, free_chunks);
      ASSERT_GE(free_chunks, kFloor) << "round " << r;
    }
    EXPECT_GT(store->ChunksCleaned(), 0u) << "nothing was ever cleaned";
    std::string v;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &v)) << k;
      ASSERT_EQ(v, ValueFor(k, last[k], kValLen)) << k;
    }
  }
  std::printf("[clean-soak] min free chunks after warm-up: %llu\n",
              static_cast<unsigned long long>(min_free));
  // No Shutdown: the reopen takes the crash-recovery path.
  auto store = FlatStore::Open(&pool, fo);
  std::string v;
  for (uint64_t k = 0; k < kKeys; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, last[k], kValLen)) << k;
  }
}

}  // namespace
}  // namespace core
}  // namespace flatstore
