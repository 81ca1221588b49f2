// Tests of the emulated PM pool: persistence semantics under the shadow
// crash model, flush budgets (power cut mid-operation), offset mapping,
// statistics, timing integration with the virtual clock, and the lazily
// zeroed mapping (first-touch cost, Zero(), page-granular crash restore).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "core/fsck.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace pm {
namespace {

PmPool::Options CrashOpts(uint64_t size = 8ull << 20) {
  PmPool::Options o;
  o.size = size;
  o.crash_tracking = true;
  return o;
}

TEST(PmPool, SizeRoundedUpTo4MB) {
  PmPool pool(PmPool::Options{.size = 1, .crash_tracking = false});
  EXPECT_EQ(pool.size(), 4ull << 20);
}

TEST(PmPool, OffsetRoundTrip) {
  PmPool pool(CrashOpts());
  char* p = pool.base() + 12345;
  EXPECT_EQ(pool.At(pool.OffsetOf(p)), p);
  EXPECT_EQ(pool.OffsetOf(pool.At(999)), 999u);
}

TEST(PmPool, UnpersistedStoresVanishOnCrash) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0xAB, 128);
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[127], 0);
}

TEST(PmPool, PersistedStoresSurviveCrash) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0xAB, 128);
  pool.PersistFence(p, 128);
  std::memset(p + 128, 0xCD, 64);  // not persisted
  pool.SimulateCrash();
  EXPECT_EQ(static_cast<unsigned char>(p[0]), 0xAB);
  EXPECT_EQ(static_cast<unsigned char>(p[127]), 0xAB);
  EXPECT_EQ(p[128], 0);  // unflushed line rolled back
}

TEST(PmPool, PersistGranularityIsWholeCachelines) {
  // Persisting byte 0 makes the *whole first line* durable (adversarial
  // model still persists at line granularity, like real hardware).
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0x11, 64);
  pool.PersistFence(p, 1);
  pool.SimulateCrash();
  EXPECT_EQ(static_cast<unsigned char>(p[63]), 0x11);
}

TEST(PmPool, UnalignedRangeCoversStraddledLines) {
  PmPool pool(CrashOpts());
  char* p = pool.base() + 60;  // straddles line 0 and line 1
  std::memset(p, 0x22, 8);
  pool.PersistFence(p, 8);
  pool.SimulateCrash();
  EXPECT_EQ(static_cast<unsigned char>(pool.base()[60]), 0x22);
  EXPECT_EQ(static_cast<unsigned char>(pool.base()[67]), 0x22);
}

TEST(PmPool, CrashIsRepeatable) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  p[0] = 1;
  pool.PersistFence(p, 1);
  p[1] = 2;  // lost
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[1], 0);
  p[2] = 3;
  pool.PersistFence(p + 2, 1);
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[2], 3);
}

TEST(PmPool, FlushBudgetCutsPowerMidSequence) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  pool.SetFlushBudget(2);
  // Three line flushes; only the first two reach the durable image.
  for (int i = 0; i < 3; i++) {
    p[i * 64] = static_cast<char>(i + 1);
    pool.PersistFence(p + i * 64, 1);
  }
  EXPECT_TRUE(pool.PowerLost());
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[64], 2);
  EXPECT_EQ(p[128], 0);  // third flush was beyond the budget
}

TEST(PmPool, NegativeBudgetMeansUnlimited) {
  PmPool pool(CrashOpts());
  pool.SetFlushBudget(-1);
  char* p = pool.base();
  for (int i = 0; i < 100; i++) {
    p[i * 64] = 1;
    pool.PersistFence(p + i * 64, 1);
  }
  EXPECT_FALSE(pool.PowerLost());
  pool.SimulateCrash();
  for (int i = 0; i < 100; i++) EXPECT_EQ(p[i * 64], 1);
}

TEST(PmPool, StatsCountLinesAndFences) {
  PmPool pool(CrashOpts());
  auto before = pool.stats().Get();
  pool.Persist(pool.base(), 256);  // 4 lines
  pool.Persist(pool.base() + 4096, 1);
  pool.Fence();
  auto d = Delta(before, pool.stats().Get());
  EXPECT_EQ(d.persist_calls, 2u);
  EXPECT_EQ(d.lines_flushed, 5u);
  EXPECT_EQ(d.fences, 1u);
  EXPECT_EQ(d.bytes_persisted, 257u);
}

TEST(PmPool, TimingChargesClockThroughDevice) {
  PmDevice device;
  PmPool::Options o;
  o.size = 8ull << 20;
  o.device = &device;
  PmPool pool(o);

  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  pool.Persist(pool.base(), 64);
  uint64_t after_persist = clock.now();
  EXPECT_GE(after_persist, vt::kClwbIssueCost);
  EXPECT_GT(clock.pending_fence(), after_persist);  // flush in flight
  pool.Fence();
  // Fence waits out the device service + ADR latency.
  EXPECT_GE(clock.now(),
            vt::kPmBlockService + vt::kPmFlushLatency);
  EXPECT_EQ(clock.pending_fence(), 0u);
}

TEST(PmPool, NoClockNoCharge) {
  PmDevice device;
  PmPool::Options o;
  o.size = 4ull << 20;
  o.device = &device;
  PmPool pool(o);
  // No bound clock: persist/fence must be safe no-ops timing-wise.
  pool.PersistFence(pool.base(), 4096);
  SUCCEED();
}

TEST(PmPool, ZeroLengthPersistIsNoop) {
  PmPool pool(CrashOpts());
  auto before = pool.stats().Get();
  pool.Persist(pool.base(), 0);
  auto d = Delta(before, pool.stats().Get());
  EXPECT_EQ(d.persist_calls, 0u);
  EXPECT_EQ(d.lines_flushed, 0u);
}

// --- flush-budget edge semantics -------------------------------------------

TEST(PmPool, BudgetExhaustsMidMultiLinePersist) {
  // A single Persist spanning four lines with budget 2: exactly the first
  // two lines become durable, and the cut is visible (PowerLost) already
  // inside the call's effects — not only at the next SetFlushBudget poll.
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0x5A, 256);
  pool.SetFlushBudget(2);
  pool.PersistFence(p, 256);
  EXPECT_TRUE(pool.PowerLost());
  pool.SimulateCrash();
  EXPECT_EQ(static_cast<unsigned char>(p[0]), 0x5A);
  EXPECT_EQ(static_cast<unsigned char>(p[127]), 0x5A);
  EXPECT_EQ(p[128], 0);
  EXPECT_EQ(p[255], 0);
}

TEST(PmPool, ZeroBudgetLosesPowerBeforeAnyFlush) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  pool.SetFlushBudget(0);
  EXPECT_TRUE(pool.PowerLost());
  p[0] = 1;
  pool.PersistFence(p, 1);
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 0);
}

TEST(PmPool, BudgetReArmsAfterSimulateCrash) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  pool.SetFlushBudget(1);
  p[0] = 1;
  pool.PersistFence(p, 1);
  EXPECT_TRUE(pool.PowerLost());
  pool.SimulateCrash();
  // The crash disables the budget: recovery-time persists are unlimited.
  EXPECT_FALSE(pool.PowerLost());
  p[64] = 2;
  pool.PersistFence(p + 64, 1);
  // A new budget must arm a fresh cut cycle (loss state fully reset).
  pool.SetFlushBudget(1);
  p[128] = 3;
  pool.PersistFence(p + 128, 1);
  p[192] = 4;
  pool.PersistFence(p + 192, 1);
  EXPECT_TRUE(pool.PowerLost());
  pool.SimulateCrash();
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[64], 2);
  EXPECT_EQ(p[128], 3);
  EXPECT_EQ(p[192], 0);  // beyond the re-armed budget
}

// --- adversarial crash modes ------------------------------------------------

TEST(PmPool, TornModeTearsExactlyTheCutLine) {
  // Budget 2 under kTorn: line 0 persists whole, line 1 (the exhausting
  // flush) keeps an 8-byte-word subset, line 2 is lost entirely.
  bool saw_partial = false;
  for (uint64_t seed = 0; seed < 24; seed++) {
    PmPool pool(CrashOpts());
    char* p = pool.base();
    std::memset(p, 0x11, 3 * 64);
    pool.SetCrashMode(PmPool::CrashMode::kTorn, seed);
    pool.SetFlushBudget(2);
    for (int i = 0; i < 3; i++) pool.PersistFence(p + i * 64, 1);
    pool.SimulateCrash();
    for (int b = 0; b < 64; b++) EXPECT_EQ(p[b], 0x11);
    for (int b = 128; b < 192; b++) EXPECT_EQ(p[b], 0);
    int new_words = 0;
    for (int w = 0; w < 8; w++) {
      uint64_t word;
      std::memcpy(&word, p + 64 + 8 * w, 8);
      // Every word is atomically old (zero) or new — never shredded.
      EXPECT_TRUE(word == 0 || word == 0x1111111111111111ull);
      if (word != 0) new_words++;
    }
    if (new_words > 0 && new_words < 8) saw_partial = true;
  }
  EXPECT_TRUE(saw_partial) << "no seed in the sweep produced a torn line";
}

TEST(PmPool, TornModeIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    PmPool pool(CrashOpts());
    char* p = pool.base();
    std::memset(p, 0x77, 64);
    pool.SetCrashMode(PmPool::CrashMode::kTorn, seed);
    pool.SetFlushBudget(1);
    pool.PersistFence(p, 1);
    pool.SimulateCrash();
    return std::vector<char>(p, p + 64);
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(9), run(9));
}

TEST(PmPool, UnorderedModeFencedLinesAlwaysPersist) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  pool.SetCrashMode(PmPool::CrashMode::kUnordered, 3);
  std::memset(p, 0x33, 128);
  pool.Persist(p, 128);
  pool.Fence();  // both lines ordered and committed
  pool.SetFlushBudget(1);
  p[256] = 1;
  pool.Persist(p + 256, 1);  // exhausts the budget, unfenced
  pool.SimulateCrash();
  EXPECT_EQ(static_cast<unsigned char>(p[0]), 0x33);
  EXPECT_EQ(static_cast<unsigned char>(p[127]), 0x33);
}

TEST(PmPool, UnorderedModeUnfencedSubsetPersists) {
  // Four lines flushed, power cut before the fence: each line
  // independently persists whole or not at all. Some seed in the sweep
  // must drop a line while keeping a later one (the reordering kClean can
  // never produce).
  bool saw_reorder = false;
  for (uint64_t seed = 0; seed < 32; seed++) {
    PmPool pool(CrashOpts());
    char* p = pool.base();
    std::memset(p, 0x44, 4 * 64);
    pool.SetCrashMode(PmPool::CrashMode::kUnordered, seed);
    pool.SetFlushBudget(4);
    pool.Persist(p, 4 * 64);  // budget exhausts on the 4th line
    pool.SimulateCrash();
    bool persisted[4], dropped_before_persisted = false;
    for (int i = 0; i < 4; i++) {
      const unsigned char first = p[i * 64];
      EXPECT_TRUE(first == 0 || first == 0x44);
      for (int b = 0; b < 64; b++) EXPECT_EQ(p[i * 64 + b], first);
      persisted[i] = first != 0;
    }
    for (int i = 0; i < 4; i++) {
      for (int j = i + 1; j < 4; j++) {
        if (!persisted[i] && persisted[j]) dropped_before_persisted = true;
      }
    }
    if (dropped_before_persisted) saw_reorder = true;
  }
  EXPECT_TRUE(saw_reorder) << "no seed reordered the unfenced flushes";
}

TEST(PmPool, EvictionModeMayPersistUnflushedLines) {
  // A dirty-but-never-flushed line must sometimes survive the cut: code
  // that relies on unflushed data being LOST is broken on real PM.
  bool saw_eviction = false;
  for (uint64_t seed = 0; seed < 32; seed++) {
    PmPool pool(CrashOpts());
    char* p = pool.base();
    p[0] = 1;
    pool.PersistFence(p, 1);   // durable regardless
    std::memset(p + 64, 0x66, 64);  // dirty, never flushed
    pool.SetCrashMode(PmPool::CrashMode::kEviction, seed);
    pool.SetFlushBudget(1);
    p[128] = 2;
    pool.PersistFence(p + 128, 1);  // exhausts the budget
    pool.SimulateCrash();
    EXPECT_EQ(p[0], 1);
    const unsigned char dirty = p[64];
    EXPECT_TRUE(dirty == 0 || dirty == 0x66);
    for (int b = 0; b < 64; b++) EXPECT_EQ(p[64 + b], dirty);
    if (dirty == 0x66) saw_eviction = true;
  }
  EXPECT_TRUE(saw_eviction) << "no seed ever evicted the dirty line";
}

TEST(PmPool, EvictionResolvesAtSimulateCrashWithoutBudget) {
  // Even without a flush budget, a SimulateCrash in eviction mode treats
  // itself as the power cut: dirty lines may persist.
  bool saw_eviction = false;
  for (uint64_t seed = 0; seed < 32; seed++) {
    PmPool pool(CrashOpts());
    char* p = pool.base();
    std::memset(p, 0x29, 64);  // dirty
    pool.SetCrashMode(PmPool::CrashMode::kEviction, seed);
    pool.SimulateCrash();
    const unsigned char dirty = p[0];
    EXPECT_TRUE(dirty == 0 || dirty == 0x29);
    if (dirty == 0x29) saw_eviction = true;
  }
  EXPECT_TRUE(saw_eviction);
}

TEST(PmPool, CrashModeSurvivesAcrossCutCycles) {
  // The mode and its seed stream carry over SimulateCrash so multi-cycle
  // scenarios (crash fuzzing) stay in the adversarial regime.
  PmPool pool(CrashOpts());
  pool.SetCrashMode(PmPool::CrashMode::kTorn, 1);
  pool.SetFlushBudget(1);
  pool.base()[0] = 1;
  pool.PersistFence(pool.base(), 1);
  pool.SimulateCrash();
  EXPECT_EQ(pool.crash_mode(), PmPool::CrashMode::kTorn);
}

// --- lazily zeroed mapping --------------------------------------------------

long MinorFaults() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(PmPool, FreshLargePoolIsZeroAndCostsNoPages) {
  const long before = MinorFaults();
  PmPool pool(CrashOpts(1ull << 30));
  const long faults = MinorFaults() - before;
  // Neither the pool nor its shadow is written at construction; only the
  // 32 KB page bitmap is.
  EXPECT_LT(faults, 64) << "constructing the pool touched its pages";
  for (uint64_t off = 0; off < pool.size(); off += 64ull << 20) {
    EXPECT_EQ(pool.base()[off], 0);
    EXPECT_EQ(pool.base()[off + 4095], 0);
  }
  EXPECT_EQ(pool.base()[pool.size() - 1], 0);
}

TEST(PmPool, ZeroReadsBackZeroAndSparesTheEdges) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0x5C, 6 * PmPool::kPageSize);
  // Partial first page, two whole pages, partial last page.
  const uint64_t off = PmPool::kPageSize - 100;
  const uint64_t len = 2 * PmPool::kPageSize + 300;
  pool.Zero(off, len);
  for (uint64_t b = 0; b < 6 * PmPool::kPageSize; b++) {
    const bool inside = b >= off && b < off + len;
    ASSERT_EQ(static_cast<unsigned char>(p[b]), inside ? 0 : 0x5C) << b;
  }
  // A range inside one page takes the memset path.
  pool.Zero(5 * PmPool::kPageSize + 8, 16);
  EXPECT_EQ(static_cast<unsigned char>(p[5 * PmPool::kPageSize + 7]), 0x5C);
  EXPECT_EQ(p[5 * PmPool::kPageSize + 8], 0);
  EXPECT_EQ(p[5 * PmPool::kPageSize + 23], 0);
  EXPECT_EQ(static_cast<unsigned char>(p[5 * PmPool::kPageSize + 24]), 0x5C);
}

TEST(PmPool, UnpersistedZeroIsUndoneByCrash) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  std::memset(p, 0x3D, 4 * PmPool::kPageSize);
  pool.PersistFence(p, 4 * PmPool::kPageSize);
  pool.Zero(0, 4 * PmPool::kPageSize);  // volatile, like a memset
  EXPECT_EQ(p[PmPool::kPageSize], 0);
  pool.SimulateCrash();
  for (uint64_t b = 0; b < 4 * PmPool::kPageSize; b++) {
    ASSERT_EQ(static_cast<unsigned char>(p[b]), 0x3D) << b;
  }
}

// One crash cycle touching every shadow-writing path: fenced lines, a
// volatile Zero over persisted data, dirty never-flushed lines, unfenced
// in-flight lines, and a budget that runs out on a line alone on its
// page (so the torn mode's partial write is that page's only mark).
// `mark_all` first persists every line of the pool, which marks every
// shadow page: the page-granular restore then degenerates into a full
// copy of the shadow, the reference the lazy restore must match.
std::vector<char> CrashImage(PmPool::CrashMode mode, uint64_t seed,
                             bool mark_all) {
  PmPool pool(CrashOpts());
  char* p = pool.base();
  const uint64_t pg = PmPool::kPageSize;
  if (mark_all) pool.PersistFence(p, pool.size());
  std::memset(p, 0x11, 2 * pg);
  pool.PersistFence(p, 2 * pg);
  pool.Zero(pg, pg);
  std::memset(p + 3 * pg, 0x22, 256);  // dirty, never flushed
  pool.SetCrashMode(mode, seed);
  pool.SetFlushBudget(3);
  std::memset(p + 5 * pg, 0x33, 128);
  pool.Persist(p + 5 * pg, 128);  // two lines in flight, unfenced
  std::memset(p + 7 * pg + 64, 0x44, 64);
  pool.PersistFence(p + 7 * pg + 64, 64);  // the budget's last line
  std::memset(p + 9 * pg, 0x55, 64);
  pool.PersistFence(p + 9 * pg, 64);  // past the cut
  pool.SimulateCrash();
  // A second cycle: the marks and the restore must carry over.
  std::memset(p + 11 * pg, 0x66, 64);
  pool.PersistFence(p + 11 * pg, 64);
  std::memset(p + 12 * pg, 0x77, 64);
  pool.SimulateCrash();
  return std::vector<char>(p, p + pool.size());
}

TEST(PmPool, PageRestoreMatchesFullCopyInEveryMode) {
  for (PmPool::CrashMode mode :
       {PmPool::CrashMode::kClean, PmPool::CrashMode::kTorn,
        PmPool::CrashMode::kUnordered, PmPool::CrashMode::kEviction}) {
    for (uint64_t seed = 0; seed < 8; seed++) {
      EXPECT_TRUE(CrashImage(mode, seed, false) ==
                  CrashImage(mode, seed, true))
          << PmPool::CrashModeName(mode) << " seed " << seed;
    }
  }
}

TEST(PmPool, TornLineAloneOnItsPageSurvivesTheCrash) {
  // The torn subset is the only shadow write on its page: the restore
  // must still copy that page back. Some seed keeps a nonzero word.
  bool saw_word = false;
  for (uint64_t seed = 0; seed < 8; seed++) {
    const std::vector<char> img =
        CrashImage(PmPool::CrashMode::kTorn, seed, false);
    for (uint64_t b = 7 * PmPool::kPageSize + 64;
         b < 7 * PmPool::kPageSize + 128; b++) {
      if (img[b] != 0) saw_word = true;
    }
  }
  EXPECT_TRUE(saw_word);
}

TEST(PmPoolDeathTest, AccessPastTheEndFaults) {
  PmPool pool(CrashOpts());
  volatile char* past = pool.base() + pool.size();
  EXPECT_DEATH(*past = 1, "");
}

TEST(PmPool, StoreReCreatedOverUsedPoolRecoversClean) {
  PmPool pool(CrashOpts(64ull << 20));
  core::FlatStoreOptions opts;
  opts.num_cores = 2;
  opts.group_size = 2;
  const std::string old_value(600, 'o');  // out-of-log value blocks
  {
    auto store = core::FlatStore::Create(&pool, opts);
    for (uint64_t k = 1; k <= 3000; k++) store->Put(k, old_value);
    store->SealActiveLogChunks();
  }
  // A second Create formats only the registry records the pool can use;
  // the old log chunks' bytes stay behind and must never replay.
  auto store = core::FlatStore::Create(&pool, opts);
  for (uint64_t k = 2001; k <= 4000; k++) {
    store->Put(k, "new" + std::to_string(k));
  }
  store->Delete(2001);
  store.reset();
  pool.SimulateCrash();
  const core::FsckReport report = core::FsckPool(pool);
  EXPECT_TRUE(report.ok) << report.Summary();
  auto recovered = core::FlatStore::Open(&pool, opts);
  std::string v;
  EXPECT_FALSE(recovered->Get(1, &v));
  EXPECT_FALSE(recovered->Get(2000, &v));
  EXPECT_FALSE(recovered->Get(2001, &v));
  ASSERT_TRUE(recovered->Get(2002, &v));
  EXPECT_EQ(v, "new2002");
  ASSERT_TRUE(recovered->Get(4000, &v));
  EXPECT_EQ(v, "new4000");
}

}  // namespace
}  // namespace pm
}  // namespace flatstore
