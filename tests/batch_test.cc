// Tests of the horizontal-batching engine: staging/stealing mechanics,
// the four batching modes, flush-count amortization, pipelined lock
// behaviour in simulated time, and multi-threaded stealing correctness.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "batch/hb_engine.h"
#include "log/log_reader.h"
#include "vt/clock.h"

namespace flatstore {
namespace batch {
namespace {

// Stages one encoded entry as a group of one.
bool StageOne(HbEngine& eng, int core, const std::vector<uint8_t>& e,
              uint64_t* handle) {
  const log::OpLog::EntryRef ref{e.data(), static_cast<uint32_t>(e.size())};
  return eng.StageBatch(core, &ref, 1, handle);
}

// Pumps `core` until `handle` completes, as a serving loop would; false
// if it does not complete within a bounded number of turns. Fills the
// entry's log offset.
bool PersistUntilDone(HbEngine& eng, int core, uint64_t handle,
                      uint64_t* off) {
  uint64_t done;
  for (int turn = 0; turn < 1000; turn++) {
    if (eng.IsDone(core, handle, off, &done)) return true;
    eng.TryPersist(core);
  }
  return eng.IsDone(core, handle, off, &done);
}

class HbEngineTest : public ::testing::Test {
 protected:
  static constexpr int kCores = 4;

  HbEngineTest() {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    pool_ = std::make_unique<pm::PmPool>(o);
    root_ = std::make_unique<log::RootArea>(pool_.get());
    root_->Format(kCores);
    alloc_ = std::make_unique<alloc::LazyAllocator>(
        pool_.get(), alloc::kChunkSize, o.size - alloc::kChunkSize, kCores);
    for (int c = 0; c < kCores; c++) {
      logs_.push_back(
          std::make_unique<log::OpLog>(root_.get(), alloc_.get(), c));
    }
  }

  std::unique_ptr<HbEngine> MakeEngine(BatchMode mode, int group_size = 4) {
    std::vector<log::OpLog*> raw;
    for (auto& l : logs_) raw.push_back(l.get());
    return std::make_unique<HbEngine>(std::move(raw), group_size, mode);
  }

  // Encodes a ptr entry for `key`.
  static std::vector<uint8_t> Entry(uint64_t key) {
    std::vector<uint8_t> buf(log::kPtrEntrySize);
    log::EncodePutPtr(buf.data(), key, 1, 0x100u * 256);
    return buf;
  }

  std::unique_ptr<pm::PmPool> pool_;
  std::unique_ptr<log::RootArea> root_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  std::vector<std::unique_ptr<log::OpLog>> logs_;
};

TEST_F(HbEngineTest, StageAndPersistRoundTrip) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  auto e = Entry(42);
  uint64_t h;
  ASSERT_TRUE(StageOne(*eng, 0, e, &h));
  uint64_t off = 0;
  ASSERT_TRUE(PersistUntilDone(*eng, 0, h, &off));
  EXPECT_NE(off, 0u);
  // The entry is really in core 0's log.
  log::DecodedEntry d;
  ASSERT_TRUE(log::DecodeEntry(
      static_cast<const uint8_t*>(pool_->At(off)), 16, &d));
  EXPECT_EQ(d.key, 42u);
  eng->Release(0, h);
}

TEST_F(HbEngineTest, LeaderStealsFollowerEntries) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  // Stage on cores 1..3. Leadership goes to the first core with staged
  // work after the baton (core 1 here); it must steal the others'
  // entries and persist them all into ITS OWN OpLog as one batch.
  std::vector<uint64_t> handles(kCores);
  for (int c = 1; c < kCores; c++) {
    auto e = Entry(100 + static_cast<uint64_t>(c));
    ASSERT_TRUE(StageOne(*eng, c, e, &handles[c]));
  }
  EXPECT_EQ(eng->TryPersist(0), 0u);  // core 0 has nothing staged: defers
  EXPECT_EQ(eng->TryPersist(1), 3u);  // designated pending core leads
  EXPECT_EQ(logs_[1]->entries_appended(), 3u);
  EXPECT_EQ(logs_[2]->entries_appended(), 0u);
  for (int c = 1; c < kCores; c++) {
    uint64_t off, t;
    EXPECT_TRUE(eng->IsDone(c, handles[c], &off, &t));
  }
}

TEST_F(HbEngineTest, VerticalBatchingOnlySelf) {
  auto eng = MakeEngine(BatchMode::kVertical);
  uint64_t h1, h3;
  auto e = Entry(7);
  ASSERT_TRUE(StageOne(*eng, 1, e, &h1));
  ASSERT_TRUE(StageOne(*eng, 3, e, &h3));
  EXPECT_EQ(eng->TryPersist(1), 1u);  // only its own
  uint64_t off, t;
  EXPECT_TRUE(eng->IsDone(1, h1, &off, &t));
  EXPECT_FALSE(eng->IsDone(3, h3, &off, &t));
  EXPECT_EQ(eng->TryPersist(3), 1u);
}

TEST_F(HbEngineTest, GroupingLimitsStealScope) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB, /*group_size=*/2);
  // Cores {0,1} and {2,3} form separate groups.
  uint64_t h1, h2;
  auto e = Entry(7);
  ASSERT_TRUE(StageOne(*eng, 1, e, &h1));
  ASSERT_TRUE(StageOne(*eng, 2, e, &h2));
  EXPECT_EQ(eng->TryPersist(1), 1u);  // persists core 1's group only
  uint64_t off, t;
  EXPECT_TRUE(eng->IsDone(1, h1, &off, &t));
  EXPECT_FALSE(eng->IsDone(2, h2, &off, &t));
}

TEST_F(HbEngineTest, BatchingAmortizesLineFlushes) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  // Warm up chunk allocation on every core (any of them may lead).
  auto e = Entry(1);
  for (int c = 0; c < kCores; c++) {
    uint64_t h;
    ASSERT_TRUE(StageOne(*eng, c, e, &h));
    uint8_t dummy[log::kPtrEntrySize];
    log::EncodePutPtr(dummy, 1, 1, 0x100u * 256);
    log::OpLog::EntryRef ref{dummy, log::kPtrEntrySize};
    uint64_t off;
    ASSERT_TRUE(logs_[c]->AppendBatch(&ref, 1, &off));  // allocate chunk c
    ASSERT_TRUE(PersistUntilDone(*eng, c, h, &off));
    eng->Release(c, h);
  }

  auto before = pool_->stats().Get();
  std::vector<uint64_t> handles;
  for (int c = 0; c < kCores; c++) {
    for (int i = 0; i < 4; i++) {  // 16 entries total
      uint64_t hh;
      ASSERT_TRUE(StageOne(*eng, c, e, &hh));
      handles.push_back(hh);
    }
  }
  // Leadership is round-robin (the baton may sit at any core after the
  // warm-up): pump cores until one of them leads the merged batch.
  size_t persisted = 0;
  for (int c = 0; c < kCores && persisted == 0; c++) {
    persisted = eng->TryPersist(c);
  }
  EXPECT_EQ(persisted, 16u);
  auto d = pm::Delta(before, pool_->stats().Get());
  // 16 x 16 B entries = 4 data lines + 1 tail line.
  EXPECT_EQ(d.lines_flushed, 5u);
}

TEST_F(HbEngineTest, PipelinedReleasesLockBeforePersistInSimTime) {
  // In simulated time the pipelined leader's collection window must be
  // much shorter than the naive leader's (which holds through persist).
  pm::PmDevice device;
  pm::PmPool::Options o;
  o.size = 64ull << 20;
  o.device = &device;
  pm::PmPool timed_pool(o);
  log::RootArea root(&timed_pool);
  root.Format(1);
  alloc::LazyAllocator alloc(&timed_pool, alloc::kChunkSize,
                             o.size - alloc::kChunkSize, 1);
  log::OpLog olog(&root, &alloc, 0);
  std::vector<log::OpLog*> raw{&olog};

  auto run = [&](BatchMode mode) {
    HbEngine eng(raw, 1, mode);
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    auto e = Entry(9);
    uint64_t h;
    EXPECT_TRUE(StageOne(eng, 0, e, &h));
    eng.TryPersist(0);
    return clock.now();
  };
  // Both modes do the same work for a single batch; this is a smoke check
  // that simulated time advances through the device model at all.
  EXPECT_GT(run(BatchMode::kPipelinedHB), 0u);
  EXPECT_GT(run(BatchMode::kNaiveHB), 0u);
}

TEST_F(HbEngineTest, PoolFullReportsBackpressure) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  auto e = Entry(5);
  uint64_t h;
  size_t staged = 0;
  while (StageOne(*eng, 0, e, &h)) staged++;
  EXPECT_EQ(staged, HbEngine::kPoolSlots);
  // Draining makes room again.
  EXPECT_GT(eng->TryPersist(0), 0u);
  uint64_t off, t;
  ASSERT_TRUE(eng->IsDone(0, 0, &off, &t));
  eng->Release(0, 0);
  EXPECT_TRUE(StageOne(*eng, 0, e, &h));
}

TEST_F(HbEngineTest, ConcurrentCoresAllComplete) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  constexpr int kOpsPerCore = 5000;
  std::atomic<uint64_t> total_done{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kCores; c++) {
    threads.emplace_back([&, c] {
      vt::Clock clock;
      vt::ScopedClock bind(&clock);
      std::vector<uint64_t> outstanding;
      uint64_t done = 0;
      uint64_t next_key = static_cast<uint64_t>(c) << 32;
      int staged = 0;
      while (done < kOpsPerCore) {
        // Stage a few ops.
        while (staged < kOpsPerCore && outstanding.size() < 64) {
          auto e = Entry(next_key++);
          uint64_t h;
          if (!StageOne(*eng, c, e, &h)) break;
          outstanding.push_back(h);
          staged++;
        }
        eng->TryPersist(c);
        // Drain completions in FIFO order.
        while (!outstanding.empty()) {
          uint64_t off, t;
          if (!eng->IsDone(c, outstanding.front(), &off, &t)) break;
          eng->Release(c, outstanding.front());
          outstanding.erase(outstanding.begin());
          done++;
        }
      }
      total_done.fetch_add(done);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total_done.load(), static_cast<uint64_t>(kCores) * kOpsPerCore);

  // Every staged entry landed in exactly one log; entries are intact.
  uint64_t total_logged = 0;
  for (auto& l : logs_) total_logged += l->entries_appended();
  EXPECT_EQ(total_logged, static_cast<uint64_t>(kCores) * kOpsPerCore);
  EXPECT_GT(eng->batches(), 0u);
}

// Election: while the group has staged work, an idle core (vt::CoreIdle,
// read from the bound core clocks) leads before any core with staged
// work. A busy stager's Pump defers to it and charges its own clock
// nothing.
TEST_F(HbEngineTest, IdleCoreLeadsForABusyStager) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  vt::Clock clocks[kCores];
  vt::Clock* bound[kCores];
  for (int c = 0; c < kCores; c++) bound[c] = &clocks[c];
  vt::ScopedCoreClocks cores(bound, kCores);
  clocks[0].AdvanceTo(1000);
  clocks[1].AdvanceTo(5000);
  clocks[1].set_idle(true);
  std::vector<uint64_t> handles(3);
  {
    vt::ScopedClock bind(&clocks[0]);
    for (int i = 0; i < 3; i++) {
      auto e = Entry(200 + static_cast<uint64_t>(i));
      ASSERT_TRUE(StageOne(*eng, 0, e, &handles[i]));
    }
    const uint64_t before = clocks[0].now();
    EXPECT_EQ(eng->TryPersist(0), 0u);
    EXPECT_EQ(clocks[0].now(), before);
  }
  {
    vt::ScopedClock bind(&clocks[1]);
    EXPECT_EQ(eng->TryPersist(1), 3u);
  }
  for (uint64_t h : handles) {
    uint64_t off, t;
    EXPECT_TRUE(eng->IsDone(0, h, &off, &t));
  }
  EXPECT_EQ(logs_[1]->entries_appended(), 3u);
  EXPECT_EQ(eng->batches_led(0), 0u);
  EXPECT_EQ(eng->batches_led(1), 1u);
  // Its clock was ahead of every stage time: nothing to wait for.
  EXPECT_EQ(clocks[1].idle_ns(), 0u);
}

// With no core idle, leadership rotates among the cores with staged work
// from the baton on, the core after the last leader.
TEST_F(HbEngineTest, WithoutIdleCoresStagersLeadInTurn) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  auto stage = [&](std::initializer_list<int> cores) {
    for (int c : cores) {
      auto e = Entry(300 + static_cast<uint64_t>(c));
      uint64_t h;
      ASSERT_TRUE(StageOne(*eng, c, e, &h));
    }
  };
  auto pump_all = [&] {
    std::vector<size_t> n;
    for (int c = 0; c < kCores; c++) n.push_back(eng->TryPersist(c));
    return n;
  };
  stage({1, 2, 3});  // baton at 0, which has nothing: core 1 leads
  EXPECT_EQ(pump_all(), (std::vector<size_t>{0, 3, 0, 0}));
  stage({0, 2});  // baton at 2, which staged: core 0 defers to it
  EXPECT_EQ(pump_all(), (std::vector<size_t>{0, 0, 2, 0}));
  stage({0, 1});  // baton at 3, which has nothing: wraps to core 0
  EXPECT_EQ(pump_all(), (std::vector<size_t>{2, 0, 0, 0}));
  for (int c = 0; c < kCores; c++) {
    EXPECT_EQ(eng->batches_led(c), c == 3 ? 0u : 1u) << "core " << c;
  }
}

// An idle leader whose clock is behind every staged entry waits until the
// earliest one and takes it; the wait is idle time on its clock.
TEST_F(HbEngineTest, IdleLeaderBehindTheStagersWaitsForTheEarliestEntry) {
  auto eng = MakeEngine(BatchMode::kPipelinedHB);
  vt::Clock clocks[kCores];
  vt::Clock* bound[kCores];
  for (int c = 0; c < kCores; c++) bound[c] = &clocks[c];
  vt::ScopedCoreClocks cores(bound, kCores);
  clocks[0].AdvanceTo(10000);
  clocks[2].AdvanceTo(20000);
  clocks[1].AdvanceTo(2000);
  clocks[1].set_idle(true);
  uint64_t h0, h2;
  for (int c : {0, 2}) {
    vt::ScopedClock bind(&clocks[c]);
    auto e = Entry(400 + static_cast<uint64_t>(c));
    ASSERT_TRUE(StageOne(*eng, c, e, c == 0 ? &h0 : &h2));
  }
  {
    vt::ScopedClock bind(&clocks[1]);
    EXPECT_EQ(eng->TryPersist(1), 1u);
  }
  uint64_t off, t;
  EXPECT_TRUE(eng->IsDone(0, h0, &off, &t));
  EXPECT_GE(t, 10000u);
  // The entry staged at 20,000 is in the leader's future.
  EXPECT_FALSE(eng->IsDone(2, h2, &off, &t));
  // It waited from about 2,000 (plus the election's few charges) to
  // 10,000.
  EXPECT_GT(clocks[1].idle_ns(), 7000u);
  EXPECT_LE(clocks[1].idle_ns(), 8000u);
  EXPECT_EQ(eng->batches_led(1), 1u);
}

TEST_F(HbEngineTest, ModeNames) {
  EXPECT_STREQ(BatchModeName(BatchMode::kNone), "none");
  EXPECT_STREQ(BatchModeName(BatchMode::kVertical), "vertical");
  EXPECT_STREQ(BatchModeName(BatchMode::kNaiveHB), "naive-hb");
  EXPECT_STREQ(BatchModeName(BatchMode::kPipelinedHB), "pipelined-hb");
}

}  // namespace
}  // namespace batch
}  // namespace flatstore
