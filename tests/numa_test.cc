// NUMA placement tests: the vt socket surcharges, the allocator's
// per-socket chunk pools (and the placement-off interleave mode), the
// engine's socket-aligned HB groups, two-socket tree stores (one global
// tree, through crash recovery), and — the end-to-end claim — that
// socket-local placement beats interleaved spread on a two-socket rig.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "core/flatstore.h"
#include "core/server.h"
#include "index/masstree.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace {

std::unique_ptr<pm::PmPool> TwoSocketPool(pm::PmDevice* dev,
                                          uint64_t size = 256ull << 20,
                                          bool crash_tracking = false) {
  pm::PmPool::Options o;
  o.size = size;
  o.device = dev;
  o.num_sockets = 2;
  o.crash_tracking = crash_tracking;
  return std::make_unique<pm::PmPool>(o);
}

TEST(NumaVt, RemoteLoadSurchargeFollowsCurrentSocket) {
  vt::Clock clock;
  clock.set_socket(0);
  vt::ScopedClock bind(&clock);
  EXPECT_EQ(vt::RemoteLoadSurcharge(0), 0u);
  EXPECT_EQ(vt::RemoteLoadSurcharge(1), vt::kRemoteSocketLoadPenalty);
  EXPECT_EQ(vt::RemoteLoadSurcharge(vt::kSocketNone), 0u);
  EXPECT_EQ(vt::RemoteLoadSurcharge(vt::kSocketInterleaved),
            vt::kRemoteSocketLoadPenalty / 2);
}

TEST(NumaVt, ChargeMissAtAddsSurchargeForRemoteHome) {
  vt::Clock clock;
  clock.set_socket(1);
  vt::ScopedClock bind(&clock);
  const uint64_t t0 = clock.now();
  vt::ChargeMissAt(/*home_socket=*/1, vt::kCpuCacheMiss);
  const uint64_t local = clock.now() - t0;
  const uint64_t t1 = clock.now();
  vt::ChargeMissAt(/*home_socket=*/0, vt::kCpuCacheMiss);
  const uint64_t remote = clock.now() - t1;
  EXPECT_EQ(remote - local, vt::kRemoteSocketLoadPenalty);
}

// Masstree charges every node a descent reads through its PmContext, so
// the interleaved home of a two-socket tree store pays half the remote
// surcharge at each level of a serial Get.
TEST(NumaVt, MasstreeGetPaysItsHomeSurchargePerLevel) {
  auto get_vt = [](int home_socket, uint32_t* levels) {
    index::PmContext ctx;
    ctx.home_socket = home_socket;
    index::Masstree tree(ctx);
    for (uint64_t k = 0; k < 5000; k++) tree.Insert(k, k);
    *levels = tree.height();
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    uint64_t v = 0;
    EXPECT_TRUE(tree.Get(2500, &v));
    return clock.now();
  };
  uint32_t levels = 0, levels_none = 0;
  const uint64_t interleaved = get_vt(vt::kSocketInterleaved, &levels);
  const uint64_t none = get_vt(vt::kSocketNone, &levels_none);
  ASSERT_EQ(levels, levels_none);
  ASSERT_GE(levels, 3u);
  EXPECT_EQ(interleaved - none, levels * (vt::kRemoteSocketLoadPenalty / 2));
}

TEST(NumaPool, SocketSpansAreContiguousHalves) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  EXPECT_EQ(pool->num_sockets(), 2);
  EXPECT_EQ(pool->SocketOf(0), 0);
  EXPECT_EQ(pool->SocketOf(pool->size() - 1), 1);
}

TEST(NumaAlloc, FreeChunksPooledPerSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/4);
  const uint64_t total = alloc.free_chunks();
  EXPECT_GT(total, 0u);
  EXPECT_EQ(alloc.free_chunks_on(0) + alloc.free_chunks_on(1), total);
  EXPECT_GT(alloc.free_chunks_on(0), 0u);
  EXPECT_GT(alloc.free_chunks_on(1), 0u);
}

TEST(NumaAlloc, SocketForCoreSplitsContiguously) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/8);
  for (int c = 0; c < 4; c++) EXPECT_EQ(alloc.SocketForCore(c), 0) << c;
  for (int c = 4; c < 8; c++) EXPECT_EQ(alloc.SocketForCore(c), 1) << c;
}

TEST(NumaAlloc, RawChunksComeFromTheCoresSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  const uint64_t a = alloc.AllocRawChunk(/*core=*/0);
  const uint64_t b = alloc.AllocRawChunk(/*core=*/1);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(pool->SocketOf(a), 0);
  EXPECT_EQ(pool->SocketOf(b), 1);
}

TEST(NumaAlloc, LocalExhaustionFallsBackToRemoteSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev, 64ull << 20);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  // Drain socket 0's pool through core 0.
  while (alloc.free_chunks_on(0) > 0) {
    ASSERT_NE(alloc.AllocRawChunk(0), 0u);
  }
  ASSERT_GT(alloc.free_chunks_on(1), 0u);
  // Capacity beats locality: core 0 now gets a socket-1 chunk.
  const uint64_t off = alloc.AllocRawChunk(0);
  ASSERT_NE(off, 0u);
  EXPECT_EQ(pool->SocketOf(off), 1);
}

TEST(NumaAlloc, ValueChunksStayOnTheCoresSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/4);
  std::set<uint64_t> chunks_of[2];
  for (int i = 0; i < 200; i++) {
    for (int core = 0; core < 4; core++) {
      for (uint64_t size : {512u, 4096u}) {
        const uint64_t off = alloc.Alloc(core, size);
        ASSERT_NE(off, 0u);
        const int socket = alloc.SocketForCore(core);
        EXPECT_EQ(pool->SocketOf(off), socket) << "core " << core;
        chunks_of[socket].insert(off / alloc::kChunkSize);
      }
    }
  }
  // Two cores per socket share each class's chunk; sockets never do.
  EXPECT_EQ(chunks_of[0].size(), 2u);
  EXPECT_EQ(chunks_of[1].size(), 2u);
  for (uint64_t c : chunks_of[0]) EXPECT_EQ(chunks_of[1].count(c), 0u) << c;
}

TEST(NumaAlloc, InterleaveModeDealsRoundRobin) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  alloc.SetSocketInterleave(true);
  std::vector<int> sockets;
  for (int i = 0; i < 4; i++) {
    const uint64_t off = alloc.AllocRawChunk(/*core=*/0);
    ASSERT_NE(off, 0u);
    sockets.push_back(pool->SocketOf(off));
  }
  EXPECT_EQ(sockets, (std::vector<int>{0, 1, 0, 1}));
}

TEST(NumaEngine, GroupSizeShrinksToSocketBoundary) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.group_size = 8;  // straddles both sockets
  fo.hash_initial_depth = 4;
  auto store = core::FlatStore::Create(pool.get(), fo);
  EXPECT_EQ(store->options().group_size, 4);
  EXPECT_EQ(store->SocketForCore(0), 0);
  EXPECT_EQ(store->SocketForCore(7), 1);
}

TEST(NumaEngine, PlacementOffKeepsRequestedGroupSize) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.group_size = 8;
  fo.hash_initial_depth = 4;
  fo.socket_local_placement = false;
  auto store = core::FlatStore::Create(pool.get(), fo);
  EXPECT_EQ(store->options().group_size, 8);
}

// A tree store's one tree serves every core, whatever the core count:
// one core on two sockets is a valid store.
TEST(NumaEngine, TreeStoreWithFewerCoresThanSockets) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.index = core::IndexKind::kMasstree;
  auto store = core::FlatStore::Create(pool.get(), fo);
  store->Put(42, "forty-two");
  std::string v;
  ASSERT_TRUE(store->Get(42, &v));
  EXPECT_EQ(v, "forty-two");
}

std::string TreeValue(uint64_t key, int round) {
  // Inline and out-of-log values alike.
  return std::string(16 + (key * 7 + round) % 300,
                     static_cast<char>('a' + (key + round) % 26));
}

// A two-socket tree store, placed or spread, builds the paper's one
// global tree, and puts, overwrites, deletes and a cleaning pass all
// survive a crash.
void CheckTwoSocketTreeStoreRecovers(core::IndexKind kind, bool placed) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev, 256ull << 20, /*crash_tracking=*/true);
  core::FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.index = kind;
  fo.socket_local_placement = placed;
  auto store = core::FlatStore::Create(pool.get(), fo);

  const char* tree_name =
      kind == core::IndexKind::kMasstree ? "Masstree" : "FAST&FAIR";
  for (int c = 0; c < fo.num_cores; c++) {
    ASSERT_EQ(store->IndexForCore(c), store->IndexForCore(0)) << c;
  }
  EXPECT_STREQ(store->IndexForCore(0)->Name(), tree_name);

  constexpr uint64_t kKeys = 3000;
  std::vector<std::string> model(kKeys);
  for (uint64_t k = 0; k < kKeys; k++) {
    model[k] = TreeValue(k, 0);
    store->Put(k, model[k]);
  }
  for (uint64_t k = 0; k < kKeys; k += 2) {
    model[k] = TreeValue(k, 1);
    store->Put(k, model[k]);
  }
  for (uint64_t k = 0; k < kKeys; k += 7) {
    ASSERT_TRUE(store->Delete(k)) << k;
    model[k].clear();
  }
  store->SealActiveLogChunks();
  store->RunCleanersOnce();
  std::vector<std::pair<uint64_t, std::string>> before;
  ASSERT_EQ(store->Scan(100, 50, &before), 50u);

  store.reset();
  pool->SimulateCrash();
  auto recovered = core::FlatStore::Open(pool.get(), fo);
  EXPECT_STREQ(recovered->IndexForCore(0)->Name(), tree_name);
  for (uint64_t k = 0; k < kKeys; k++) {
    std::string v;
    if (model[k].empty()) {
      EXPECT_FALSE(recovered->Get(k, &v)) << k;
    } else {
      ASSERT_TRUE(recovered->Get(k, &v)) << k;
      EXPECT_EQ(v, model[k]) << k;
    }
  }
  std::vector<std::pair<uint64_t, std::string>> after;
  ASSERT_EQ(recovered->Scan(100, 50, &after), 50u);
  EXPECT_EQ(after, before);
}

TEST(NumaEngine, TwoSocketTreeStoreRecovers) {
  for (core::IndexKind kind :
       {core::IndexKind::kMasstree, core::IndexKind::kFastFairVolatile}) {
    for (bool placed : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "index " << static_cast<int>(kind) << " placed "
                   << placed);
      CheckTwoSocketTreeStoreRecovers(kind, placed);
    }
  }
}

// End to end: a two-socket Put run with socket-local placement must beat
// the interleaved-spread configuration (remote persists on ~half the
// flush traffic, half-surcharged index misses).
TEST(NumaEngine, SocketLocalPlacementBeatsSpread) {
  auto run = [](bool placed) {
    auto dev = std::make_unique<pm::PmDevice>(2);
    pm::PmPool::Options po;
    po.size = 512ull << 20;
    po.device = dev.get();
    po.num_sockets = 2;
    auto pool = std::make_unique<pm::PmPool>(po);
    core::FlatStoreOptions fo;
    fo.num_cores = 8;
    fo.group_size = 4;
    fo.hash_initial_depth = 5;
    fo.socket_local_placement = placed;
    auto store = core::FlatStore::Create(pool.get(), fo);
    core::FlatStoreAdapter adapter(store.get());
    core::ServerConfig cfg;
    cfg.num_conns = 24;
    cfg.client_window = 8;
    cfg.ops_per_conn = 400;
    cfg.workload.key_space = 1 << 14;
    cfg.workload.value_len = 64;
    return core::RunServer(&adapter, cfg).mops;
  };
  const double placed = run(true);
  const double spread = run(false);
  EXPECT_GT(placed, spread);
}

}  // namespace
}  // namespace flatstore
