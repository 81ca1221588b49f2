// Steady-state allocation test for the serving hot paths.
//
// The asynchronous protocol (BeginWriteBatch -> Pump -> Drain -> Get) must
// not touch the heap once warm: the HB engine batches through fixed
// per-core scratch arrays, the pending-op queue is a fixed ring, and the
// in-flight key table is a pre-sized open-addressed table. This binary
// overrides the global allocation functions to count every heap call and
// asserts the steady-state delta is zero.
//
// Known cold-path allocations stay out of the measured window: chunk
// rollover (a std::map insert in OpLog) is avoided by keeping the
// measured write volume far below one 4 MB chunk, and out-of-log values
// (> 256 B) are avoided by using inline-sized values.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "net/flatrpc.h"
#include "pm/pm_pool.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flatstore {
namespace core {
namespace {

TEST(HotPathAlloc, PutGetDrainCycleIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  constexpr uint64_t kKeys = 64;
  constexpr uint32_t kValueLen = 64;  // inline (<= 256 B): no block alloc
  uint8_t value[kValueLen];
  std::memset(value, 0x42, sizeof(value));

  std::vector<FlatStore::Completion> done;
  done.reserve(2 * batch::HbEngine::kPoolSlots);
  std::string read_value;
  read_value.reserve(512);

  auto cycle = [&] {
    for (uint64_t k = 0; k < kKeys; k++) {
      const WriteOp op{k, value, kValueLen};
      FlatStore::OpHandle h;
      OpStatus st;
      ASSERT_EQ(store->BeginWriteBatch(0, &op, 1, &h, &st), 1u);
    }
    store->Pump(0);
    done.clear();
    store->Drain(0, SIZE_MAX, &done);
    ASSERT_EQ(done.size(), kKeys);
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &read_value));
      ASSERT_EQ(read_value.size(), kValueLen);
    }
  };

  // Warm-up: index insertions, CCEH growth, ring/table/scratch
  // high-water marks.
  for (int i = 0; i < 10; i++) cycle();

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) cycle();
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "serving hot loop heap-allocated " << (after - before)
      << " times across 100 warm put/pump/drain/get cycles";
}

// The same cycle on a store keeping key order, over keys already in its
// key tree: overwriting a key adds nothing to the key order (only keys
// new to the index do), so the cycle stays off the heap. A maintenance
// pass, and the frees it defers, run before the measured window.
TEST(HotPathAlloc, KeyOrderedPutGetDrainCycleIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  fo.tier_enabled = true;  // keep key order
  auto store = FlatStore::Create(&pool, fo);

  constexpr uint64_t kKeys = 64;
  constexpr uint32_t kValueLen = 64;  // inline (<= 256 B): no block alloc
  const std::string initial(kValueLen, 'i');
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, initial);
  store->RunCleanersOnce();
  store->epochs()->DrainDeferred();

  uint8_t value[kValueLen];
  std::memset(value, 0x42, sizeof(value));
  std::vector<FlatStore::Completion> done;
  done.reserve(2 * batch::HbEngine::kPoolSlots);
  std::string read_value;
  read_value.reserve(512);

  auto cycle = [&] {
    for (uint64_t k = 0; k < kKeys; k++) {
      const WriteOp op{k, value, kValueLen};
      FlatStore::OpHandle h;
      OpStatus st;
      ASSERT_EQ(store->BeginWriteBatch(0, &op, 1, &h, &st), 1u);
    }
    store->Pump(0);
    done.clear();
    store->Drain(0, SIZE_MAX, &done);
    ASSERT_EQ(done.size(), kKeys);
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &read_value));
      ASSERT_EQ(read_value.size(), kValueLen);
    }
  };

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) cycle();
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "key-ordered serving loop heap-allocated " << (after - before)
      << " times across 100 put/pump/drain/get cycles";
}

// The batched read pipeline: once the ReadResult strings reached their
// high-water capacity, repeated MultiGet batches (epoch pin, prefetch
// hints, probes, log/block reads) must not touch the heap — all per-batch
// state is stack-resident (kMaxReadBatch bounds it).
TEST(HotPathAlloc, MultiGetBatchIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  constexpr size_t kBatch = 32;
  std::string value(64, 'v');  // inline-sized
  for (uint64_t k = 0; k < kBatch; k++) store->Put(k, value);

  uint64_t keys[kBatch];
  for (size_t i = 0; i < kBatch; i++) {
    // Mix in absent keys: the kAbsent path must be alloc-free too.
    keys[i] = (i % 5 == 4) ? 1000 + i : i;
  }
  std::vector<ReadResult> results(kBatch);

  // Warm-up: result strings grow to their steady capacity.
  for (int i = 0; i < 10; i++) {
    store->MultiGetOnCore(0, keys, kBatch, results.data());
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) {
    store->MultiGetOnCore(0, keys, kBatch, results.data());
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "MultiGet heap-allocated " << (after - before)
      << " times across 100 warm batches";
}

// Coalesced repeats: a warm batch in which inline and out-of-log keys
// repeat (the dedup table, the leader list and the copies into each
// repeat's result string) stays off the heap too.
TEST(HotPathAlloc, MultiGetWithRepeatedKeysIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  store->Put(1, std::string(64, 'i'));    // inline
  store->Put(2, std::string(1024, 'b'));  // out-of-log block
  constexpr size_t kBatch = 16;
  uint64_t keys[kBatch];
  for (size_t i = 0; i < kBatch; i++) keys[i] = 1 + (i * 7 % 3);  // 1, 2, 3
  std::vector<ReadResult> results(kBatch);

  // Warm-up: result strings grow to their steady capacity.
  for (int i = 0; i < 10; i++) {
    store->MultiGetOnCore(0, keys, kBatch, results.data());
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) {
    store->MultiGetOnCore(0, keys, kBatch, results.data());
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "MultiGet with repeats heap-allocated " << (after - before)
      << " times across 100 warm batches";
}

// The batched write pipeline: a warm MultiPutOnCore batch (version
// resolution with prefetch hints, batch encode, fused StageBatch, pump,
// batched drain) must not touch the heap — all per-batch state lives in
// stack arrays bounded by kMaxWriteBatch, and the drain's per-round
// scratch is likewise stack-resident.
TEST(HotPathAlloc, MultiPutBatchIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  constexpr size_t kBatch = kMaxWriteBatch;
  constexpr uint32_t kValueLen = 48;  // inline: no out-of-log block alloc
  uint8_t value[kValueLen];
  std::memset(value, 0x5a, sizeof(value));

  WriteOp ops[kBatch];
  OpStatus statuses[kBatch];
  for (size_t i = 0; i < kBatch; i++) {
    ops[i] = {static_cast<uint64_t>(i), value, kValueLen, false};
  }

  // Warm-up: index insertions and scratch high-water marks; the measured
  // window then overwrites the same keys (retirement included).
  for (int i = 0; i < 10; i++) {
    ASSERT_EQ(store->MultiPutOnCore(0, ops, kBatch, statuses), kBatch);
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(store->MultiPutOnCore(0, ops, kBatch, statuses), kBatch);
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "MultiPut heap-allocated " << (after - before)
      << " times across 100 warm batches";
}

// Absorbed duplicates: a warm batch that repeats keys (the dedup table,
// absorbed pending ops riding their absorber's handle, deletes absorbed
// by a later Put) stays off the heap too.
TEST(HotPathAlloc, MultiPutWithDuplicateKeysIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  constexpr size_t kBatch = kMaxWriteBatch;
  constexpr uint32_t kValueLen = 48;  // inline: no out-of-log block alloc
  uint8_t value[kValueLen];
  std::memset(value, 0x5a, sizeof(value));

  // Keys 0..3 repeat eight times each; every fourth op on key 0 is a
  // delete that a later Put of key 0 absorbs.
  WriteOp ops[kBatch];
  OpStatus statuses[kBatch];
  for (size_t i = 0; i < kBatch; i++) {
    const bool tombstone = i % 8 == 4;
    ops[i] = {static_cast<uint64_t>(i % 4), tombstone ? nullptr : value,
              tombstone ? 0 : kValueLen, tombstone};
  }

  for (int i = 0; i < 10; i++) {
    ASSERT_EQ(store->MultiPutOnCore(0, ops, kBatch, statuses), kBatch);
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(store->MultiPutOnCore(0, ops, kBatch, statuses), kBatch);
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "MultiPut with duplicates heap-allocated " << (after - before)
      << " times across 100 warm batches";
}

// The transaction commit path: a warm BeginTxn (conflict scan, prefetched
// index probes, chain encode into a stack buffer, fused StageBatch, pump,
// drain) must not touch the heap — the chain buffer, member slices, and
// per-op scratch are all stack arrays bounded by kMaxTxnOps.
TEST(HotPathAlloc, TxnCommitIsAllocationFree) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  constexpr size_t kOps = 8;
  constexpr uint32_t kValueLen = 48;  // inline: no out-of-log block alloc
  uint8_t value[kValueLen];
  std::memset(value, 0x7e, sizeof(value));

  TxnOp ops[kOps];
  for (size_t i = 0; i < kOps; i++) {
    ops[i].kind = TxnOpKind::kPut;
    ops[i].key = i;
    ops[i].value = value;
    ops[i].len = kValueLen;
  }
  // One CAS member (expected = the value the cycle keeps writing) and one
  // raw-callback RMW: their compare/readback paths must be alloc-free too.
  ops[kOps - 2].kind = TxnOpKind::kCas;
  ops[kOps - 2].expected = value;
  ops[kOps - 2].expected_len = kValueLen;
  ops[kOps - 1].kind = TxnOpKind::kRmw;
  ops[kOps - 1].rmw = [](void*, const void*, uint32_t, uint8_t* out,
                         uint32_t) -> uint32_t {
    std::memset(out, 0x7e, 48);
    return 48;
  };

  // Seed the CAS target so the compare matches from the first cycle.
  store->Put(ops[kOps - 2].key,
             std::string(reinterpret_cast<char*>(value), kValueLen));

  auto cycle = [&] {
    ASSERT_EQ(store->CommitTxnOnCore(0, ops, kOps), TxnStatus::kCommitted);
  };
  // Warm-up: index insertions and scratch high-water marks.
  for (int i = 0; i < 10; i++) cycle();

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; i++) cycle();
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "txn commit path heap-allocated " << (after - before)
      << " times across 100 warm transactions";
}

// The open-loop admission path: post a future-stamped request, find the
// earliest pending head (the event-horizon scan RunLoop performs before
// every poll pass), pop it, answer it. All of it rides the preallocated
// SPSC rings.
TEST(HotPathAlloc, OpenLoopAdmissionIsAllocationFree) {
  net::FlatRpc::Options opt;
  opt.num_cores = 2;
  opt.num_conns = 8;
  net::FlatRpc rpc(opt);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);

  net::Request req{};
  req.type = net::MsgType::kGet;
  req.key = 1;

  auto cycle = [&](uint64_t stamp) {
    for (int c = 0; c < opt.num_conns; c++) {
      req.seq = stamp + static_cast<uint64_t>(c);
      req.post_time = stamp + static_cast<uint64_t>(c);  // distinct arrivals
      ASSERT_TRUE(rpc.PostRequest(c, /*core=*/0, req));
    }
    for (int i = 0; i < opt.num_conns; i++) {
      int conn = -1;
      net::Request* head = rpc.PollEarliestRequest(0, &conn);
      ASSERT_NE(head, nullptr);
      // Earliest-first: heads come back in post_time order.
      ASSERT_EQ(head->post_time, stamp + static_cast<uint64_t>(i));
      net::Response resp{};
      resp.seq = head->seq;
      rpc.PostResponse(0, conn, &resp);
      rpc.PopRequest(0, conn);
      net::Response out;
      while (rpc.PollResponse(conn, &out)) {
      }
    }
  };

  for (uint64_t i = 0; i < 10; i++) cycle(i * 1000);  // warm-up

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 10; i < 110; i++) cycle(i * 1000);
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "open-loop admission heap-allocated " << (after - before)
      << " times across 100 warm post/poll/pop cycles";
}

// Same engine, write volume crossing a chunk boundary: the rollover path
// (registry + usage-map insert) is *allowed* to allocate — this guards
// the test above against silently measuring too much volume, and
// documents where the remaining cold-path allocations live.
TEST(HotPathAlloc, ChunkRolloverIsTheColdPath) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  // ~64 KB per round with 256 B inline entries: a few hundred rounds
  // cross several 4 MB chunk boundaries.
  std::string v(250, 'x');
  for (int round = 0; round < 400; round++) {
    for (uint64_t k = 0; k < 64; k++) {
      store->Put(k, v);
    }
  }
  // The store survived multiple rollovers; the newest values are intact.
  std::string rv;
  for (uint64_t k = 0; k < 64; k++) {
    ASSERT_TRUE(store->Get(k, &rv));
    ASSERT_EQ(rv.size(), v.size());
  }
}

}  // namespace
}  // namespace core
}  // namespace flatstore
