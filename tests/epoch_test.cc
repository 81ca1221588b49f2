// Epoch-based reclamation tests: pin/advance/deferred-free ordering, the
// guest-slot path, a torture loop racing readers against a reclaimer, and
// the FlatStore-level regression that the cleaner never frees a chunk
// while a reader still holds a decoded entry.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "core/flatstore.h"
#include "one_op.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace common {
namespace {

TEST(Epoch, PinBlocksAdvanceUnpinAllows) {
  EpochManager em(/*owned_slots=*/2, /*guest_slots=*/2);
  const uint64_t e0 = em.current_epoch();
  em.Pin(0);
  EXPECT_EQ(em.SlotEpoch(0), e0);
  EXPECT_TRUE(em.AnyPinned());
  // A slot pinned at the current epoch does not block one advance...
  EXPECT_TRUE(em.TryAdvance());
  // ...but blocks the next (the slot now lags the global epoch).
  EXPECT_FALSE(em.TryAdvance());
  em.Unpin(0);
  EXPECT_FALSE(em.AnyPinned());
  EXPECT_TRUE(em.TryAdvance());
  EXPECT_EQ(em.current_epoch(), e0 + 2);
  EXPECT_EQ(em.advances(), 2u);
}

TEST(Epoch, DeferredRunsOnlyAfterTwoAdvances) {
  EpochManager em(1);
  em.Pin(0);
  int ran = 0;
  em.Defer([&ran] { ran = 1; });
  EXPECT_EQ(em.deferred_pending(), 1u);
  // The pinned reader holds the epoch: nothing may run.
  EXPECT_EQ(em.ReclaimDeferred(), 0u);
  EXPECT_EQ(ran, 0);
  em.Unpin(0);
  // Unpinned: two advances free the deferral.
  EXPECT_EQ(em.ReclaimDeferred(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(em.deferred_pending(), 0u);
  EXPECT_EQ(em.deferred_frees(), 1u);
  EXPECT_GE(em.deferred_hwm(), 1u);
}

TEST(Epoch, DeferredRunInFifoOrder) {
  EpochManager em(1);
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    em.Defer([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(em.DrainDeferred(), 5u);
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; i++) EXPECT_EQ(order[i], i);
}

TEST(Epoch, GuestPinBlocksReclamation) {
  EpochManager em(/*owned_slots=*/1, /*guest_slots=*/2);
  int ran = 0;
  {
    EpochManager::GuestGuard g(&em);
    EXPECT_GE(g.slot(), em.owned_slots());
    em.Defer([&ran] { ran = 1; });
    EXPECT_EQ(em.ReclaimDeferred(), 0u);
    EXPECT_EQ(ran, 0);
    // A second guest can pin concurrently.
    EpochManager::GuestGuard g2(&em);
    EXPECT_NE(g2.slot(), g.slot());
  }
  EXPECT_EQ(em.ReclaimDeferred(), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(Epoch, NestedGuardsViaDistinctSlots) {
  EpochManager em(2);
  EpochManager::Guard a(&em, 0);
  {
    EpochManager::Guard b(&em, 1);
    EXPECT_TRUE(em.AnyPinned());
  }
  EXPECT_NE(em.SlotEpoch(0), EpochManager::kIdle);
  EXPECT_EQ(em.SlotEpoch(1), EpochManager::kIdle);
}

// Torture: readers chase a shared pointer under epoch pins while a
// reclaimer keeps swapping it out and defer-deleting the old node. A
// reader must never observe a node whose deleter already ran. (Under
// -DFLATSTORE_SANITIZE=thread|address the dereference itself would flag
// a use-after-free; without a sanitizer the poisoned magic catches most
// misorderings.)
TEST(EpochTorture, ReadersRaceReclaimer) {
  constexpr uint64_t kAlive = 0xA11FE;
  constexpr uint64_t kDead = 0xDEAD;
  struct Node {
    std::atomic<uint64_t> magic{kAlive};
  };

  constexpr int kReaders = 4;
  EpochManager em(kReaders, /*guest_slots=*/2);
  std::atomic<Node*> current{new Node};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int slot = 0; slot < kReaders; slot++) {
    readers.emplace_back([&, slot] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochManager::Guard g(&em, slot);
        Node* n = current.load(std::memory_order_acquire);
        if (n->magic.load(std::memory_order_relaxed) != kAlive) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < 20000; i++) {
    Node* fresh = new Node;
    Node* old = current.exchange(fresh, std::memory_order_acq_rel);
    em.Defer([old, kDead] {
      old->magic.store(kDead, std::memory_order_relaxed);
      delete old;
    });
    if ((i & 15) == 0) em.ReclaimDeferred();
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  em.DrainDeferred(/*max_rounds=*/64);
  EXPECT_EQ(em.deferred_pending(), 0u);
  delete current.load();
}

}  // namespace
}  // namespace common

namespace core {
namespace {

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, char('a' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  return v;
}

// Regression for the unlink/free split: while any reader holds an epoch
// pin, a cleaning pass may *unlink* victims (CAS-swing the index, mark
// them retired) but must not physically free them — the reader may still
// dereference an entry pointer it decoded before the swing.
TEST(EpochReclamation, CleanerNeverFreesWhileReaderPinned) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  fo.gc_live_ratio = 0.9;
  auto store = FlatStore::Create(&pool, fo);

  // Overwrite a small key set until plenty of sealed mostly-dead chunks
  // exist.
  for (int round = 0; round < 30; round++) {
    for (uint64_t k = 0; k < 2000; k++) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 200));
    }
  }

  common::EpochManager* em = store->epochs();
  const uint64_t free_before = store->allocator()->free_chunks();

  {
    // The "reader": holds a pin across the cleaning pass, like a Get that
    // decoded an entry pointer just before the cleaner's index swing.
    common::EpochManager::GuestGuard reader(em);

    const size_t work = store->RunCleanersOnce();
    EXPECT_GT(work, 0u);
    EXPECT_GT(store->ChunksCleaned(), 0u);  // victims were unlinked...
    EXPECT_EQ(em->deferred_frees(), 0u);    // ...but nothing was freed
    EXPECT_GT(em->deferred_pending(), 0u);
    EXPECT_EQ(store->allocator()->free_chunks(), free_before);

    // The relocated data is already reachable through the index.
    std::string v;
    ASSERT_TRUE(store->Get(7, &v));
    EXPECT_EQ(v, ValueFor(7, 29, 200));
  }

  // Reader gone: the next pass reclaims everything that was deferred.
  store->RunCleanersOnce();
  EXPECT_EQ(em->deferred_pending(), 0u);
  EXPECT_GT(em->deferred_frees(), 0u);
  EXPECT_GT(store->allocator()->free_chunks(), free_before);

  // Counters mirror into the pool's stats.
  const pm::PmStats::Snapshot s = pool.stats().Get();
  EXPECT_GT(s.epoch_advances, 0u);
  EXPECT_GT(s.epoch_deferred_frees, 0u);
  EXPECT_GT(s.epoch_deferred_hwm, 0u);

  // Data intact after the full unlink + deferred-free cycle.
  for (uint64_t k = 0; k < 2000; k += 13) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, 29, 200)) << k;
  }
}

// Serving threads (one per core, the owned-slot contract) run a mixed
// get/put workload against their own cores while background cleaners
// unlink and free chunks underneath: every read must stay coherent and
// the epoch must keep advancing.
TEST(EpochReclamation, ServingThreadsRaceBackgroundCleaners) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  fo.gc_live_ratio = 0.9;
  auto store = FlatStore::Create(&pool, fo);

  // Partition a key set by owning core.
  constexpr uint64_t kKeys = 2000;
  constexpr size_t kValueLen = 250;
  std::vector<std::vector<uint64_t>> keys(4);
  for (uint64_t k = 0; k < kKeys; k++) {
    keys[static_cast<size_t>(store->CoreForKey(k))].push_back(k);
  }

  // Preload every key so the in-run reads below always find a committed
  // version.
  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, ValueFor(k, 0, kValueLen));
  }

  store->StartCleaners();
  std::atomic<uint64_t> read_errors{0};
  auto serve = [&](int core) {
    const auto& mine = keys[static_cast<size_t>(core)];
    for (int round = 0; round < 40; round++) {
      for (size_t i = 0; i < mine.size(); i++) {
        const uint64_t k = mine[i];
        const std::string v =
            ValueFor(k, static_cast<uint64_t>(round), kValueLen);
        while (one_op::StagePut(store.get(), core, k, v) != OpStatus::kOk) {
          store->Pump(core);
          store->Drain(core, SIZE_MAX, nullptr);
        }
        if ((i & 7) == 0) {
          // Read a key; one with a write in flight is deferred. Any
          // committed round's value carries the key in its first 8 bytes
          // and kValueLen size.
          const uint64_t rk = mine[(i * 31 + 7) % mine.size()];
          std::string rv;
          const GetResult r = one_op::ReadOne(store.get(), core, rk, &rv);
          if (r != GetResult::kDeferred &&
              (r != GetResult::kFound || rv.size() != kValueLen ||
               std::memcmp(rv.data(), &rk, 8) != 0)) {
            read_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      store->Pump(core);
      store->Drain(core, SIZE_MAX, nullptr);
    }
    while (store->Inflight(core) > 0) {
      store->Pump(core);
      store->Drain(core, SIZE_MAX, nullptr);
    }
  };
  std::vector<std::thread> servers;
  for (int c = 0; c < 4; c++) servers.emplace_back(serve, c);
  for (auto& t : servers) t.join();
  store->StopCleaners();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(store->epochs()->advances(), 0u);
  EXPECT_GT(store->ChunksCleaned(), 0u);
  for (uint64_t k = 0; k < kKeys; k += 11) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k, 39, kValueLen)) << k;
  }
}

}  // namespace
}  // namespace core
}  // namespace flatstore
