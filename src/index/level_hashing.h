// Level Hashing (Zuo, Hua, Wu — OSDI'18), as used in the paper's Table 1:
// a two-level hash scheme. The top level has N buckets, the bottom level
// N/2; every key hashes to two candidate buckets per level (two hash
// functions), four candidates total. When all are full, one resident item
// is *moved* to its alternate bucket to make room (the "rehash related
// entries on conflict" the FlatStore paper points at); when movement also
// fails, the table resizes: a new 2N-bucket level becomes the top, the old
// top becomes the bottom, and the old bottom's items are rehashed.
//
// Simplification vs. the original: slot occupancy is encoded by a reserved
// key sentinel instead of the separate token bitmap, keeping each 4-slot
// bucket exactly one cacheline; the per-insert flush count (one line) is
// unchanged.

#ifndef FLATSTORE_INDEX_LEVEL_HASHING_H_
#define FLATSTORE_INDEX_LEVEL_HASHING_H_

#include <atomic>
#include <vector>

#include "common/spin_lock.h"
#include "index/kv_index.h"
#include "index/node_arena.h"

namespace flatstore {
namespace index {

// Two-level hash index. Same concurrency contract as Cceh: single writer,
// concurrent Get/CompareExchange.
class LevelHashing final : public KvIndex {
 public:
  // `initial_level_bits`: log2 of the initial top-level bucket count.
  explicit LevelHashing(const PmContext& ctx, uint32_t initial_level_bits = 8);

  bool Upsert(uint64_t key, uint64_t value,
              uint64_t* old_value) override;
  bool Get(uint64_t key, uint64_t* value) const override;
  bool Erase(uint64_t key, uint64_t* old_value) override;
  bool CompareExchange(uint64_t key, uint64_t expected,
                       uint64_t desired) override;
  bool EraseIfEqual(uint64_t key, uint64_t expected) override;
  void ForEach(
      const std::function<void(uint64_t, uint64_t)>& fn) const override;
  uint64_t Size() const override {
    // relaxed: size_ is an approximate stat counter, no ordering.
    return size_.load(std::memory_order_relaxed);
  }
  const char* Name() const override { return "Level-Hashing"; }

  // Number of resizes performed (tests / bench sanity).
  uint64_t resizes() const { return resizes_; }
  uint64_t top_buckets() const { return 1ull << level_bits_; }

 private:
  static constexpr int kSlots = 4;

  struct alignas(64) Bucket {
    uint64_t keys[kSlots];
    uint64_t values[kSlots];
  };
  static_assert(sizeof(Bucket) == 64);

  // A level is a bucket array of 2^bits (top) or 2^(bits-1) (bottom).
  Bucket* NewLevel(uint64_t buckets);

  struct SlotRef {
    Bucket* bucket = nullptr;
    int slot = 0;
  };
  SlotRef FindSlot(uint64_t key) const;
  // Probe with precomputed hashes (an insert reuses them to place the key).
  SlotRef FindSlotHashed(uint64_t key, uint64_t h1, uint64_t h2) const;

  // Bucket addressed by hash `h` in the given level.
  Bucket& BucketAt(bool top, uint64_t h) const;

  // Tries to place (key, value) in `bucket`; persists and returns true on
  // success.
  bool TryInsert(Bucket& bucket, uint64_t key, uint64_t value);

  // Tries to relocate one item out of `bucket` (level `top`) to its
  // alternate bucket in the same level; returns true if a slot was freed.
  bool TryMove(Bucket& bucket, bool top);

  // Candidate buckets of `key` in the given level.
  Bucket& Cand(bool top, int which, uint64_t key) const;

  // Grows the table (new top = 2x buckets, old top demoted to bottom).
  void Resize();

  // Inserts without ever resizing; used during Resize's rehash. Reports
  // an in-place update (and the previous value) through the out-params.
  bool InsertNoResize(uint64_t key, uint64_t value, uint64_t* old_value,
                      bool* updated);

  NodeArena arena_;
  uint32_t level_bits_;
  Bucket* top_;
  Bucket* bottom_;
  std::atomic<uint64_t> size_{0};
  uint64_t resizes_ = 0;
  SpinLock mutate_lock_;
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_LEVEL_HASHING_H_
