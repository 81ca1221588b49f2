// Masstree-style concurrent ordered index (Mao, Kohler, Morris —
// EuroSys'12), the volatile index of FlatStore-M.
//
// With the paper's fixed 8-byte keys, Masstree degenerates to its
// single-layer B+-tree, which is what this implements, keeping the two
// properties that make Masstree fast in DRAM and that the paper's Fig. 8
// comparison (FlatStore-M > FlatStore-FF) rests on:
//
//  * permutation-based leaves: a leaf stores entries unsorted plus a
//    single 64-bit *permuter* word (4-bit slot indexes + count) that
//    encodes the sort order. Inserting writes one free slot and one word —
//    no entry shifting, unlike FAST&FAIR's sorted arrays;
//  * log-time inner nodes: a descent picks each child by a binary
//    search of the node's sorted separators (UpperBound);
//  * fine-grained synchronization: per-operation cost is charged as a
//    node-local latch, not a tree-global lock. (Host-level thread safety
//    is provided by a readers/writer lock; as everywhere in this repo,
//    reported performance comes from virtual-time charges, so the host
//    lock does not serialize simulated cores.)
//
// DRAM-only by intent (FlatStore-M persists through the OpLog); the
// persistent mode flushes nothing, and kReservedKey stays reserved.

#ifndef FLATSTORE_INDEX_MASSTREE_H_
#define FLATSTORE_INDEX_MASSTREE_H_


#include "common/thread_annotations.h"
#include "index/kv_index.h"
#include "index/node_arena.h"

namespace flatstore {
namespace index {

// Permutation-leaf B+-tree.
class Masstree final : public OrderedKvIndex {
 public:
  explicit Masstree(const PmContext& ctx = {});

  bool Upsert(uint64_t key, uint64_t value,
              uint64_t* old_value) override;
  bool Get(uint64_t key, uint64_t* value) const override;
  void Prefetch(uint64_t key, LookupHint* hint) const override;
  bool GetWithHint(uint64_t key, LookupHint* hint,
                   uint64_t* value) const override;
  void Rewarm(LookupHint* hint) const override;
  bool InsertWithHint(uint64_t key, uint64_t value, uint64_t* old_value,
                      const LookupHint& hint) override;
  bool Erase(uint64_t key, uint64_t* old_value) override;
  bool CompareExchange(uint64_t key, uint64_t expected,
                       uint64_t desired) override;
  bool EraseIfEqual(uint64_t key, uint64_t expected) override;
  uint64_t Scan(uint64_t start_key, uint64_t count,
                std::vector<KvPair>* out) const override;
  void ForEach(
      const std::function<void(uint64_t, uint64_t)>& fn) const override;
  uint64_t Size() const override {
    SharedLockGuard<SharedMutex> g(rw_lock_);
    return size_;
  }
  const char* Name() const override { return "Masstree"; }

  // Levels from the root to the leaves (1 = the root is a leaf). For
  // tests.
  uint32_t height() const {
    SharedLockGuard<SharedMutex> g(rw_lock_);
    return height_;
  }

 private:
  static constexpr int kLeafSlots = 15;  // Masstree's leaf width
  static constexpr int kInnerCard = 30;

  // 64-bit permuter: bits [0,4) = live count; bits [4+4i, 8+4i) = the slot
  // holding the i-th smallest key; positions >= count list free slots.
  class Permuter {
   public:
    static uint64_t Empty() {
      // Free list enumerates slots 0..14 in order.
      uint64_t p = 0;
      for (uint64_t i = 0; i < kLeafSlots; i++) p |= i << (4 + 4 * i);
      return p;
    }
    static int Count(uint64_t p) { return static_cast<int>(p & 0xF); }
    static int At(uint64_t p, int i) {
      return static_cast<int>((p >> (4 + 4 * i)) & 0xF);
    }
    // Inserts the first free slot at sorted position `pos`; returns the
    // new permuter and the chosen slot.
    static uint64_t InsertAt(uint64_t p, int pos, int* slot);
    // Removes sorted position `pos`, appending its slot to the free list.
    static uint64_t RemoveAt(uint64_t p, int pos);
  };

  struct Leaf {
    uint64_t permutation;
    uint64_t keys[kLeafSlots];
    uint64_t values[kLeafSlots];
    Leaf* next;
  };

  struct Inner {
    uint32_t count;
    void* leftmost;
    struct Entry {
      uint64_t key;
      void* child;
    } entries[kInnerCard];
  };

  Leaf* NewLeaf();
  Inner* NewInner();

  // The inner nodes of one root-to-leaf descent, root first, held in a
  // fixed array so an Upsert allocates nothing. An inner node splits half
  // full, so every non-root one keeps more than kInnerCard / 2 children
  // and kMaxInnerLevels levels would index over 10^17 keys.
  static constexpr uint32_t kMaxInnerLevels = 16;
  struct Path {
    Inner* nodes[kMaxInnerLevels] = {};
    uint32_t depth = 0;
  };

  // Number of `n`'s entries whose key is <= `key`: the child to follow
  // (0 = leftmost), found by binary search of the sorted separators.
  static uint32_t UpperBound(const Inner* n, uint64_t key);

  // Descends to the leaf for `key`, filling `path` (if given) with the
  // inner nodes passed. Each inner level charges one cache miss and
  // bit_width(count) kCpuSlotProbes, the most comparisons UpperBound can
  // make: at most bit_width(kInnerCard) = 5.
  Leaf* Descend(uint64_t key, Path* path) const REQUIRES_SHARED(rw_lock_);

  // Sorted position of `key` in `leaf`; sets `*found` if the key exists.
  static int LeafPosition(const Leaf* l, uint64_t key, bool* found);
  // The read of `key` in `leaf`, the last step of every Get.
  static bool LeafGet(const Leaf* l, uint64_t key, uint64_t* value);
  // Prefetches the whole 256 B leaf (permuter word + key/value arrays),
  // charging each issue, so a phase-B binary search and an upsert's
  // permuter and slot stores touch warm lines only.
  static void PrefetchLeaf(const Leaf* l);

  Leaf* SplitLeaf(Leaf* leaf, uint64_t* up_key);
  void InsertInner(uint64_t up_key, void* right, const Path& path)
      REQUIRES(rw_lock_);

  // The Upsert loop (descend, in-place / leaf insert / split) with the
  // write lock already held. Shared by Upsert and InsertWithHint's
  // full-descend fallback (a hinted leaf with no room must split, which
  // needs the inner path the hint does not carry).
  bool UpsertLocked(uint64_t key, uint64_t value, uint64_t* old_value)
      REQUIRES(rw_lock_);

  NodeArena arena_;
  mutable SharedMutex rw_lock_;
  void* root_ GUARDED_BY(rw_lock_);
  uint32_t height_ GUARDED_BY(rw_lock_) = 1;  // 1 = root is a leaf
  uint64_t size_ GUARDED_BY(rw_lock_) = 0;
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_MASSTREE_H_
