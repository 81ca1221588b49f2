// FPTree (Oukid et al., SIGMOD'16) — hybrid SCM-DRAM B+-tree.
//
// Inner nodes live in DRAM (rebuilt on recovery in the original); leaf
// nodes live in PM and are *unsorted*, with a one-byte fingerprint array
// for fast probing and a validity bitmap whose single-word update is the
// atomic commit point. Updates are out-of-place within the leaf: write the
// new entry into a free slot, persist it, then flip old+new bits in the
// bitmap with one 8-byte store and persist that word.
//
// FPTree is not open source; like the FlatStore authors ("we implement it
// based on STX B+-Tree"), this is a from-scratch re-implementation.
//
// Used persistent-only (it is a baseline; FlatStore never uses it as a
// volatile index). The volatile mode still works for tests.

#ifndef FLATSTORE_INDEX_FPTREE_H_
#define FLATSTORE_INDEX_FPTREE_H_


#include "common/thread_annotations.h"
#include "index/kv_index.h"
#include "index/node_arena.h"

namespace flatstore {
namespace index {

// Hybrid B+-tree: volatile sorted inner nodes, persistent unsorted
// fingerprinted leaves.
class FpTree final : public OrderedKvIndex {
 public:
  explicit FpTree(const PmContext& ctx);

  bool Apply(uint64_t key, uint64_t desired, const Cond& cond,
             const LookupHint& hint, uint64_t* old) override;
  bool Get(uint64_t key, uint64_t* value) const override;
  uint64_t Scan(uint64_t start_key, uint64_t count,
                std::vector<KvPair>* out) const override;
  void ForEach(
      const std::function<void(uint64_t, uint64_t)>& fn) const override;
  uint64_t Size() const override {
    SharedLockGuard<SharedMutex> g(rw_lock_);
    return size_;
  }
  const char* Name() const override { return "FPTree"; }

 private:
  static constexpr int kLeafSlots = 32;
  static constexpr int kInnerCard = 30;

  // PM-resident leaf. The bitmap word + fingerprints share the header
  // cacheline, so a commit flushes exactly one line after the entry line.
  struct Leaf {
    uint64_t bitmap;               // bit i: slot i valid
    Leaf* next;                    // leaf chain (ordered)
    uint8_t fps[kLeafSlots];       // fingerprints (0 = unused hint only)
    uint8_t pad[16];
    struct Entry {
      uint64_t key;
      uint64_t value;
    } entries[kLeafSlots];
  };
  static_assert(sizeof(Leaf) % 64 == 0);

  // DRAM-resident sorted inner node (never flushed, even in persistent
  // mode — that is FPTree's design point).
  struct Inner {
    uint32_t level;  // 1 = children are leaves
    uint32_t count;
    void* leftmost;
    struct Entry {
      uint64_t key;
      void* child;
    } entries[kInnerCard];
  };

  Leaf* NewLeaf();
  Leaf* FindLeaf(uint64_t key) const REQUIRES_SHARED(rw_lock_);
  static int FindInLeaf(const Leaf* l, uint64_t key, uint8_t fp);
  static int FreeSlot(const Leaf* l);

  // Splits `leaf` at its median key; returns the new right leaf and the
  // separator through `*up_key`.
  Leaf* SplitLeaf(Leaf* leaf, uint64_t* up_key);

  // Inserts (separator, right_child) into the inner tree above a leaf
  // split; grows the tree as needed.
  void InsertInner(uint64_t up_key, void* right,
                   const std::vector<Inner*>& path) REQUIRES(rw_lock_);

  NodeArena arena_;
  std::vector<std::unique_ptr<Inner>> inner_pool_;  // DRAM inner nodes
  Inner* NewInner(uint32_t level);

  mutable SharedMutex rw_lock_;
  // Inner* or Leaf* (leaf when height == 1).
  void* root_ GUARDED_BY(rw_lock_);
  uint32_t height_ GUARDED_BY(rw_lock_);  // 1 = root is a leaf
  uint64_t size_ GUARDED_BY(rw_lock_) = 0;
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_FPTREE_H_
