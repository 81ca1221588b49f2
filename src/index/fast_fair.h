// FAST&FAIR persistent B+-tree (Hwang, Kim, Won, Nam — FAST'18).
//
// The baseline whose behaviour motivates the whole paper (§2.2/Fig. 1(a)):
// a sorted-array B+-tree that avoids logging by performing Failure-Atomic
// ShifTs (every shifted entry is an 8-byte atomic store, flushed cacheline
// by cacheline) and tolerating transient inconsistency for readers
// (FAIR sibling links). A single Put may therefore flush many lines —
// shifting half a node, splitting nodes, updating parents — which is the
// write amplification FlatStore's OpLog eliminates.
//
// Modes:
//  * persistent — the FAST&FAIR baseline engine;
//  * volatile  — the index behind FlatStore-FF (paper §5.1 implements
//    FlatStore-FF by "placing FAST&FAIR in DRAM as the volatile index").
//
// Simplifications vs. the original, documented per DESIGN.md §1: deletes
// use lazy removal without node merging (the evaluation workloads are
// Put/Get dominated), and host-level synchronization is a readers/writer
// lock rather than the original's lock-free reads — virtual-time costs,
// not host concurrency, determine reported performance.

#ifndef FLATSTORE_INDEX_FAST_FAIR_H_
#define FLATSTORE_INDEX_FAST_FAIR_H_


#include "common/thread_annotations.h"
#include "index/kv_index.h"
#include "index/node_arena.h"

namespace flatstore {
namespace index {

// Sorted-node B+-tree with FAST-style shifting writes.
class FastFair final : public OrderedKvIndex {
 public:
  explicit FastFair(const PmContext& ctx);

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
  const char* Name() const override { return "FAST&FAIR"; }

  // Tree height (tests).
  int Height() const;

 private:
  // 512 B nodes, as in the original implementation.
  static constexpr int kCard = 30;

  struct Node {
    uint32_t is_leaf;
    uint32_t count;
    Node* sibling;    // right sibling (FAIR links, both levels)
    Node* leftmost;   // inner: child for keys < entries[0].key
    uint64_t pad;     // entries start at a 32 B header => 512 B node
    struct Entry {
      uint64_t key;
      uint64_t value;  // leaf: value; inner: Node* child
    } entries[kCard];
  };
  static_assert(sizeof(Node) == 32 + 16 * kCard);

  Node* NewNode(bool leaf);
  Node* FindLeaf(uint64_t key) const REQUIRES_SHARED(rw_lock_);
  static int LowerBound(const Node* n, uint64_t key);
  // The read of `key` in `leaf`, the last step of every Get.
  static bool LeafGet(const Node* leaf, uint64_t key, uint64_t* value);
  // Prefetches the whole 512 B node, charging each issue, so a phase-B
  // linear scan and an insert's FAST shift to the node's end stay on warm
  // lines.
  static void PrefetchNode(const Node* n);

  // Inserts into a non-full sorted node with FAST shifting and persists
  // the shifted region.
  void InsertInNode(Node* n, uint64_t key, uint64_t value);

  // Splits `n`, returns the new right sibling; `*up_key` receives the
  // separator to push into the parent.
  Node* SplitNode(Node* n, uint64_t* up_key);

  // Recursive insert; returns the new sibling + separator when the child
  // split propagates.
  struct SplitResult {
    Node* right = nullptr;
    uint64_t up_key = 0;
  };
  SplitResult InsertRecursive(Node* n, uint64_t key, uint64_t value,
                              uint64_t* old_value, bool* updated)
      REQUIRES(rw_lock_);

  // Upsert body (recursive insert + root growth) with the write lock
  // already held. Shared by Upsert and InsertWithHint's fallback (a
  // hinted leaf that must split needs the root path the hint lacks).
  bool UpsertLocked(uint64_t key, uint64_t value, uint64_t* old_value)
      REQUIRES(rw_lock_);

  NodeArena arena_;
  mutable SharedMutex rw_lock_;
  Node* root_ GUARDED_BY(rw_lock_);
  uint64_t size_ GUARDED_BY(rw_lock_) = 0;
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_FAST_FAIR_H_
