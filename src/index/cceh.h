// CCEH — Cacheline-Conscious Extendible Hashing (Nam et al., FAST'19).
//
// The three-level structure from Table 1 of the FlatStore paper: a
// directory of segment pointers (indexed by the hash MSBs), 16 KB segments
// of 256 cacheline-sized buckets (indexed by hash LSBs), 4 slots per
// bucket, with bounded linear probing across adjacent buckets. Segments
// split lazily (local depth) and the directory doubles (global depth) when
// a splitting segment is at global depth.
//
// Used two ways (paper §4.1 / §5):
//  * volatile, one instance per server core — FlatStore-H's index;
//  * persistent — the "CCEH" baseline engine, where every slot update,
//    in-place value overwrite and split rehash is flushed, producing the
//    in-place cacheline re-flush traffic §2.3 penalizes under skew.
//
// Simplification vs. the original: the directory lives in DRAM in both
// modes (directory persistence adds a constant, tiny flush count per
// split; splits are rare in the steady-state benchmarks, which pre-size
// the table exactly like the paper does).

#ifndef FLATSTORE_INDEX_CCEH_H_
#define FLATSTORE_INDEX_CCEH_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/spin_lock.h"
#include "index/kv_index.h"
#include "index/node_arena.h"

namespace flatstore {
namespace index {

// Extendible hash index. Writes (Apply) serialize on mutate_lock_, so the
// owner's writes, the log cleaner's relocations and recovery's duels may
// come from several threads. Get() and GetWithHint() may run on other
// threads concurrently with a writer — its value updates and its inserts,
// splits and directory doublings (FlatStore's scans and cleaners probe
// every core's partition while its core inserts fresh keys). A split
// moves keys between segments, so it runs inside a sequence window that
// readers validate and retry; an erase moves the same sequence, so a
// reader that matched a slot an insert then refilled with another key
// retries too. ForEach() needs a quiescent writer.
class Cceh final : public KvIndex {
 public:
  // `initial_depth`: log2 of the initial number of segments. Size the
  // table with ~(keys / (kSegmentBuckets * kSlots * 0.7)) segments to
  // avoid splits during measurement, as the paper's setup does.
  explicit Cceh(const PmContext& ctx, uint32_t initial_depth = 4);

  bool Apply(uint64_t key, uint64_t desired, const Cond& cond,
             const LookupHint& hint, uint64_t* old) override;
  bool Get(uint64_t key, uint64_t* value) const override;
  void Prefetch(uint64_t key, LookupHint* hint) const override;
  bool GetWithHint(uint64_t key, LookupHint* hint,
                   uint64_t* value) const override;
  void Rewarm(LookupHint* hint) const override;
  void ForEach(
      const std::function<void(uint64_t, uint64_t)>& fn) const override;
  uint64_t Size() const override {
    // relaxed: size_ is an approximate stat counter, no ordering.
    return size_.load(std::memory_order_relaxed);
  }
  const char* Name() const override { return "CCEH"; }

  // Structure introspection (tests).
  uint32_t global_depth() const { return Dir().depth; }
  uint64_t segment_count() const;

 private:
  static constexpr int kSlots = 4;            // slots per bucket
  static constexpr int kProbeBuckets = 4;     // linear probing distance
  // 255 buckets keep sizeof(Segment) within the 16 KB size class.
  static constexpr uint32_t kSegmentBuckets = 255;

  // One cacheline: 4 key/value slots.
  struct alignas(64) Bucket {
    uint64_t keys[kSlots];
    uint64_t values[kSlots];
  };
  static_assert(sizeof(Bucket) == 64);

  struct Segment {
    uint32_t local_depth;
    uint32_t pad;
    Bucket buckets[kSegmentBuckets];
  };

  // The directory: 2^depth segment pointers, indexed by the hash MSBs.
  // Readers load it and its entries with acquire; only the writer
  // rewrites entries, or publishes a doubled directory. Replaced
  // directories stay allocated (`dirs_`), since a reader may still walk
  // them, as the arena keeps replaced segments.
  struct Directory {
    explicit Directory(uint32_t d) : depth(d), entries(1ull << d) {}
    // The entry for `hash`: its top `depth` bits (entry 0 at depth 0,
    // where the one segment takes every hash; a shift by 64 would be
    // undefined).
    uint64_t IndexOf(uint64_t hash) const {
      return depth == 0 ? 0 : hash >> (64 - depth);
    }
    uint32_t depth;
    std::vector<std::atomic<Segment*>> entries;
  };
  const Directory& Dir() const {
    return *dir_.load(std::memory_order_acquire);
  }

  Segment* NewSegment(uint32_t local_depth);
  Segment* SegmentFor(uint64_t hash) const {
    const Directory& d = Dir();
    return d.entries[d.IndexOf(hash)].load(std::memory_order_acquire);
  }
  // Phase A with `hint->hash` already computed: resolves the segment
  // through the directory (charged as a cached slot probe), prefetches
  // the key's probe window and records the segment in `*hint`.
  void Locate(LookupHint* hint) const;
  // Splits the segment containing `hash` and redistributes its slots,
  // cascading into further splits when a probe window overflows.
  void Split(uint64_t hash);
  // A Get probe that no split or erase overlapped: FindSlot and the
  // value load, retried while a split is moving keys or after a split or
  // an erase ran.
  bool StableGet(uint64_t key, uint64_t hash, uint64_t* value) const;

  // Places (key, value) in `seg`'s probe window and returns its bucket;
  // null when the window is full.
  Bucket* TryPlace(Segment* seg, uint64_t hash, uint64_t key,
                   uint64_t value);

  // Finds the slot holding `key`; returns {bucket, slot} or {null, 0}.
  struct SlotRef {
    Bucket* bucket = nullptr;
    int slot = 0;
  };
  SlotRef FindSlot(uint64_t key, uint64_t hash) const;

  // Apply with the hash already computed; caller holds mutate_lock_.
  bool ApplyLocked(uint64_t key, uint64_t desired, const Cond& cond,
                   uint64_t hash, uint64_t* old);

  NodeArena arena_;
  std::vector<std::unique_ptr<Directory>> dirs_;  // the current one last
  std::atomic<const Directory*> dir_;
  // Odd while a split moves keys between segments; each erase adds 2.
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> size_{0};
  SpinLock mutate_lock_;  // serializes every Apply
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_CCEH_H_
