// Ordered persistent tier: a braided persistent skiplist whose nodes alias
// value bytes still sitting in converted ("tiered") OpLog chunks.
//
// The tier is FlatStore's answer to two linear costs of a pure log
// (DESIGN.md §11): recovery replaying every log byte, and range scans
// having no ordered path when the volatile index is a hash. Following
// ListDB's Index-Unified Logging, a background tiering pass converts a
// sealed log chunk's live entries *in place* into skiplist nodes — the
// node stores the entry's packed {offset, version} word, never a copy of
// the value — and then stamps the chunk's registry record with the
// persistent kChunkTiered flag. From then on recovery loads the tier's
// durable level-0 list instead of replaying the chunk, so recovery time
// tracks the live-key count, not the log size.
//
// Durability contract (what crash_explorer exercises):
//
//   * Only the node bytes and the level-0 ("L0") forward links are
//     durable state. Every node is persisted and fenced BEFORE the single
//     8-byte L0 link store that publishes it (persist-before-publish), so
//     a crash leaves a valid L0 list containing some subset of the
//     in-flight batch — never a link to a torn node.
//   * Arena allocation is reserve-then-link: the arena header's `used`
//     high-water mark is persisted and fenced before any reserved byte is
//     written. A crash can leak reserved-but-unlinked bytes; it can never
//     let a later allocation overwrite a published node.
//   * The braided upper lanes (per-socket express lanes above L0) are
//     SOFT state: written without persist ordering and rebuilt from the
//     L0 walk on every open. Torn lanes are impossible by construction.
//   * In-place updates of an existing key touch exactly one 8-byte
//     `packed` word (atomic store + persist), so they are tear-proof.
//
// Concurrency: single mutator (the tiering pass is serialized by the
// caller), lock-free concurrent readers. All link and `packed` accesses
// go through std::atomic_ref with release/acquire ordering.

#ifndef FLATSTORE_TIER_TIER_H_
#define FLATSTORE_TIER_TIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "common/logging.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace tier {

inline constexpr uint64_t kTierMagic = 0x11E2F1A757025Bull;

// Max skiplist height. With branching factor 4 (NodeHeight below), height
// 12 indexes ~4^11 ≈ 4M nodes per socket lane — plenty for the simulated
// pool sizes this engine targets.
inline constexpr int kMaxHeight = 12;

// Upper bound on per-socket lane sets kept by the braid (matches the vt
// cost model's kMaxSockets).
inline constexpr int kMaxLaneSockets = 4;

// One persistent skiplist node. Variable length: 24 bytes of header plus
// one 8-byte forward link per level. next[0] is the single global L0 list
// (durable); next[1..height-1] are the node's home-socket express lanes
// (soft, rebuilt on open). The node carries no value bytes: `packed` is
// the same {entry offset, version} word the volatile index stores, and
// the entry it names lives forever in its (tiered, never freed) log
// chunk.
struct TierNode {
  uint64_t key;
  uint64_t packed;  // log::PackIndexValue format; atomically updated
  uint16_t height;  // 1..kMaxHeight
  uint16_t home_socket;
  uint32_t pad;
  uint64_t next[1];  // really next[height]
};

inline constexpr uint64_t TierNodeBytes(int height) {
  return 24 + 8 * static_cast<uint64_t>(height);
}

// Deterministic node height from the key (splitmix64 finalizer, branching
// factor 1/4). Determinism keeps the crash explorer's flush counts
// reproducible and makes recovery rebuild byte-identical lane shapes.
inline int NodeHeight(uint64_t key) {
  uint64_t z = key * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  int h = 1;
  while (h < kMaxHeight && (z & 3) == 0) {
    h++;
    z >>= 2;
  }
  return h;
}

// Arena bookkeeping at chunk_off + alloc::kChunkHeaderSize of every tier
// arena chunk. `used` counts bytes consumed after this header and is the
// durable reservation high-water mark; `next` chains arena chunks (the
// chain is how recovery and fsck enumerate them — arena chunks are NOT in
// the log chunk registry, which holds only log segments). `socket` is the
// socket this chunk serves nodes for, so reopening rebuilds the
// per-socket allocation tails.
struct ArenaHeader {
  uint64_t next;
  uint64_t used;
  uint64_t socket;
};

// Tier root, immediately after the first arena chunk's ArenaHeader. The
// superblock's tier_root_off points at that chunk.
struct TierRoot {
  uint64_t magic;
  uint64_t head0;       // L0 head node offset (0 = empty tier)
  uint64_t node_count;  // advisory; recomputed from the L0 walk on open
};

// One key to merge into the tier.
struct TierEntry {
  uint64_t key;
  uint64_t packed;
  int home_socket;
};

class PersistentTier {
 public:
  // Formats a fresh tier: allocates the root arena chunk and persists an
  // empty TierRoot. `socket_cores[s]` names a core homed on socket s —
  // the arena allocates each socket's node chunks through that core so
  // nodes land socket-local (PR 8 placement). Returns nullptr if the
  // pool is out of chunks.
  static std::unique_ptr<PersistentTier> Create(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores);

  // Opens an existing tier rooted at `root_off`: walks the arena chain,
  // then walks L0 once to rebuild the soft braided lanes, invoking
  // `on_node(key, packed)` for every node (recovery uses this to feed the
  // volatile index without a second walk). `on_node` may be null.
  static std::unique_ptr<PersistentTier> Open(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores, uint64_t root_off,
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  uint64_t root_off() const { return root_off_; }
  uint64_t node_count() const;
  uint64_t arena_chunk_count() const { return arena_chunks_.size(); }

  // Invokes `fn` for every arena chunk offset (recovery marks them
  // allocated; fsck walks them).
  void ForEachArenaChunk(const std::function<void(uint64_t)>& fn) const;

  // Zipper-merges a key-sorted, duplicate-free batch into the tier.
  // Existing keys take the tear-proof in-place packed update; new keys
  // get freshly reserved nodes with per-node persist-before-publish on
  // the L0 link. One trailing fence covers the batch's deferred persists;
  // the caller's conversion commit (SetChunkTiered) happens after this
  // returns. Single mutator only. Returns false (with no partial batch
  // published beyond already-fenced nodes — which are harmlessly
  // idempotent) if the pool cannot grow the arena.
  bool InsertBatch(const TierEntry* entries, size_t n);

  // Point lookup. `socket_hint` picks which socket's express lanes to
  // ride (any value is correct; the key's home socket is fastest).
  bool Get(uint64_t key, uint64_t* packed, int socket_hint = 0) const;

  // Ordered L0 cursor. Stepping charges nothing: the caller issues each
  // node's header read with IssueRead and waits for its completion before
  // using key()/packed(), so a walk can overlap the read of the next node
  // with work on the current one (ScanMerged's depth-1 pipeline). A
  // default-constructed cursor is invalid.
  class Iterator {
   public:
    Iterator() = default;
    bool Valid() const { return node_ != 0; }
    uint64_t key() const;
    uint64_t packed() const;
    // Steps to the L0 successor (the current node's read must be done).
    void Next();
    // Prefetches the current node and issues its header read at
    // `issue_time`; returns the read's vt completion.
    uint64_t IssueRead(uint64_t issue_time) const;

   private:
    friend class PersistentTier;
    Iterator(const PersistentTier* t, uint64_t node) : tier_(t), node_(node) {}
    const PersistentTier* tier_ = nullptr;
    uint64_t node_ = 0;  // pool offset of the current node
  };

  // Positions a cursor at the first node with key >= start_key.
  Iterator Seek(uint64_t start_key, int socket_hint = 0) const;

  // In-order walk over every node (tests, fsck, recovery block marking).
  void ForEach(
      const std::function<void(uint64_t key, uint64_t packed)>& fn) const;

 private:
  PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                 int num_sockets, uint64_t root_off);

  TierRoot* tier_root() const;
  ArenaHeader* arena_header(uint64_t chunk_off) const;
  TierNode* NodeAt(uint64_t off) const {
    return pool_->PtrAt<TierNode>(off);
  }

  // Braided descent: returns the address of the L0 link slot whose
  // successor is the first node with key >= target (the slot lives either
  // in TierRoot::head0 or in a node's next[0]).
  uint64_t* FindL0Slot(uint64_t target, int socket_hint) const;

  // Volatile-only arena bump: assigns `bytes` from socket `socket`'s tail
  // chunk, growing the chain if needed, and records the touched header in
  // `dirty`. The durable `used` persists + fence happen once per batch in
  // InsertBatch, BEFORE any node byte is written (reserve-then-link).
  uint64_t AssignNodeBytes(uint64_t bytes, int socket,
                           std::vector<uint64_t>* dirty);

  void RebuildLanes(
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  pm::PmPool* pool_;
  alloc::LazyAllocator* alloc_;
  int num_sockets_;
  std::vector<int> socket_cores_;
  uint64_t root_off_;
  uint64_t node_count_ = 0;
  std::vector<uint64_t> arena_chunks_;  // chain mirror, head first
  uint64_t arena_global_tail_;          // last chunk in the chain
  // Per-socket allocation tail chunk (0 = none yet).
  uint64_t socket_tail_[kMaxLaneSockets] = {};

  // Soft braided lane heads, one set per socket. DRAM: rebuilt on open,
  // read/written through atomic_ref like the in-node lane links.
  mutable uint64_t lane_heads_[kMaxLaneSockets][kMaxHeight];
};

}  // namespace tier
}  // namespace flatstore

#endif  // FLATSTORE_TIER_TIER_H_
