// Ordered persistent tier: a sorted persistent list whose durable nodes
// alias value bytes still sitting in converted ("tiered") OpLog chunks,
// ordered for readers by a volatile key directory in DRAM.
//
// The tier is FlatStore's answer to two linear costs of a pure log
// (DESIGN.md §11): recovery replaying every log byte, and range scans
// having no ordered path when the volatile index is a hash. Following
// ListDB's Index-Unified Logging, a background tiering pass converts a
// sealed log chunk's live entries *in place* into list nodes — the node
// stores the entry's packed {offset, version} word, never a copy of the
// value — and then stamps the chunk's registry record with the
// persistent kChunkTiered flag. From then on recovery loads the tier's
// durable level-0 list instead of replaying the chunk, so recovery time
// tracks the live-key count, not the log size.
//
// Durability contract (what crash_explorer exercises):
//
//   * Only the PM node bytes and the level-0 ("L0") forward links are
//     durable state. Every node is persisted and fenced BEFORE the single
//     8-byte L0 link store that publishes it (persist-before-publish), so
//     a crash leaves a valid L0 list containing some subset of the
//     in-flight batch — never a link to a torn node.
//   * Arena allocation is reserve-then-link: the arena header's `used`
//     high-water mark is persisted and fenced before any reserved byte is
//     written. A crash can leak reserved-but-unlinked bytes; it can never
//     let a later allocation overwrite a published node.
//   * In-place updates of an existing key touch exactly one 8-byte
//     `packed` word (atomic store + persist), so they are tear-proof.
//
// Key order lives in DRAM, like FlatStore's index: an immutable,
// key-sorted directory of {key, L0 node offset}, one 16-byte entry per
// node. It is SOFT state, never persisted: Open builds it in its L0 walk,
// and every InsertBatch merges the batch's new keys into a fresh copy and
// publishes it as a snapshot. Readers (scans, Get) never walk PM to learn
// order.
//
// Concurrency: one mutator at a time (InsertBatch serializes the log
// cleaners that convert chunks into the tier), lock-free concurrent
// readers. A reader holds an epoch pin while it uses a snapshot; retired
// snapshots are freed through EpochManager::Defer. L0 links and `packed`
// words go through std::atomic_ref with release/acquire ordering.

#ifndef FLATSTORE_TIER_TIER_H_
#define FLATSTORE_TIER_TIER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "common/epoch.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "pm/pm_pool.h"
#include "vt/costs.h"

namespace flatstore {
namespace tier {

// Bumped with the 32-byte node whose third word is padding.
inline constexpr uint64_t kTierMagic = 0x11E2F1A757025Dull;

// One persistent list node: exactly the durable L0 state, fixed at 32
// bytes. Arena data starts 32-aligned, so a node never straddles a
// cacheline and one node read is one line. The node carries no value
// bytes: `packed` is the same {entry offset, version} word the volatile
// index stores, and the entry it names lives forever in its (tiered,
// never freed) log chunk.
struct TierNode {
  uint64_t key;
  uint64_t packed;  // log::PackIndexValue format; atomically updated
  uint64_t pad;     // written as zero
  uint64_t next0;   // L0 successor's pool offset (0 = end of list)
};
static_assert(sizeof(TierNode) == 32, "a tier node is half a cacheline");

// Arena bookkeeping at chunk_off + alloc::kChunkHeaderSize of every tier
// arena chunk. `used` counts bytes consumed after this header and is the
// durable reservation high-water mark; `next` chains arena chunks (the
// chain is how recovery and fsck enumerate them — arena chunks are NOT in
// the log chunk registry, which holds only log segments). `socket` is the
// socket this chunk serves nodes for, so reopening rebuilds the
// per-socket allocation tails. 32 bytes, so node data starts 32-aligned.
struct ArenaHeader {
  uint64_t next;
  uint64_t used;
  uint64_t socket;
  uint64_t pad;
};

// Tier root, immediately after the first arena chunk's ArenaHeader. The
// superblock's tier_root_off points at that chunk. 32 bytes, so the
// nodes after it stay 32-aligned.
struct TierRoot {
  uint64_t magic;
  uint64_t head0;       // L0 head node offset (0 = empty tier)
  uint64_t node_count;  // advisory; recomputed from the L0 walk on open
  uint64_t pad;
};

// One key to merge into the tier.
struct TierEntry {
  uint64_t key;
  uint64_t packed;
  int home_socket;  // the socket whose arena chunk holds the node
};

// One directory entry: a node's key and its TierNode's pool offset.
struct DirEntry {
  uint64_t key;
  uint64_t node;
};
static_assert(sizeof(DirEntry) == 16, "four directory entries per line");

class PersistentTier {
  using Directory = std::vector<DirEntry>;

 public:
  // Formats a fresh tier: allocates the root arena chunk and persists an
  // empty TierRoot. `socket_cores[s]` names a core homed on socket s —
  // the arena allocates each socket's node chunks through that core so
  // nodes land socket-local (DESIGN.md §10.2). Retired directory
  // snapshots are freed through `epochs`. Returns nullptr if the pool is
  // out of chunks.
  static std::unique_ptr<PersistentTier> Create(
      pm::PmPool* pool, alloc::LazyAllocator* alloc,
      common::EpochManager* epochs, int num_sockets,
      const std::vector<int>& socket_cores);

  // Opens an existing tier rooted at `root_off`: walks the arena chain,
  // then walks L0 once to build the directory, invoking
  // `on_node(key, packed)` for every node (recovery uses this to feed the
  // volatile index without a second walk). `on_node` may be null.
  static std::unique_ptr<PersistentTier> Open(
      pm::PmPool* pool, alloc::LazyAllocator* alloc,
      common::EpochManager* epochs, int num_sockets,
      const std::vector<int>& socket_cores, uint64_t root_off,
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  ~PersistentTier();

  uint64_t root_off() const { return root_off_; }
  // Nodes in the current snapshot. The caller holds an epoch pin or the
  // tier is quiescent; so for every snapshot reader below.
  uint64_t node_count() const { return Snapshot().size(); }
  uint64_t arena_chunk_count() const { return arena_chunks_.size(); }
  // DRAM bytes held by the current snapshot's entries.
  uint64_t directory_bytes() const {
    return Snapshot().capacity() * sizeof(DirEntry);
  }

  // Invokes `fn` for every arena chunk offset (recovery marks them
  // allocated; fsck walks them).
  void ForEachArenaChunk(const std::function<void(uint64_t)>& fn) const;

  // Merges a key-sorted, duplicate-free batch into the tier. Existing
  // keys take the tear-proof in-place packed update; new keys get freshly
  // reserved nodes with per-node persist-before-publish on the L0 link,
  // each linked after its L0 predecessor as the directory names it. Then
  // the directory snapshot with the new keys merged in is published (the
  // old one retires through the epoch manager). One trailing fence covers
  // the batch's deferred persists; the caller's conversion commit
  // (SetChunkTiered) happens after this returns. Callers are serialized
  // internally. Returns false (with no partial batch published beyond
  // already-fenced nodes — which are harmlessly idempotent) if the pool
  // cannot grow the arena.
  bool InsertBatch(const TierEntry* entries, size_t n);

  // Point lookup: a directory search plus one PM read of the node's
  // `packed` word.
  bool Get(uint64_t key, uint64_t* packed) const;

  // Ordered cursor over one directory snapshot (DESIGN.md §11.4). The
  // caller holds an epoch pin for the cursor's lifetime. Reads no tier
  // node: a scan resolves every key through the volatile index.
  class Cursor {
   public:
    // Positions at the first key >= start_key with one directory search.
    Cursor(const PersistentTier* tier, uint64_t start_key);

    // False once the snapshot is exhausted; key() requires a true
    // return. The first read of each directory line is one DRAM miss.
    bool Valid();
    uint64_t key() const { return (*dir_)[i_].key; }
    void Next() { i_++; }

   private:
    const Directory* dir_;
    size_t i_;
    size_t line_;  // the last directory line charged
  };

  // In-order walk over every node of the current snapshot, reading each
  // node's `packed` word (tests, recovery block marking).
  void ForEach(
      const std::function<void(uint64_t key, uint64_t packed)>& fn) const;

 private:
  PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                 common::EpochManager* epochs, int num_sockets,
                 uint64_t root_off);

  TierRoot* tier_root() const;
  ArenaHeader* arena_header(uint64_t chunk_off) const;
  TierNode* NodeAt(uint64_t off) const {
    return pool_->PtrAt<TierNode>(off);
  }
  const Directory& Snapshot() const {
    return *dir_.load(std::memory_order_acquire);
  }
  // Makes `fresh` the current snapshot and retires the previous one.
  void Publish(std::unique_ptr<Directory> fresh);

  // Volatile-only arena bump: assigns one node's bytes from socket
  // `socket`'s tail chunk, growing the chain if needed, and records the
  // touched header in `dirty`. The durable `used` persists + fence happen
  // once per batch in InsertBatch, BEFORE any node byte is written
  // (reserve-then-link).
  uint64_t AssignNodeBytes(int socket, std::vector<uint64_t>* dirty);

  pm::PmPool* pool_;
  alloc::LazyAllocator* alloc_;
  common::EpochManager* epochs_;
  int num_sockets_;
  std::vector<int> socket_cores_;
  uint64_t root_off_;
  std::vector<uint64_t> arena_chunks_;  // chain mirror, head first
  uint64_t arena_global_tail_;          // last chunk in the chain
  // Per-socket allocation tail chunk (0 = none yet).
  uint64_t socket_tail_[vt::kMaxSockets] = {};

  // The current directory snapshot; never null.
  std::atomic<const Directory*> dir_;
  // Held by InsertBatch: one mutator at a time.
  Mutex insert_mu_;
};

}  // namespace tier
}  // namespace flatstore

#endif  // FLATSTORE_TIER_TIER_H_
