// Ordered persistent tier: a sorted persistent list whose durable nodes
// alias value bytes still sitting in converted ("tiered") OpLog chunks,
// ordered for its own lookups by a volatile key directory in DRAM.
//
// The tier is FlatStore's answer to a linear cost of a pure log
// (DESIGN.md §11): recovery replaying every log byte. Following
// ListDB's Index-Unified Logging, a background tiering pass converts a
// sealed log chunk's live entries *in place* into list nodes — the node
// stores the entry's packed {offset, version} word, never a copy of the
// value — and then stamps the chunk's registry record with the
// persistent kChunkTiered flag. From then on recovery loads the tier's
// durable level-0 list instead of replaying the chunk, so recovery time
// tracks the live-key count, not the log size. Once most of a tiered
// chunk is dead, the maintenance pass relocates its survivors back into
// the log, unlinks every node that names the chunk (Unlink) and frees it.
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
//   * An unlink is one 8-byte store to the predecessor's link, so a crash
//     leaves L0 with any subset of a batch's unlinks. Unlinked nodes stay
//     intact until the unlinks are fenced and every reader has unpinned;
//     only then do they return to the node free list for reuse.
//
// The tier's key order lives in DRAM, like FlatStore's index: an
// immutable, key-sorted directory of {key, L0 node offset}, one 16-byte
// entry per node. It is SOFT state, never persisted: Open builds it in
// its L0 walk, and every InsertBatch or Unlink merges its keys into a
// fresh copy and publishes it as a snapshot. It serves Get, InsertBatch
// and Unlink, which never walk PM to learn order; scans take their key
// order from the engine, not from the tier. The node free list is soft
// state too: Open rebuilds it as the arena's nodes minus the L0 ones.
//
// Concurrency: one mutator at a time (InsertBatch and Unlink serialize
// the log cleaners that convert and reclaim chunks), lock-free concurrent
// readers. A reader holds an epoch pin while it uses a snapshot; retired
// snapshots and unlinked nodes are released through EpochManager::Defer.
// L0 links and `packed` words go through std::atomic_ref with
// release/acquire ordering.

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
#include "common/spin_lock.h"
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
// index stores, and the entry it names lives in a tiered log chunk, which
// is freed only after the node is unlinked.
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
  // `on_node(key, packed)` for every node it keeps (recovery buckets each
  // by the core owning the chunk it names; that core's replay thread
  // duel-inserts it into the index). A node for which
  // `keep(packed)` is false — one naming a chunk a crash left un-tiered,
  // an interrupted conversion the log replays anyway — is unlinked
  // durably instead. Every arena node off L0 joins the free list. Either
  // callback may be null (keep every node).
  static std::unique_ptr<PersistentTier> Open(
      pm::PmPool* pool, alloc::LazyAllocator* alloc,
      common::EpochManager* epochs, int num_sockets,
      const std::vector<int>& socket_cores, uint64_t root_off,
      const std::function<bool(uint64_t packed)>& keep,
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  ~PersistentTier();

  uint64_t root_off() const { return root_off_; }
  // Nodes in the current snapshot. The caller holds an epoch pin or the
  // tier is quiescent; so for every snapshot reader below.
  uint64_t node_count() const { return Snapshot().size(); }
  // DRAM bytes held by the current snapshot's entries.
  uint64_t directory_bytes() const {
    return Snapshot().capacity() * sizeof(DirEntry);
  }
  // Arena nodes off L0 and ready for reuse (released unlinked nodes).
  uint64_t free_nodes() const;

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
  // (SetChunkTiered) happens after this returns. New nodes reuse free
  // nodes of their socket before the arena grows. Callers are serialized
  // internally. Returns false (with no partial batch published beyond
  // already-fenced nodes — which are harmlessly idempotent) if the pool
  // cannot grow the arena.
  bool InsertBatch(const TierEntry* entries, size_t n);

  // Unlinks from L0 every node among `keys`' (sorted, duplicate-free)
  // whose `packed` word satisfies `drop` — the reclaimer passes the keys
  // of all a victim chunk's entries and drops the nodes naming it. Each
  // run of unlinked nodes costs one 8-byte store to the predecessor link
  // the directory names; one fence makes every unlink durable, so the
  // caller may free what they named once this returns, and then the
  // directory without them is published. The nodes reach the free list
  // only after EpochManager::Defer: readers of the old snapshot may still
  // read them. Returns the number of nodes unlinked.
  size_t Unlink(const uint64_t* keys, size_t n,
                const std::function<bool(uint64_t packed)>& drop);

  // Point lookup: a directory search plus one PM read of the node's
  // `packed` word.
  bool Get(uint64_t key, uint64_t* packed) const;

  // In-order walk over every node of the current snapshot, reading each
  // node's `packed` word (tests).
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
  // Socket whose arena chunk holds the node at `node_off`.
  int NodeSocket(uint64_t node_off) const;
  // Unlinks from L0 the nodes of `dir` (which matches L0) that `gone`
  // marks: one 8-byte store per run of them, to the link of the kept
  // node before it (or the L0 head), then one fence. Returns `dir`
  // without them. The caller is the one mutator.
  std::unique_ptr<Directory> Cut(const Directory& dir,
                                 const std::vector<bool>& gone);

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
  // Held by InsertBatch and Unlink: one mutator at a time.
  Mutex insert_mu_;
  // Released nodes per socket, reused by InsertBatch. Its own lock, not
  // insert_mu_: the deferred release runs on whichever thread reclaims.
  mutable SpinLock free_mu_;
  std::vector<uint64_t> free_nodes_[vt::kMaxSockets] GUARDED_BY(free_mu_);
};

}  // namespace tier
}  // namespace flatstore

#endif  // FLATSTORE_TIER_TIER_H_
