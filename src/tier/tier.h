// Ordered persistent tier: a braided skiplist whose durable level-0 nodes
// alias value bytes still sitting in converted ("tiered") OpLog chunks.
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
//   * Only the PM node bytes and the level-0 ("L0") forward links are
//     durable state. Every node is persisted and fenced BEFORE the single
//     8-byte L0 link store that publishes it (persist-before-publish), so
//     a crash leaves a valid L0 list containing some subset of the
//     in-flight batch — never a link to a torn node.
//   * Arena allocation is reserve-then-link: the arena header's `used`
//     high-water mark is persisted and fenced before any reserved byte is
//     written. A crash can leak reserved-but-unlinked bytes; it can never
//     let a later allocation overwrite a published node.
//   * The braided upper lanes (per-socket express lanes above L0) are
//     SOFT state held in DRAM lane nodes: never persisted, rebuilt from
//     the L0 walk on every open.
//   * In-place updates of an existing key touch exactly one 8-byte
//     `packed` word (atomic store + persist), so they are tear-proof.
//
// Concurrency: single mutator (the tiering pass is serialized by the
// caller), lock-free concurrent readers. All link and `packed` accesses
// — PM L0 links and DRAM lane links alike — go through std::atomic_ref
// with release/acquire ordering.

#ifndef FLATSTORE_TIER_TIER_H_
#define FLATSTORE_TIER_TIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "common/logging.h"
#include "pm/pm_pool.h"
#include "vt/costs.h"

namespace flatstore {
namespace tier {

// Bumped with the 32-byte node format (DRAM lanes).
inline constexpr uint64_t kTierMagic = 0x11E2F1A757025Cull;

// Max skiplist height. With branching factor 4 (NodeHeight below), height
// 12 indexes ~4^11 ≈ 4M nodes per socket lane — plenty for the simulated
// pool sizes this engine targets.
inline constexpr int kMaxHeight = 12;

// Upper bound on per-socket lane sets kept by the braid (matches the vt
// cost model's kMaxSockets).
inline constexpr int kMaxLaneSockets = 4;

// One persistent skiplist node: exactly the durable L0 state, fixed at
// 32 bytes. Arena data starts 32-aligned, so a node never straddles a
// cacheline and one node read is one line. The node carries no value
// bytes: `packed` is the same {entry offset, version} word the volatile
// index stores, and the entry it names lives forever in its (tiered,
// never freed) log chunk. `height` is NodeHeight(key): the node has a
// DRAM lane node on its home socket's braid iff height >= 2.
struct TierNode {
  uint64_t key;
  uint64_t packed;  // log::PackIndexValue format; atomically updated
  uint16_t height;  // 1..kMaxHeight
  uint16_t home_socket;
  uint32_t pad;
  uint64_t next0;  // L0 successor's pool offset (0 = end of list)
};
static_assert(sizeof(TierNode) == 32, "a tier node is half a cacheline");

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
  int home_socket;
};

class PersistentTier {
  struct LaneNode;

 public:
  // Formats a fresh tier: allocates the root arena chunk and persists an
  // empty TierRoot. `socket_cores[s]` names a core homed on socket s —
  // the arena allocates each socket's node chunks through that core so
  // nodes land socket-local (DESIGN.md §10.2). Returns nullptr if the
  // pool is out of chunks.
  static std::unique_ptr<PersistentTier> Create(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores);

  // Opens an existing tier rooted at `root_off`: walks the arena chain,
  // then walks L0 once to rebuild the DRAM lanes, invoking
  // `on_node(key, packed)` for every node (recovery uses this to feed the
  // volatile index without a second walk). `on_node` may be null.
  static std::unique_ptr<PersistentTier> Open(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores, uint64_t root_off,
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  ~PersistentTier();

  uint64_t root_off() const { return root_off_; }
  uint64_t node_count() const { return node_count_; }
  uint64_t arena_chunk_count() const { return arena_chunks_.size(); }
  // DRAM bytes held by the lane nodes (all sockets). Quiesced tier only.
  uint64_t lane_bytes() const;

  // Invokes `fn` for every arena chunk offset (recovery marks them
  // allocated; fsck walks them).
  void ForEachArenaChunk(const std::function<void(uint64_t)>& fn) const;

  // Zipper-merges a key-sorted, duplicate-free batch into the tier.
  // Existing keys take the tear-proof in-place packed update; new keys
  // get freshly reserved nodes with per-node persist-before-publish on
  // the L0 link, then DRAM lane nodes linked after the L0 publication.
  // One trailing fence covers the batch's deferred persists; the
  // caller's conversion commit (SetChunkTiered) happens after this
  // returns. Single mutator only. Returns false (with no partial batch
  // published beyond already-fenced nodes — which are harmlessly
  // idempotent) if the pool cannot grow the arena.
  bool InsertBatch(const TierEntry* entries, size_t n);

  // Point lookup. `socket_hint` picks which socket's express lanes to
  // ride (any value is correct; the key's home socket is fastest).
  bool Get(uint64_t key, uint64_t* packed, int socket_hint = 0) const;

  // Ordered L0 cursor with lane-parallel read-ahead (DESIGN.md §11.4).
  // The L0 list is cut into sub-chains at the nodes the DRAM level-1
  // lanes (all sockets, merged in key order) point at, about every 4th
  // node; each sub-chain's head address is known without a PM read, so
  // the sub-chains are walked in parallel, each read issued the moment
  // its address is known, with at most vt::kMemParallelism in flight.
  class Cursor {
   public:
    // Seeks to the first node with key >= start_key: a descent of every
    // socket's DRAM lanes, then an L0 walk from the closest lane node.
    // Every lane node and L0 node the seek reads is charged; the node it
    // stops at is the cursor's first node, already read.
    Cursor(const PersistentTier* tier, uint64_t start_key);

    // Waits for the current node's read (advancing the clock to its
    // completion, issuing it first if it was not yet issued); false once
    // the list is exhausted. key()/packed() require a true return.
    bool Ready();
    uint64_t key() const;
    uint64_t packed() const;
    // Consumes the current node.
    void Next();
    // Issues reads whose address is known now, closest first, while
    // fewer than vt::kMemParallelism are in flight. A node is read only
    // while its merged position — the issued, unconsumed nodes, the
    // expected rest of every earlier sub-chain not yet fully issued, and
    // the keys of the sorted `other[0, n_other)` below it (keys the
    // caller merges in from elsewhere) — stays below `wanted`, the keys
    // the caller still wants. Each read costs vt::kPrefetchIssueCost and
    // completes asynchronously (PmPool::ChargeReadAt).
    void ReadAhead(uint64_t wanted, const uint64_t* other = nullptr,
                   size_t n_other = 0);

   private:
    static constexpr int kMaxChains = 16;
    static constexpr int kChainDepth = 16;
    // One sub-chain: the L0 nodes from a lane node (or the seek's node)
    // up to, not including, the next sub-chain's head `end`. `off` /
    // `ready` hold its issued, unconsumed nodes in L0 order. A chain is
    // dependent: only its tail's read can be in flight.
    struct Chain {
      uint64_t end;
      uint64_t tail;        // last issued node
      uint64_t tail_ready;  // vt completion of the tail's read
      bool done;            // every node up to `end` issued
      int head, count;
      uint64_t off[kChainDepth];
      uint64_t ready[kChainDepth];
    };
    Chain& chain(int j) { return chains_[(first_chain_ + j) % kMaxChains]; }
    // Reads in flight at `now` (one per chain at most: its tail).
    int InFlight(uint64_t now);
    // Before a demand read: waits until fewer than kMemParallelism reads
    // are in flight.
    void WaitForSlot();
    // The tail's L0 successor of a chain whose tail read has completed;
    // marks the chain done (returning 0) at its end.
    uint64_t Successor(Chain* c);
    void Issue(Chain* c, uint64_t node);
    // Opens a sub-chain at the next lane node and issues its head.
    void OpenChain();
    // The next lane node in key order across sockets (null = none), and
    // the socket whose lane holds it (-1 = none).
    const LaneNode* PeekLane() const;
    int NextLaneSocket() const;
    // Steps past PeekLane(), charging the lane node it lands on.
    void PopLane();

    const PersistentTier* tier_;
    Chain chains_[kMaxChains];
    int first_chain_ = 0, num_chains_ = 0;
    LaneNode* lanes_[kMaxLaneSockets] = {};  // lane-1 cursors, per socket
    uint64_t cur_ = 0;  // current node (valid after Ready())
  };

  // In-order walk over every node (tests, fsck, recovery block marking).
  void ForEach(
      const std::function<void(uint64_t key, uint64_t packed)>& fn) const;

 private:
  // One DRAM express-lane node, for a tier node of height h >= 2, on its
  // home socket's braid: the node's key, its TierNode's pool offset, and
  // its successors on lanes 1..h-1 (next[l - 1] is lane l).
  struct LaneNode {
    uint64_t key;
    uint64_t l0;
    LaneNode* next[];  // height - 1 links, sized by NewLaneNode
  };

  PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                 int num_sockets, uint64_t root_off);

  TierRoot* tier_root() const;
  ArenaHeader* arena_header(uint64_t chunk_off) const;
  TierNode* NodeAt(uint64_t off) const {
    return pool_->PtrAt<TierNode>(off);
  }

  // The slot holding lane `level`'s successor of `n` on socket `s`'s
  // braid (n == nullptr: the lane head).
  LaneNode** LaneSlot(int s, LaneNode* n, int level) const {
    return n == nullptr ? &lane_heads_[s][level] : &n->next[level - 1];
  }
  // Descends socket `s`'s lanes: returns the last lane node with key <
  // target (nullptr = none; start from the L0 head), charging one DRAM
  // miss per lane node read. `*succ1` receives its lane-1 successor.
  LaneNode* LaneFloor(uint64_t target, int s, LaneNode** succ1) const;
  // Walks L0 from lane node `from`'s TierNode (nullptr = the L0 head) to
  // the first node with key >= target; returns its offset (0 = none).
  // Every node read, the one that stops the walk included, is charged.
  // When `succ`, the lane successor of `from`, holds the target itself,
  // its node is read directly instead.
  uint64_t WalkL0(const LaneNode* from, const LaneNode* succ,
                  uint64_t target) const;

  // Volatile-only arena bump: assigns one node's bytes from socket
  // `socket`'s tail chunk, growing the chain if needed, and records the
  // touched header in `dirty`. The durable `used` persists + fence happen
  // once per batch in InsertBatch, BEFORE any node byte is written
  // (reserve-then-link).
  uint64_t AssignNodeBytes(int socket, std::vector<uint64_t>* dirty);
  // DRAM lane node from socket `s`'s lane arena (never freed before the
  // tier, like the PM nodes).
  LaneNode* NewLaneNode(int s, uint64_t key, uint64_t l0, int height);

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

  // Braided lanes, one set per socket (index = lane level; [0] unused).
  // DRAM soft state, read/written through atomic_ref like the L0 links.
  mutable LaneNode* lane_heads_[kMaxLaneSockets][kMaxHeight] = {};
  // Per-socket lane-node arenas: fixed-size blocks that never move, so a
  // reader's lane pointer stays valid while the mutator grows the arena.
  struct LaneArena {
    std::vector<std::unique_ptr<uint64_t[]>> blocks;
    uint64_t used = 0;  // words used in the last block
  };
  LaneArena lane_arenas_[kMaxLaneSockets];
};

}  // namespace tier
}  // namespace flatstore

#endif  // FLATSTORE_TIER_TIER_H_
