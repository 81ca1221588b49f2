#include "tier/tier.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace tier {

namespace {

// Bytes usable for nodes in one arena chunk, after the allocator header
// and the arena header.
constexpr uint64_t kArenaDataOff =
    alloc::kChunkHeaderSize + sizeof(ArenaHeader);
constexpr uint64_t kArenaCapacity = alloc::kChunkSize - kArenaDataOff;

inline uint64_t LoadLink(const uint64_t* slot) {
  return std::atomic_ref<const uint64_t>(*slot).load(
      std::memory_order_acquire);
}

inline void StoreLink(uint64_t* slot, uint64_t v) {
  std::atomic_ref<uint64_t>(*slot).store(v, std::memory_order_release);
}

}  // namespace

PersistentTier::PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                               int num_sockets, uint64_t root_off)
    : pool_(pool),
      alloc_(alloc),
      num_sockets_(num_sockets < 1 ? 1 : num_sockets),
      root_off_(root_off),
      arena_global_tail_(root_off) {
  if (num_sockets_ > kMaxLaneSockets) num_sockets_ = kMaxLaneSockets;
  std::memset(lane_heads_, 0, sizeof(lane_heads_));
}

TierRoot* PersistentTier::tier_root() const {
  return pool_->PtrAt<TierRoot>(root_off_ + alloc::kChunkHeaderSize +
                                sizeof(ArenaHeader));
}

ArenaHeader* PersistentTier::arena_header(uint64_t chunk_off) const {
  return pool_->PtrAt<ArenaHeader>(chunk_off + alloc::kChunkHeaderSize);
}

uint64_t PersistentTier::node_count() const { return node_count_; }

std::unique_ptr<PersistentTier> PersistentTier::Create(
    pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
    const std::vector<int>& socket_cores) {
  const int core0 = socket_cores.empty() ? 0 : socket_cores[0];
  const uint64_t off = alloc->AllocRawChunk(core0);
  if (off == 0) return nullptr;
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, num_sockets, off));
  t->socket_cores_ = socket_cores;
  ArenaHeader* hdr = t->arena_header(off);
  hdr->next = 0;
  hdr->socket = 0;
  hdr->used = sizeof(TierRoot);  // the root block is the first reservation
  TierRoot* root = t->tier_root();
  root->head0 = 0;
  root->node_count = 0;
  pool->Persist(hdr, sizeof(ArenaHeader));
  pool->Persist(root, sizeof(TierRoot));
  pool->Fence();
  // The magic is the root's validity bit, made durable only after every
  // other field (same idiom as the superblock format). The tier becomes
  // reachable when the caller publishes tier_root_off in the superblock.
  root->magic = kTierMagic;
  pool->PersistFence(&root->magic, sizeof(root->magic));
  t->arena_chunks_.push_back(off);
  t->socket_tail_[0] = off;
  return t;
}

std::unique_ptr<PersistentTier> PersistentTier::Open(
    pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
    const std::vector<int>& socket_cores, uint64_t root_off,
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, num_sockets, root_off));
  t->socket_cores_ = socket_cores;
  FLATSTORE_CHECK_EQ(t->tier_root()->magic, kTierMagic)
      << "tier root magic mismatch at " << root_off;
  // Walk the arena chain; the last chunk per socket is that socket's
  // allocation tail.
  uint64_t off = root_off;
  while (off != 0) {
    FLATSTORE_CHECK(off % alloc::kChunkSize == 0 &&
                    off + alloc::kChunkSize <= pool->size())
        << "tier arena chain corrupt at " << off;
    t->arena_chunks_.push_back(off);
    const ArenaHeader* hdr = t->arena_header(off);
    const int s = static_cast<int>(hdr->socket) % kMaxLaneSockets;
    t->socket_tail_[s] = off;
    t->arena_global_tail_ = off;
    off = hdr->next;
  }
  t->RebuildLanes(on_node);
  return t;
}

void PersistentTier::RebuildLanes(
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  // The L0 list is the durable truth; the braided per-socket express
  // lanes above it are soft state reconstructed here on every open, so a
  // crash can never expose a torn lane.
  uint64_t* tails[kMaxLaneSockets][kMaxHeight];
  for (int s = 0; s < kMaxLaneSockets; s++)
    for (int l = 0; l < kMaxHeight; l++) tails[s][l] = &lane_heads_[s][l];
  node_count_ = 0;
  uint64_t cur = tier_root()->head0;
  while (cur != 0) {
    TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, TierNodeBytes(n->height));
    FLATSTORE_CHECK(n->height >= 1 && n->height <= kMaxHeight)
        << "tier node at " << cur << " has bad height " << n->height;
    const int s =
        static_cast<int>(n->home_socket) % (num_sockets_ ? num_sockets_ : 1);
    for (int l = 1; l < n->height; l++) {
      // fs-lint: publish-ok(soft lane links, rebuilt from L0 on every open)
      StoreLink(tails[s][l], cur);
      tails[s][l] = &n->next[l];
    }
    if (on_node) on_node(n->key, n->packed);
    node_count_++;
    cur = n->next[0];
  }
  for (int s = 0; s < kMaxLaneSockets; s++) {
    for (int l = 1; l < kMaxHeight; l++) {
      // fs-lint: publish-ok(soft lane terminator, rebuilt from L0 on every open)
      StoreLink(tails[s][l], 0);
    }
  }
}

void PersistentTier::ForEachArenaChunk(
    const std::function<void(uint64_t)>& fn) const {
  for (uint64_t off : arena_chunks_) fn(off);
}

uint64_t PersistentTier::AssignNodeBytes(uint64_t bytes, int socket,
                                         std::vector<uint64_t>* dirty) {
  FLATSTORE_DCHECK(bytes <= kArenaCapacity);
  uint64_t tail = socket_tail_[socket];
  if (tail == 0 || arena_header(tail)->used + bytes > kArenaCapacity) {
    const int core =
        static_cast<size_t>(socket) < socket_cores_.size()
            ? socket_cores_[static_cast<size_t>(socket)]
            : 0;
    const uint64_t fresh = alloc_->AllocRawChunk(core);
    if (fresh == 0) return 0;
    ArenaHeader* hdr = arena_header(fresh);
    hdr->next = 0;
    hdr->used = 0;
    hdr->socket = static_cast<uint64_t>(socket);
    pool_->Persist(hdr, sizeof(ArenaHeader));
    pool_->Fence();
    // Publish the chunk on the arena chain only after its header is
    // durable; the 8-byte link store is tear-proof.
    ArenaHeader* prev = arena_header(arena_global_tail_);
    StoreLink(&prev->next, fresh);
    // fs-lint: deferred-fence(the chain link rides InsertBatch's reserve
    // fence; a torn link only leaks the fresh chunk, never corrupts)
    pool_->Persist(&prev->next, sizeof(uint64_t));
    arena_chunks_.push_back(fresh);
    arena_global_tail_ = fresh;
    socket_tail_[socket] = fresh;
    tail = fresh;
  }
  ArenaHeader* hdr = arena_header(tail);
  const uint64_t off = tail + kArenaDataOff + hdr->used;
  // Volatile bump; InsertBatch persists + fences every dirty `used` word
  // before any node byte is written (reserve-then-link). A crash between
  // the fence and the node writes only leaks the reserved bytes.
  hdr->used += bytes;
  dirty->push_back(tail);
  return off;
}

bool PersistentTier::InsertBatch(const TierEntry* entries, size_t n) {
  if (n == 0) return true;
  TierRoot* root = tier_root();

  // Pass A — classify: one forward L0 cursor (the batch is key-sorted)
  // marks which keys already have nodes (in-place update) vs need fresh
  // ones.
  std::vector<bool> is_new(n);
  {
    uint64_t cur = LoadLink(&root->head0);
    for (size_t i = 0; i < n; i++) {
      FLATSTORE_DCHECK(i == 0 || entries[i - 1].key < entries[i].key)
          << "InsertBatch requires a key-sorted, duplicate-free batch";
      while (cur != 0 && NodeAt(cur)->key < entries[i].key) {
        pool_->ChargeRead(NodeAt(cur), 24);
        cur = LoadLink(&NodeAt(cur)->next[0]);
      }
      is_new[i] = (cur == 0 || NodeAt(cur)->key != entries[i].key);
    }
  }

  // Pass B — reserve-then-link, step 1: durably reserve every new node's
  // bytes. All touched arena `used` words persist under one fence BEFORE
  // any node byte is written, so a post-crash allocator can never hand
  // out bytes under a published node.
  std::vector<uint64_t> offs(n, 0);
  std::vector<uint64_t> dirty;
  for (size_t i = 0; i < n; i++) {
    if (!is_new[i]) continue;
    const int s = entries[i].home_socket % num_sockets_;
    offs[i] = AssignNodeBytes(TierNodeBytes(NodeHeight(entries[i].key)), s,
                              &dirty);
    if (offs[i] == 0) {
      // Arena exhausted; nothing published. Settle any arena chain-link
      // persists issued while growing, then bail.
      pool_->Fence();
      return false;
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (uint64_t chunk : dirty) {
    pool_->Persist(&arena_header(chunk)->used, sizeof(uint64_t));
  }
  if (!dirty.empty()) pool_->Fence();

  // Pass C — zipper merge. Forward-only cursors (one global L0 slot, one
  // lane slot per socket x level) resume from the previous key's
  // position, so the whole batch is a single merge sweep.
  uint64_t* l0_slot = &root->head0;
  uint64_t* lane_slot[kMaxLaneSockets][kMaxHeight];
  for (int s = 0; s < kMaxLaneSockets; s++)
    for (int l = 0; l < kMaxHeight; l++) lane_slot[s][l] = &lane_heads_[s][l];

  for (size_t i = 0; i < n; i++) {
    const uint64_t key = entries[i].key;
    for (;;) {
      const uint64_t nxt = LoadLink(l0_slot);
      if (nxt == 0 || NodeAt(nxt)->key >= key) break;
      pool_->ChargeRead(NodeAt(nxt), 24);
      l0_slot = &NodeAt(nxt)->next[0];
    }
    const uint64_t succ = LoadLink(l0_slot);
    if (!is_new[i]) {
      FLATSTORE_DCHECK(succ != 0 && NodeAt(succ)->key == key);
      TierNode* node = NodeAt(succ);
      // Tear-proof in-place update: one 8-byte store. The entry it names
      // was persisted by the log append long ago.
      StoreLink(&node->packed, entries[i].packed);
      pool_->Persist(&node->packed, sizeof(uint64_t));
      continue;
    }
    const int s = entries[i].home_socket % num_sockets_;
    const int height = NodeHeight(key);
    TierNode* node = NodeAt(offs[i]);
    node->key = key;
    node->packed = entries[i].packed;
    node->height = static_cast<uint16_t>(height);
    node->home_socket = static_cast<uint16_t>(s);
    node->pad = 0;
    node->next[0] = succ;
    for (int l = 1; l < height; l++) {
      while (true) {
        const uint64_t lnxt = LoadLink(lane_slot[s][l]);
        if (lnxt == 0 || NodeAt(lnxt)->key >= key) break;
        pool_->ChargeRead(NodeAt(lnxt), 24);
        lane_slot[s][l] = &NodeAt(lnxt)->next[l];
      }
      node->next[l] = LoadLink(lane_slot[s][l]);
    }
    // Persist-before-publish: the node's bytes are durable and fenced
    // before the single 8-byte L0 link store makes it reachable.
    pool_->Persist(node, TierNodeBytes(height));
    pool_->Fence();
    StoreLink(l0_slot, offs[i]);
    // L0 link is 8-byte tear-proof; the batch's trailing fence orders it
    // before the conversion commit (SetChunkTiered).
    pool_->Persist(l0_slot, sizeof(uint64_t));
    for (int l = 1; l < height; l++) {
      // fs-lint: publish-ok(soft lane links, rebuilt from L0 on every open)
      StoreLink(lane_slot[s][l], offs[i]);
      lane_slot[s][l] = &node->next[l];
    }
    l0_slot = &node->next[0];
    node_count_++;
  }
  root->node_count = node_count_;
  // Advisory counter, recomputed from the L0 walk on open.
  pool_->Persist(&root->node_count, sizeof(uint64_t));
  pool_->Fence();
  return true;
}

uint64_t* PersistentTier::FindL0Slot(uint64_t target, int socket_hint) const {
  const int s = ((socket_hint % num_sockets_) + num_sockets_) % num_sockets_;
  uint64_t* slot = &lane_heads_[s][kMaxHeight - 1];
  for (int level = kMaxHeight - 1; level >= 1; level--) {
    for (;;) {
      const uint64_t nxt = LoadLink(slot);
      if (nxt == 0 || NodeAt(nxt)->key >= target) break;
      pool_->ChargeRead(NodeAt(nxt), 24);
      slot = &NodeAt(nxt)->next[level];
    }
    if (level == 1) {
      // Drop from the socket lanes to the global L0 list: either from the
      // lane head (empty lane walk) or from the last lane node's L0 link.
      slot = (slot == &lane_heads_[s][1]) ? &tier_root()->head0
                                          : slot - 1;
    } else {
      // Lane arrays (both the DRAM heads and a node's next[]) are
      // contiguous, so one slot down is one element back.
      slot = slot - 1;
    }
  }
  for (;;) {
    const uint64_t nxt = LoadLink(slot);
    if (nxt == 0 || NodeAt(nxt)->key >= target) break;
    pool_->ChargeRead(NodeAt(nxt), 24);
    slot = &NodeAt(nxt)->next[0];
  }
  return slot;
}

bool PersistentTier::Get(uint64_t key, uint64_t* packed,
                         int socket_hint) const {
  uint64_t* slot = FindL0Slot(key, socket_hint);
  const uint64_t nxt = LoadLink(slot);
  if (nxt == 0) return false;
  const TierNode* n = NodeAt(nxt);
  pool_->ChargeRead(n, 24);
  if (n->key != key) return false;
  *packed = LoadLink(&n->packed);
  return true;
}

uint64_t PersistentTier::Iterator::key() const {
  FLATSTORE_DCHECK(Valid());
  return tier_->NodeAt(node_)->key;
}

uint64_t PersistentTier::Iterator::packed() const {
  FLATSTORE_DCHECK(Valid());
  return LoadLink(&tier_->NodeAt(node_)->packed);
}

void PersistentTier::Iterator::Next() {
  FLATSTORE_DCHECK(Valid());
  node_ = LoadLink(&tier_->NodeAt(node_)->next[0]);
}

uint64_t PersistentTier::Iterator::IssueRead(uint64_t issue_time) const {
  FLATSTORE_DCHECK(Valid());
  const TierNode* n = tier_->NodeAt(node_);
  __builtin_prefetch(n, 0, 3);
  return tier_->pool_->ChargeReadAt(n, 24, issue_time);
}

PersistentTier::Iterator PersistentTier::Seek(uint64_t start_key,
                                              int socket_hint) const {
  uint64_t* slot = FindL0Slot(start_key, socket_hint);
  return Iterator(this, LoadLink(slot));
}

void PersistentTier::ForEach(
    const std::function<void(uint64_t key, uint64_t packed)>& fn) const {
  uint64_t cur = LoadLink(&tier_root()->head0);
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, 24);
    fn(n->key, LoadLink(&n->packed));
    cur = LoadLink(&n->next[0]);
  }
}

}  // namespace tier
}  // namespace flatstore
