#include "tier/tier.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#include "vt/clock.h"

namespace flatstore {
namespace tier {

namespace {

// Bytes usable for nodes in one arena chunk, after the allocator header
// and the arena header. Node data starts 32-aligned.
constexpr uint64_t kArenaDataOff =
    alloc::kChunkHeaderSize + sizeof(ArenaHeader);
constexpr uint64_t kArenaCapacity = alloc::kChunkSize - kArenaDataOff;
static_assert(kArenaDataOff % sizeof(TierNode) == 0 &&
                  sizeof(TierRoot) % sizeof(TierNode) == 0,
              "tier nodes stay 32-aligned");

// Expected nodes still to come in a sub-chain that is not fully issued:
// NodeHeight makes every 4th node a lane-1 node, so a sub-chain runs on
// for 3 more nodes on average, whatever has been read of it.
constexpr uint64_t kSubChainRest = 3;

// Words per DRAM lane-arena block (64 KiB).
constexpr uint64_t kLaneBlockWords = 8192;

template <typename T>
inline T* LoadLink(T** slot) {
  return std::atomic_ref<T*>(*slot).load(std::memory_order_acquire);
}

inline uint64_t LoadLink(const uint64_t* slot) {
  return std::atomic_ref<const uint64_t>(*slot).load(
      std::memory_order_acquire);
}

template <typename T>
inline void StoreLink(T* slot, T v) {
  std::atomic_ref<T>(*slot).store(v, std::memory_order_release);
}

}  // namespace

PersistentTier::PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                               int num_sockets, uint64_t root_off)
    : pool_(pool),
      alloc_(alloc),
      num_sockets_(std::clamp(num_sockets, 1, kMaxLaneSockets)),
      root_off_(root_off),
      arena_global_tail_(root_off) {}

PersistentTier::~PersistentTier() = default;

TierRoot* PersistentTier::tier_root() const {
  return pool_->PtrAt<TierRoot>(root_off_ + kArenaDataOff);
}

ArenaHeader* PersistentTier::arena_header(uint64_t chunk_off) const {
  return pool_->PtrAt<ArenaHeader>(chunk_off + alloc::kChunkHeaderSize);
}

uint64_t PersistentTier::lane_bytes() const {
  uint64_t words = 0;
  for (const LaneArena& a : lane_arenas_) {
    if (!a.blocks.empty()) {
      words += (a.blocks.size() - 1) * kLaneBlockWords + a.used;
    }
  }
  return 8 * words;
}

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
  hdr->pad = 0;
  hdr->used = sizeof(TierRoot);  // the root block is the first reservation
  TierRoot* root = t->tier_root();
  root->head0 = 0;
  root->node_count = 0;
  root->pad = 0;
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

PersistentTier::LaneNode* PersistentTier::NewLaneNode(int s, uint64_t key,
                                                      uint64_t l0,
                                                      int height) {
  const uint64_t words = 2 + static_cast<uint64_t>(height - 1);
  LaneArena& a = lane_arenas_[s];
  if (a.blocks.empty() || a.used + words > kLaneBlockWords) {
    a.blocks.push_back(
        std::make_unique_for_overwrite<uint64_t[]>(kLaneBlockWords));
    a.used = 0;
  }
  auto* n = new (a.blocks.back().get() + a.used) LaneNode;
  a.used += words;
  n->key = key;
  n->l0 = l0;
  for (int l = 0; l < height - 1; l++) n->next[l] = nullptr;
  return n;
}

void PersistentTier::RebuildLanes(
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  // The L0 list is the durable truth; the braided per-socket DRAM lanes
  // above it are rebuilt here on every open.
  LaneNode** tails[kMaxLaneSockets][kMaxHeight];
  for (int s = 0; s < kMaxLaneSockets; s++) {
    for (int l = 1; l < kMaxHeight; l++) tails[s][l] = LaneSlot(s, nullptr, l);
  }
  node_count_ = 0;
  uint64_t cur = tier_root()->head0;
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, sizeof(TierNode));
    FLATSTORE_CHECK(n->height >= 1 && n->height <= kMaxHeight)
        << "tier node at " << cur << " has bad height " << n->height;
    if (n->height >= 2) {
      const int s = n->home_socket % num_sockets_;
      LaneNode* ln = NewLaneNode(s, n->key, cur, n->height);
      for (int l = 1; l < n->height; l++) {
        StoreLink(tails[s][l], ln);
        tails[s][l] = LaneSlot(s, ln, l);
      }
    }
    if (on_node) on_node(n->key, n->packed);
    node_count_++;
    cur = n->next0;
  }
}

void PersistentTier::ForEachArenaChunk(
    const std::function<void(uint64_t)>& fn) const {
  for (uint64_t off : arena_chunks_) fn(off);
}

uint64_t PersistentTier::AssignNodeBytes(int socket,
                                         std::vector<uint64_t>* dirty) {
  constexpr uint64_t kBytes = sizeof(TierNode);
  uint64_t tail = socket_tail_[socket];
  if (tail == 0 || arena_header(tail)->used + kBytes > kArenaCapacity) {
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
    hdr->pad = 0;
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
  hdr->used += kBytes;
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
        pool_->ChargeRead(NodeAt(cur), sizeof(TierNode));
        cur = LoadLink(&NodeAt(cur)->next0);
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
    offs[i] = AssignNodeBytes(entries[i].home_socket % num_sockets_, &dirty);
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
  // DRAM lane slot per socket x level) resume from the previous key's
  // position, so the whole batch is a single merge sweep.
  uint64_t* l0_slot = &root->head0;
  LaneNode** lane_slot[kMaxLaneSockets][kMaxHeight];
  for (int s = 0; s < kMaxLaneSockets; s++) {
    for (int l = 1; l < kMaxHeight; l++) {
      lane_slot[s][l] = LaneSlot(s, nullptr, l);
    }
  }

  for (size_t i = 0; i < n; i++) {
    const uint64_t key = entries[i].key;
    for (;;) {
      const uint64_t nxt = LoadLink(l0_slot);
      if (nxt == 0 || NodeAt(nxt)->key >= key) break;
      pool_->ChargeRead(NodeAt(nxt), sizeof(TierNode));
      l0_slot = &NodeAt(nxt)->next0;
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
    node->next0 = succ;
    // Persist-before-publish: the node's bytes are durable and fenced
    // before the single 8-byte L0 link store makes it reachable.
    pool_->Persist(node, sizeof(TierNode));
    pool_->Fence();
    StoreLink(l0_slot, offs[i]);
    // L0 link is 8-byte tear-proof; the batch's trailing fence orders it
    // before the conversion commit (SetChunkTiered).
    pool_->Persist(l0_slot, sizeof(uint64_t));
    l0_slot = &node->next0;
    node_count_++;
    if (height < 2) continue;
    // The DRAM lane node links after the L0 publication, so a reader that
    // reaches the node through a lane finds it on L0 too.
    LaneNode* ln = NewLaneNode(s, key, offs[i], height);
    for (int l = 1; l < height; l++) {
      for (;;) {
        LaneNode* lnxt = LoadLink(lane_slot[s][l]);
        if (lnxt == nullptr || lnxt->key >= key) break;
        vt::ChargeMissAt(s, vt::kCpuCacheMiss);
        lane_slot[s][l] = LaneSlot(s, lnxt, l);
      }
      ln->next[l - 1] = LoadLink(lane_slot[s][l]);
      StoreLink(lane_slot[s][l], ln);
      lane_slot[s][l] = LaneSlot(s, ln, l);
    }
  }
  root->node_count = node_count_;
  // Advisory counter, recomputed from the L0 walk on open.
  pool_->Persist(&root->node_count, sizeof(uint64_t));
  pool_->Fence();
  return true;
}

PersistentTier::LaneNode* PersistentTier::LaneFloor(uint64_t target, int s,
                                                    LaneNode** succ1) const {
  LaneNode* cur = nullptr;
  LaneNode* nxt = nullptr;
  const LaneNode* charged = nullptr;  // a stop node is often the next
                                      // level's stop node too
  for (int level = kMaxHeight - 1; level >= 1; level--) {
    for (;;) {
      nxt = LoadLink(LaneSlot(s, cur, level));
      if (nxt == nullptr) break;
      if (nxt != charged) {
        vt::ChargeMissAt(s, vt::kCpuCacheMiss);
        charged = nxt;
      }
      if (nxt->key >= target) break;
      cur = nxt;
    }
  }
  *succ1 = nxt;
  return cur;
}

uint64_t PersistentTier::WalkL0(const LaneNode* from, const LaneNode* succ,
                                uint64_t target) const {
  if (succ != nullptr && succ->key == target) {
    // The lane names the target's node: read it directly.
    pool_->ChargeRead(NodeAt(succ->l0), sizeof(TierNode));
    return succ->l0;
  }
  uint64_t cur;
  if (from == nullptr) {
    cur = LoadLink(&tier_root()->head0);
  } else {
    const TierNode* x = NodeAt(from->l0);
    pool_->ChargeRead(x, sizeof(TierNode));
    cur = LoadLink(&x->next0);
  }
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, sizeof(TierNode));
    if (n->key >= target) return cur;
    cur = LoadLink(&n->next0);
  }
  return 0;
}

bool PersistentTier::Get(uint64_t key, uint64_t* packed,
                         int socket_hint) const {
  const int s = ((socket_hint % num_sockets_) + num_sockets_) % num_sockets_;
  LaneNode* succ = nullptr;
  const LaneNode* floor = LaneFloor(key, s, &succ);
  const uint64_t off = WalkL0(floor, succ, key);
  if (off == 0 || NodeAt(off)->key != key) return false;
  *packed = LoadLink(&NodeAt(off)->packed);
  return true;
}

// ---- Cursor ---------------------------------------------------------------

PersistentTier::Cursor::Cursor(const PersistentTier* tier, uint64_t start_key)
    : tier_(tier) {
  // Descend every socket's braid: the closest floor across sockets
  // shortens the L0 walk, and the lane-1 successors seed the merged
  // lane cursor that cuts L0 into sub-chains.
  const LaneNode* floor = nullptr;
  for (int s = 0; s < tier->num_sockets_; s++) {
    const LaneNode* f = tier->LaneFloor(start_key, s, &lanes_[s]);
    if (f != nullptr && (floor == nullptr || f->key > floor->key)) floor = f;
  }
  const uint64_t first = tier->WalkL0(floor, PeekLane(), start_key);
  if (first == 0) {
    std::fill(std::begin(lanes_), std::end(lanes_), nullptr);
    return;
  }
  // The seek's node opens the first sub-chain; a lane node at or below it
  // (the node itself, or one published since the walk) is behind us.
  const uint64_t first_key = tier->NodeAt(first)->key;
  while (PeekLane() != nullptr && PeekLane()->key <= first_key) PopLane();
  const LaneNode* end = PeekLane();
  Chain& c = chains_[0];
  c.end = end != nullptr ? end->l0 : 0;
  c.done = false;
  c.head = 0;
  c.count = 1;
  c.off[0] = first;
  c.ready[0] = vt::Now();  // read by the seek
  c.tail = first;
  c.tail_ready = c.ready[0];
  num_chains_ = 1;
}

int PersistentTier::Cursor::NextLaneSocket() const {
  int best = -1;
  for (int s = 0; s < tier_->num_sockets_; s++) {
    if (lanes_[s] != nullptr &&
        (best < 0 || lanes_[s]->key < lanes_[best]->key)) {
      best = s;
    }
  }
  return best;
}

const PersistentTier::LaneNode* PersistentTier::Cursor::PeekLane() const {
  const int s = NextLaneSocket();
  return s < 0 ? nullptr : lanes_[s];
}

void PersistentTier::Cursor::PopLane() {
  const int s = NextLaneSocket();
  FLATSTORE_DCHECK(s >= 0);
  lanes_[s] = LoadLink(&lanes_[s]->next[0]);
  if (lanes_[s] != nullptr) vt::ChargeMissAt(s, vt::kCpuCacheMiss);
}

int PersistentTier::Cursor::InFlight(uint64_t now) {
  int n = 0;
  for (int j = 0; j < num_chains_; j++) {
    if (chain(j).tail_ready > now) n++;
  }
  return n;
}

void PersistentTier::Cursor::WaitForSlot() {
  vt::Clock* clock = vt::CurrentClock();
  if (clock == nullptr) return;
  while (InFlight(clock->now()) >= vt::kMemParallelism) {
    uint64_t earliest = UINT64_MAX;
    for (int j = 0; j < num_chains_; j++) {
      if (chain(j).tail_ready > clock->now()) {
        earliest = std::min(earliest, chain(j).tail_ready);
      }
    }
    clock->AdvanceTo(earliest);
  }
}

void PersistentTier::Cursor::Issue(Chain* c, uint64_t node) {
  const TierNode* n = tier_->NodeAt(node);
  __builtin_prefetch(n, 0, 3);
  uint64_t ready = 0;
  if (vt::Clock* clock = vt::CurrentClock()) {
    clock->Advance(vt::kPrefetchIssueCost);
    ready = tier_->pool_->ChargeReadAt(n, sizeof(TierNode), clock->now());
  }
  const int slot = (c->head + c->count) % kChainDepth;
  c->off[slot] = node;
  c->ready[slot] = ready;
  c->count++;
  c->tail = node;
  c->tail_ready = ready;
}

uint64_t PersistentTier::Cursor::Successor(Chain* c) {
  const uint64_t nxt = LoadLink(&tier_->NodeAt(c->tail)->next0);
  if (nxt == c->end || nxt == 0) {
    c->done = true;
    return 0;
  }
  return nxt;
}

void PersistentTier::Cursor::OpenChain() {
  const LaneNode* head = PeekLane();
  PopLane();
  Chain& c = chain(num_chains_++);
  const LaneNode* end = PeekLane();
  c.end = end != nullptr ? end->l0 : 0;
  c.done = false;
  c.head = 0;
  c.count = 0;
  Issue(&c, head->l0);
}

void PersistentTier::Cursor::ReadAhead(uint64_t wanted, const uint64_t* other,
                                       size_t n_other) {
  // Keys merged in from elsewhere that come before a tier key `k`.
  auto other_below = [&](uint64_t k) -> uint64_t {
    return static_cast<uint64_t>(std::lower_bound(other, other + n_other, k) -
                                 other);
  };
  const uint64_t now = vt::Now();
  int in_flight = InFlight(now);
  while (in_flight < vt::kMemParallelism) {
    // A candidate's merged position: every issued, unconsumed node, the
    // nodes still to come in each earlier chain not yet fully issued
    // (about 3: NodeHeight gives lane-1 nodes every 4th node), and every
    // merged-in key below it. Positions only grow along the list, so the
    // first candidate past the horizon ends the search. Closest first.
    uint64_t ahead = 0;
    for (int j = 0; j < num_chains_; j++) {
      ahead += static_cast<uint64_t>(chain(j).count);
    }
    bool issued = false, horizon = false;
    for (int j = 0; j < num_chains_ && !issued && !horizon; j++) {
      Chain& c = chain(j);
      if (c.done) continue;
      if (c.tail_ready <= now && c.count < kChainDepth) {
        // The tail's read has completed: its key and L0 link are in hand.
        if (ahead + other_below(tier_->NodeAt(c.tail)->key) >= wanted) {
          horizon = true;
        } else if (const uint64_t nxt = Successor(&c)) {
          Issue(&c, nxt);
          issued = true;
        }
      }
      if (!c.done) ahead += kSubChainRest;
    }
    if (!issued) {
      const LaneNode* lane = PeekLane();
      if (horizon || lane == nullptr || num_chains_ == kMaxChains ||
          ahead + other_below(lane->key) >= wanted) {
        return;
      }
      OpenChain();
    }
    in_flight++;
  }
}

bool PersistentTier::Cursor::Ready() {
  for (;;) {
    if (num_chains_ == 0) {
      if (PeekLane() == nullptr) return false;
      WaitForSlot();
      OpenChain();
      continue;
    }
    Chain& c = chain(0);
    if (c.count > 0) {
      cur_ = c.off[c.head];
      if (vt::Clock* clock = vt::CurrentClock()) {
        clock->AdvanceTo(c.ready[c.head]);
      }
      return true;
    }
    // Every issued node of the current chain was consumed, so its tail's
    // read has completed: read on, or move to the next chain.
    if (!c.done) {
      if (const uint64_t nxt = Successor(&c)) {
        WaitForSlot();
        Issue(&c, nxt);
        continue;
      }
    }
    first_chain_ = (first_chain_ + 1) % kMaxChains;
    num_chains_--;
  }
}

uint64_t PersistentTier::Cursor::key() const {
  return tier_->NodeAt(cur_)->key;
}

uint64_t PersistentTier::Cursor::packed() const {
  return LoadLink(&tier_->NodeAt(cur_)->packed);
}

void PersistentTier::Cursor::Next() {
  Chain& c = chain(0);
  FLATSTORE_DCHECK(c.count > 0 && c.off[c.head] == cur_);
  c.head = (c.head + 1) % kChainDepth;
  c.count--;
}

void PersistentTier::ForEach(
    const std::function<void(uint64_t key, uint64_t packed)>& fn) const {
  uint64_t cur = LoadLink(&tier_root()->head0);
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, sizeof(TierNode));
    fn(n->key, LoadLink(&n->packed));
    cur = LoadLink(&n->next0);
  }
}

}  // namespace tier
}  // namespace flatstore
