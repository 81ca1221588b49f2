#include "tier/tier.h"

#include <algorithm>
#include <atomic>

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

// Directory entries per 64-byte line. The directory is one DRAM
// structure homed on socket 0.
constexpr size_t kEntriesPerLine = 64 / sizeof(DirEntry);
constexpr int kDirSocket = 0;

inline uint64_t LoadLink(const uint64_t* slot) {
  return std::atomic_ref<const uint64_t>(*slot).load(
      std::memory_order_acquire);
}

inline void StoreLink(uint64_t* slot, uint64_t v) {
  std::atomic_ref<uint64_t>(*slot).store(v, std::memory_order_release);
}

// Charges one DRAM miss for reading entry `i`, unless `*line` (the last
// line charged) already holds it.
inline void TouchLine(size_t i, size_t* line) {
  if (i / kEntriesPerLine != *line) {
    *line = i / kEntriesPerLine;
    vt::ChargeMissAt(kDirSocket, vt::kCpuCacheMiss);
  }
}

// Index of the first entry with key >= target: binary search while more
// than a line's worth of entries remains, then a scan of the rest. Every
// line read is charged once.
size_t Search(const std::vector<DirEntry>& d, uint64_t target,
              size_t* line) {
  size_t lo = 0, len = d.size();
  while (len > kEntriesPerLine) {
    const size_t half = len / 2;
    TouchLine(lo + half, line);
    if (d[lo + half].key < target) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  for (; len > 0; lo++, len--) {
    TouchLine(lo, line);
    if (d[lo].key >= target) break;
  }
  return lo;
}

}  // namespace

PersistentTier::PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                               common::EpochManager* epochs, int num_sockets,
                               uint64_t root_off)
    : pool_(pool),
      alloc_(alloc),
      epochs_(epochs),
      num_sockets_(std::clamp(num_sockets, 1, vt::kMaxSockets)),
      root_off_(root_off),
      arena_global_tail_(root_off),
      dir_(nullptr) {}

PersistentTier::~PersistentTier() {
  delete dir_.load(std::memory_order_acquire);
}

TierRoot* PersistentTier::tier_root() const {
  return pool_->PtrAt<TierRoot>(root_off_ + kArenaDataOff);
}

ArenaHeader* PersistentTier::arena_header(uint64_t chunk_off) const {
  return pool_->PtrAt<ArenaHeader>(chunk_off + alloc::kChunkHeaderSize);
}

std::unique_ptr<PersistentTier> PersistentTier::Create(
    pm::PmPool* pool, alloc::LazyAllocator* alloc,
    common::EpochManager* epochs, int num_sockets,
    const std::vector<int>& socket_cores) {
  const int core0 = socket_cores.empty() ? 0 : socket_cores[0];
  const uint64_t off = alloc->AllocRawChunk(core0);
  if (off == 0) return nullptr;
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, epochs, num_sockets, off));
  t->socket_cores_ = socket_cores;
  t->dir_.store(new Directory(), std::memory_order_release);
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
    pm::PmPool* pool, alloc::LazyAllocator* alloc,
    common::EpochManager* epochs, int num_sockets,
    const std::vector<int>& socket_cores, uint64_t root_off,
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, epochs, num_sockets, root_off));
  t->socket_cores_ = socket_cores;
  const TierRoot* root = t->tier_root();
  FLATSTORE_CHECK_EQ(root->magic, kTierMagic)
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
    const int s = static_cast<int>(hdr->socket % vt::kMaxSockets);
    t->socket_tail_[s] = off;
    t->arena_global_tail_ = off;
    off = hdr->next;
  }
  // The L0 list is the durable truth; the directory is built from one
  // walk of it on every open.
  auto dir = std::make_unique<Directory>();
  dir->reserve(std::min(root->node_count, pool->size() / sizeof(TierNode)));
  for (uint64_t cur = root->head0; cur != 0;) {
    const TierNode* n = t->NodeAt(cur);
    pool->ChargeRead(n, sizeof(TierNode));
    FLATSTORE_CHECK(dir->empty() || n->key > dir->back().key)
        << "tier L0 keys not strictly ascending at node " << cur;
    dir->push_back({n->key, cur});
    if (on_node) on_node(n->key, n->packed);
    cur = n->next0;
  }
  t->dir_.store(dir.release(), std::memory_order_release);
  return t;
}

void PersistentTier::Publish(std::unique_ptr<Directory> fresh) {
  const Directory* old =
      dir_.exchange(fresh.release(), std::memory_order_acq_rel);
  // Readers pinned before the exchange may still walk `old`.
  epochs_->Defer([old] { delete old; });
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
  LockGuard<Mutex> g(insert_mu_);
  TierRoot* root = tier_root();
  // The mutator's own snapshot: only a mutator retires snapshots, so no
  // reader pin is needed to read it.
  const Directory& dir = Snapshot();

  // Pass A — classify: one forward directory cursor (the batch is
  // key-sorted) finds each key's place, at[i] = its first entry with key
  // >= entries[i].key. A key that entry holds has a node (in-place
  // update); every other key needs a fresh one.
  std::vector<size_t> at(n);
  std::vector<bool> is_new(n);
  size_t new_keys = 0;
  for (size_t i = 0, p = 0; i < n; i++) {
    FLATSTORE_DCHECK(i == 0 || entries[i - 1].key < entries[i].key)
        << "InsertBatch requires a key-sorted, duplicate-free batch";
    while (p < dir.size() && dir[p].key < entries[i].key) p++;
    at[i] = p;
    is_new[i] = p == dir.size() || dir[p].key != entries[i].key;
    new_keys += is_new[i] ? 1 : 0;
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

  // Pass C — link, and merge the new keys into a fresh directory. A new
  // node's L0 predecessor is the last node below its key, old or new;
  // its successor is the old node at[i] names. Neither is read from PM.
  auto fresh = std::make_unique<Directory>();
  fresh->reserve(dir.size() + new_keys);
  size_t copied = 0;  // old entries already merged into `fresh`
  uint64_t pred = 0;  // last node below the current key (0 = L0 head)
  for (size_t i = 0; i < n; i++) {
    const uint64_t key = entries[i].key;
    if (at[i] > copied) {
      fresh->insert(fresh->end(), dir.begin() + static_cast<ptrdiff_t>(copied),
                    dir.begin() + static_cast<ptrdiff_t>(at[i]));
      copied = at[i];
      pred = dir[copied - 1].node;
    }
    if (!is_new[i]) {
      TierNode* node = NodeAt(dir[at[i]].node);
      // Tear-proof in-place update: one 8-byte store. The entry it names
      // was persisted by the log append long ago.
      StoreLink(&node->packed, entries[i].packed);
      pool_->Persist(&node->packed, sizeof(uint64_t));
      continue;
    }
    uint64_t* l0_slot = pred == 0 ? &root->head0 : &NodeAt(pred)->next0;
    const uint64_t succ = at[i] < dir.size() ? dir[at[i]].node : 0;
    FLATSTORE_DCHECK(LoadLink(l0_slot) == succ)
        << "tier directory disagrees with L0 at key " << key;
    TierNode* node = NodeAt(offs[i]);
    node->key = key;
    node->packed = entries[i].packed;
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
    fresh->push_back({key, offs[i]});
    pred = offs[i];
  }
  fresh->insert(fresh->end(), dir.begin() + static_cast<ptrdiff_t>(copied),
                dir.end());
  // The merge streams the old directory into the new one.
  vt::Charge(vt::CostMemcpy(fresh->size() * sizeof(DirEntry)));
  root->node_count = fresh->size();
  // Advisory counter, recomputed from the L0 walk on open.
  pool_->Persist(&root->node_count, sizeof(uint64_t));
  pool_->Fence();
  Publish(std::move(fresh));
  return true;
}

bool PersistentTier::Get(uint64_t key, uint64_t* packed) const {
  const Directory& d = Snapshot();
  size_t line = SIZE_MAX;
  const size_t i = Search(d, key, &line);
  if (i == d.size() || d[i].key != key) return false;
  const TierNode* n = NodeAt(d[i].node);
  pool_->ChargeRead(&n->packed, sizeof(uint64_t));
  *packed = LoadLink(&n->packed);
  return true;
}

PersistentTier::Cursor::Cursor(const PersistentTier* tier, uint64_t start_key)
    : dir_(&tier->Snapshot()), line_(SIZE_MAX) {
  i_ = Search(*dir_, start_key, &line_);
}

bool PersistentTier::Cursor::Valid() {
  if (i_ >= dir_->size()) return false;
  TouchLine(i_, &line_);
  return true;
}

void PersistentTier::ForEach(
    const std::function<void(uint64_t key, uint64_t packed)>& fn) const {
  for (const DirEntry& e : Snapshot()) {
    const TierNode* n = NodeAt(e.node);
    pool_->ChargeRead(n, sizeof(TierNode));
    fn(e.key, LoadLink(&n->packed));
  }
}

}  // namespace tier
}  // namespace flatstore
