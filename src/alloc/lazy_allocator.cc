#include "alloc/lazy_allocator.h"

#include <algorithm>
#include <cstring>

#include "common/cacheline.h"
#include "common/logging.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace alloc {

LazyAllocator::LazyAllocator(pm::PmPool* pool, uint64_t region_off,
                             uint64_t region_len, int num_cores)
    : pool_(pool),
      region_off_(region_off),
      num_chunks_(region_len / kChunkSize),
      num_cores_(num_cores),
      pool_sockets_(pool->num_sockets()),
      sockets_(static_cast<size_t>(pool_sockets_)),
      cores_(static_cast<size_t>(num_cores)) {
  FLATSTORE_CHECK_EQ(region_off % kChunkSize, 0u);
  // Offset 0 is the "allocation failed" sentinel, so the region must not
  // start at the very beginning of the pool (the superblock lives there).
  FLATSTORE_CHECK_GT(region_off, 0u);
  FLATSTORE_CHECK(num_chunks_ > 0);
  FLATSTORE_CHECK(region_off + region_len <= pool->size());
  chunks_.reserve(num_chunks_);
  // Socket-local pools: each chunk joins the free pool of the socket that
  // owns its address span. Lists are filled back-to-front so pops hand
  // out ascending chunk ids, matching the historical single-list order on
  // 1-socket pools.
  for (uint64_t i = 0; i < num_chunks_; i++) {
    chunks_.push_back(std::make_unique<ChunkState>());
  }
  for (uint64_t i = num_chunks_; i-- > 0;) {
    free_lists_[pool_->SocketOf(ChunkOffset(i))].push_back(
        static_cast<int64_t>(i));
  }
  free_count_ = num_chunks_;
}

uint32_t LazyAllocator::ClassFor(uint64_t size) {
  for (uint32_t cls : kSizeClasses) {
    if (size <= cls) return cls;
  }
  return 0;  // needs a raw chunk
}

size_t LazyAllocator::ClassIndex(uint32_t cls) {
  for (size_t i = 0; i < kSizeClasses.size(); i++) {
    if (kSizeClasses[i] == cls) return i;
  }
  FLATSTORE_CHECK(false) << "unknown size class " << cls;
  return 0;
}

int64_t LazyAllocator::PopFreeChunk(int socket) {
  FLATSTORE_DCHECK(socket >= 0 && socket < pool_sockets_);
  LockGuard<SpinLock> g(free_lock_);
  // Placement-off mode: deal chunks round-robin across sockets instead
  // of honouring the core's home, modelling interleaved first-touch.
  // relaxed: set once at rig construction, read under free_lock_.
  if (pool_sockets_ > 1 &&
      interleave_.load(std::memory_order_relaxed)) {
    socket = interleave_next_;
    interleave_next_ = (interleave_next_ + 1) % pool_sockets_;
  }
  // Local pool first; once it runs dry, steal from the other sockets in
  // round order (capacity beats locality — a remote chunk still works,
  // it just pays the link surcharge on every access).
  for (int d = 0; d < pool_sockets_; d++) {
    std::vector<int64_t>& list = free_lists_[(socket + d) % pool_sockets_];
    if (list.empty()) continue;
    int64_t id = list.back();
    list.pop_back();
    free_count_--;
    UpdatePressure();
    return id;
  }
  return -1;
}

void LazyAllocator::UpdatePressure() {
  // relaxed: advisory signal read by the cleaner's MemoryPressure poll;
  // no ordering is implied with the free-list contents.
  const uint64_t wm = low_watermark_.load(std::memory_order_relaxed);
  int level = 0;
  if (wm > 0) {
    const uint64_t n = free_count_;
    if (n <= wm / 4) {
      level = 2;
    } else if (n <= wm) {
      level = 1;
    }
  }
  // relaxed: advisory signal; see the load above.
  pressure_.store(level, std::memory_order_relaxed);
}

void LazyAllocator::SetFreeChunkLowWatermark(uint64_t n) {
  // relaxed: configuration word; UpdatePressure below republishes the
  // derived level under free_lock_.
  low_watermark_.store(n, std::memory_order_relaxed);
  LockGuard<SpinLock> g(free_lock_);
  UpdatePressure();
}

void LazyAllocator::FormatValueChunk(int64_t chunk, uint32_t cls, int core) {
  ChunkHeader* h = HeaderOf(chunk);
  h->magic = kChunkMagic;
  h->size_class = cls;
  h->owner_core = static_cast<uint32_t>(core);
  // fs-lint: pm-write(bitmap is lazy by design — rebuilt from the log on recovery, paper section 3.2; the header fields are fenced below)
  std::memset(h->bitmap, 0, sizeof(h->bitmap));
  // The paper persists the cutting size when the chunk becomes ready for
  // allocation; the bitmap itself stays lazy.
  pool_->PersistFence(h, 16);

  // The chunk just left the free list, so no other thread allocates from
  // it yet — but the introspection helpers (IsAllocated, allocated_bytes)
  // iterate every chunk under its lock concurrently, so the volatile
  // state must be written under the lock too. (These stores were
  // unlocked before the thread-safety pass.)
  ChunkState& st = *chunks_[chunk];
  LockGuard<SpinLock> g(st.lock);
  st.size_class = cls;
  st.used = 0;
  st.owner = core;
  st.formatted = true;
  st.raw = false;
  st.next_free_hint = 0;
}

int64_t LazyAllocator::TakeBlock(ChunkState& st, ChunkHeader* h) {
  const uint32_t blocks = BlocksPerChunk(st.size_class);
  const uint32_t words = static_cast<uint32_t>(BitmapView::WordsFor(blocks));
  uint32_t w = st.next_free_hint;
  for (uint32_t n = 0; n < words; n++, w = (w + 1) % words) {
    if (h->bitmap[w] == ~0ull) continue;
    uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(~h->bitmap[w]));
    uint32_t idx = w * 64 + bit;
    if (idx >= blocks) continue;  // tail bits of the last word
    // fs-lint: pm-write(the lazy-persist trick, paper section 3.2: the bitmap is never flushed on allocation — the OpLog durably holds every live pointer and recovery recomputes the bitmap)
    h->bitmap[w] |= (1ull << bit);
    st.used++;
    st.next_free_hint = w;
    return idx;
  }
  return -1;
}

uint64_t LazyAllocator::Alloc(int core, uint64_t size) {
  FLATSTORE_DCHECK(core >= 0 && core < num_cores_);
  // The pop: the magazine's count, then its top slot.
  vt::Charge(2 * vt::kCpuSlotProbe);
  const uint32_t cls = ClassFor(size);
  if (cls == 0) {
    // Raw-chunk fallback for huge values (rare in KV workloads).
    FLATSTORE_CHECK_LE(size, kChunkSize - kChunkHeaderSize)
        << "multi-chunk values are not supported";
    uint64_t chunk_off = AllocRawChunk(core);
    return chunk_off == 0 ? 0 : chunk_off + kChunkHeaderSize;
  }
  Magazine& mag = cores_[core].classes[ClassIndex(cls)];
  // relaxed: only this core's thread writes `count`; allocated_bytes'
  // reads from other threads are advisory until serving quiesces.
  uint32_t n = mag.count.load(std::memory_order_relaxed);
  if (n == 0) {
    n = Refill(core, cls, mag.blocks.data(), MagazineCapacity(cls));
    if (n == 0) return 0;  // out of PM space
  }
  n--;
  // relaxed: see the load above.
  mag.count.store(n, std::memory_order_relaxed);
  return mag.blocks[n];
}

uint32_t LazyAllocator::Refill(int core, uint32_t cls, uint64_t* out,
                               uint32_t want) {
  // The class lock and its line, shared by every core of the socket.
  vt::Charge(vt::kCpuCas + vt::kCpuCacheMiss);
  const int socket = SocketForCore(core);
  ClassState& cs = sockets_[socket][ClassIndex(cls)];
  LockGuard<SpinLock> g(cs.lock);
  while (true) {
    // Refill the current chunk: a partially free chunk, else a fresh one.
    while (cs.current < 0 && !cs.partial.empty()) {
      const int64_t cand = cs.partial.back();
      cs.partial.pop_back();
      ChunkState& st = *chunks_[cand];
      LockGuard<SpinLock> cg(st.lock);
      st.in_partial_list = false;
      if (st.used < BlocksPerChunk(cls)) cs.current = cand;
    }
    if (cs.current < 0) {
      const int64_t fresh = PopFreeChunk(socket);
      if (fresh < 0) return 0;
      FormatValueChunk(fresh, cls, core);
      cs.current = fresh;
    }
    const int64_t chunk = cs.current;
    ChunkState& st = *chunks_[chunk];
    ChunkHeader* h = HeaderOf(chunk);
    LockGuard<SpinLock> cg(st.lock);
    uint32_t got = 0;
    for (int64_t idx; got < want && (idx = TakeBlock(st, h)) >= 0;) {
      out[got++] = ChunkOffset(chunk) + kChunkHeaderSize +
                   static_cast<uint64_t>(idx) * cls;
    }
    vt::Charge(got * vt::kCpuSlotProbe);
    // A short take means the chunk is full: the next free relists it.
    if (got < want) cs.current = -1;
    if (got > 0) return got;
  }
}

void LazyAllocator::Free(uint64_t off) {
  vt::Charge(vt::kCpuCas);
  int64_t chunk = ChunkIdOf(off);
  FLATSTORE_CHECK(chunk >= 0 && static_cast<uint64_t>(chunk) < num_chunks_);
  ChunkState& st = *chunks_[chunk];
  ChunkHeader* h = HeaderOf(chunk);
  bool raw;
  bool relist = false;
  int owner = -1;
  uint32_t cls = 0;
  {
    // `raw` is read under the chunk lock like every other ChunkState
    // field: AllocRawChunk may be formatting a recycled chunk.
    LockGuard<SpinLock> g(st.lock);
    raw = st.raw;
    if (!raw) {
      FLATSTORE_CHECK(st.formatted);
      cls = st.size_class;
      uint64_t idx = (off - ChunkOffset(chunk) - kChunkHeaderSize) / cls;
      FLATSTORE_DCHECK((off - ChunkOffset(chunk) - kChunkHeaderSize) % cls ==
                       0);
      BitmapView bm(h->bitmap, BlocksPerChunk(cls));
      FLATSTORE_CHECK(bm.Test(idx)) << "double free at offset " << off;
      // fs-lint: pm-write(lazy persist: free only clears the volatile-for-now bitmap bit; recovery recomputes it from the log)
      bm.Clear(idx);
      st.used--;
      // The chunk became empty, or it was full (neither current nor
      // listed) and has room again.
      relist = st.used == 0 ||
               (!st.in_partial_list && st.used + 1 == BlocksPerChunk(cls));
      owner = st.owner;
    }
  }
  if (raw) {
    FreeRawChunk(ChunkOffset(chunk));
    return;
  }
  if (relist) Relist(chunk, cls, SocketForCore(owner));
}

void LazyAllocator::Relist(int64_t chunk, uint32_t cls, int socket) {
  // The shared class line, as in Refill.
  vt::Charge(vt::kCpuCas + vt::kCpuCacheMiss);
  ClassState& cs = sockets_[socket][ClassIndex(cls)];
  LockGuard<SpinLock> g(cs.lock);
  if (cs.current == chunk) return;
  ChunkState& st = *chunks_[chunk];
  bool was_listed;
  {
    LockGuard<SpinLock> cg(st.lock);
    // Emptied and recycled by another free since: not this class's chunk.
    if (!st.formatted || st.size_class != cls ||
        SocketForCore(st.owner) != socket) {
      return;
    }
    if (st.used > 0) {
      if (!st.in_partial_list && st.used < BlocksPerChunk(cls)) {
        st.in_partial_list = true;
        cs.partial.push_back(chunk);
      }
      return;
    }
    was_listed = st.in_partial_list;
    st.in_partial_list = false;
    st.formatted = false;
  }
  if (was_listed) {
    cs.partial.erase(std::find(cs.partial.begin(), cs.partial.end(), chunk));
  }
  LockGuard<SpinLock> fg(free_lock_);
  free_lists_[pool_->SocketOf(ChunkOffset(chunk))].push_back(chunk);
  free_count_++;
  UpdatePressure();
}

uint64_t LazyAllocator::AllocRawChunk(int core) {
  vt::Charge(vt::kCpuCas);
  int64_t id = PopFreeChunk(SocketForCore(core));
  if (id < 0) return 0;
  ChunkHeader* h = HeaderOf(id);
  h->magic = kChunkMagic;
  h->size_class = 0;
  h->owner_core = static_cast<uint32_t>(core);
  pool_->PersistFence(h, 16);
  ChunkState& st = *chunks_[id];
  LockGuard<SpinLock> g(st.lock);
  st.size_class = 0;
  st.used = 1;
  st.owner = core;
  st.formatted = false;
  st.raw = true;
  return ChunkOffset(id);
}

void LazyAllocator::FreeRawChunk(uint64_t chunk_off) {
  int64_t id = ChunkIdOf(chunk_off);
  {
    ChunkState& st = *chunks_[id];
    LockGuard<SpinLock> g(st.lock);
    FLATSTORE_CHECK(st.raw) << "FreeRawChunk on non-raw chunk";
    st.raw = false;
    st.used = 0;
  }
  LockGuard<SpinLock> g(free_lock_);
  free_lists_[pool_->SocketOf(ChunkOffset(id))].push_back(id);
  free_count_++;
  UpdatePressure();
}

void LazyAllocator::StartRecovery() {
  // Recovery is single-threaded (no serving cores or cleaners run yet),
  // but the locks are taken anyway so the analysis can prove the guarded
  // fields are never touched bare — the cost is irrelevant off-line.
  {
    LockGuard<SpinLock> g(free_lock_);
    for (auto& list : free_lists_) list.clear();
    free_count_ = 0;
    UpdatePressure();
  }
  for (auto& classes : sockets_) {
    for (ClassState& cs : classes) {
      LockGuard<SpinLock> g(cs.lock);
      cs.current = -1;
      cs.partial.clear();
    }
  }
  // Magazine blocks are named by no log entry: the bitmap scrub below
  // frees them.
  for (auto& core : cores_) {
    for (auto& mag : core.classes) {
      // relaxed: recovery runs before any serving thread starts.
      mag.count.store(0, std::memory_order_relaxed);
    }
  }
  for (uint64_t i = 0; i < num_chunks_; i++) {
    ChunkState& st = *chunks_[i];
    LockGuard<SpinLock> g(st.lock);
    st.size_class = 0;
    st.used = 0;
    st.owner = -1;
    st.formatted = false;
    st.raw = false;
    st.in_partial_list = false;
    st.next_free_hint = 0;
    // Bitmaps are reconstructed from the log; drop whatever survived.
    // fs-lint: pm-write(recovery-time bitmap scrub: replay re-marks live blocks, then PersistMetadata or further lazy operation governs durability)
    std::memset(HeaderOf(i)->bitmap, 0, sizeof(ChunkHeader::bitmap));
  }
}

void LazyAllocator::MarkBlockAllocated(uint64_t off) {
  int64_t chunk = ChunkIdOf(off);
  FLATSTORE_CHECK(chunk >= 0 && static_cast<uint64_t>(chunk) < num_chunks_);
  ChunkHeader* h = HeaderOf(chunk);
  FLATSTORE_CHECK_EQ(h->magic, kChunkMagic);
  ChunkState& st = *chunks_[chunk];
  if (h->size_class == 0) {
    MarkRawChunkAllocated(ChunkOffset(chunk));
    return;
  }
  LockGuard<SpinLock> g(st.lock);
  st.formatted = true;
  st.size_class = h->size_class;
  st.owner = static_cast<int>(h->owner_core) % num_cores_;
  uint64_t idx = (off - ChunkOffset(chunk) - kChunkHeaderSize) / h->size_class;
  BitmapView bm(h->bitmap, BlocksPerChunk(h->size_class));
  if (!bm.Test(idx)) {
    // fs-lint: pm-write(replay re-marks a live block in the lazy bitmap; durability comes from the log entry being replayed, not the bitmap)
    bm.Set(idx);
    st.used++;
  }
}

void LazyAllocator::MarkRawChunkAllocated(uint64_t chunk_off) {
  int64_t chunk = ChunkIdOf(chunk_off);
  ChunkHeader* h = HeaderOf(chunk);
  ChunkState& st = *chunks_[chunk];
  LockGuard<SpinLock> g(st.lock);
  st.raw = true;
  st.used = 1;
  st.owner = static_cast<int>(h->owner_core) % num_cores_;
}

void LazyAllocator::FinishRecovery() {
  for (uint64_t i = 0; i < num_chunks_; i++) {
    ChunkState& st = *chunks_[i];
    int socket = -1;
    uint32_t cls = 0;
    {
      LockGuard<SpinLock> cg(st.lock);
      if (st.raw) continue;
      if (st.formatted && st.used > 0) {
        st.in_partial_list = true;
        socket = SocketForCore(st.owner);
        cls = st.size_class;
      } else {
        st.formatted = false;
      }
    }
    // Routed outside the chunk lock: class locks come before chunk locks.
    if (socket >= 0) {
      ClassState& cs = sockets_[socket][ClassIndex(cls)];
      LockGuard<SpinLock> g(cs.lock);
      cs.partial.push_back(static_cast<int64_t>(i));
    } else {
      LockGuard<SpinLock> g(free_lock_);
      free_lists_[pool_->SocketOf(ChunkOffset(i))].push_back(
          static_cast<int64_t>(i));
      free_count_++;
    }
  }
  LockGuard<SpinLock> g(free_lock_);
  UpdatePressure();
}

void LazyAllocator::PersistMetadata() {
  for (uint64_t i = 0; i < num_chunks_; i++) {
    ChunkState& st = *chunks_[i];
    LockGuard<SpinLock> cg(st.lock);
    if (st.formatted) {
      pool_->Persist(HeaderOf(i), sizeof(ChunkHeader));
    }
  }
  pool_->Fence();
}

uint64_t LazyAllocator::free_chunks() const {
  LockGuard<SpinLock> g(free_lock_);
  return free_count_;
}

uint64_t LazyAllocator::free_chunks_on(int socket) const {
  FLATSTORE_CHECK(socket >= 0 && socket < pool_sockets_);
  LockGuard<SpinLock> g(free_lock_);
  return free_lists_[socket].size();
}

uint64_t LazyAllocator::allocated_bytes() const {
  // Magazines first: a refill racing this walk can then only overcount.
  uint64_t held = 0;
  for (const CoreState& core : cores_) {
    for (size_t c = 0; c < kSizeClasses.size(); c++) {
      // relaxed: advisory while cores allocate; exact once they quiesce.
      held += static_cast<uint64_t>(
                  core.classes[c].count.load(std::memory_order_relaxed)) *
              kSizeClasses[c];
    }
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_chunks_; i++) {
    ChunkState& st = *chunks_[i];
    LockGuard<SpinLock> g(st.lock);
    if (st.raw) {
      total += kChunkSize;
    } else if (st.formatted) {
      total += static_cast<uint64_t>(st.used) * st.size_class;
    }
  }
  return total > held ? total - held : 0;
}

bool LazyAllocator::IsAllocated(uint64_t off) const {
  int64_t chunk = ChunkIdOf(off);
  if (chunk < 0 || static_cast<uint64_t>(chunk) >= num_chunks_) return false;
  ChunkState& st = *chunks_[chunk];
  LockGuard<SpinLock> g(st.lock);
  if (st.raw) return true;
  if (!st.formatted) return false;
  uint64_t rel = off - ChunkOffset(chunk);
  if (rel < kChunkHeaderSize) return false;
  uint64_t idx = (rel - kChunkHeaderSize) / st.size_class;
  if (idx >= BlocksPerChunk(st.size_class)) return false;
  BitmapView bm(HeaderOf(chunk)->bitmap, BlocksPerChunk(st.size_class));
  return bm.Test(idx);
}

}  // namespace alloc
}  // namespace flatstore
