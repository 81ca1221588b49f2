// Lazy-persist NVM allocator (paper §3.2).
//
// A Hoard-like allocator over an emulated PM region:
//
//  * The region is cut into 4 MB chunks. A chunk is either free, a *value
//    chunk* formatted with one size class (all blocks in the chunk have
//    that size), or a *raw chunk* handed out whole (OpLog segments and
//    allocations > 4 MB).
//  * Each chunk head persistently records its size class when formatted
//    ("cutting size"), plus a bitmap of used blocks that is updated
//    **without flushing** during normal operation — that is the paper's
//    key trick. The OpLog already durably holds every live block pointer,
//    so after a crash each bitmap is recomputed: chunk = ptr & ~(4MB-1),
//    block index = (ptr - chunk - header) / class.
//  * Chunks are shared per socket: all cores of a socket fill the same
//    chunk of a class, under one spinlock per (socket, class), so a store
//    keeps sockets x classes chunks open rather than cores x classes (a
//    chunk per core and class held 103 value chunks for 36 MB of blocks
//    on perfbench's 16-core etc_put). Each core draws from a small
//    per-class *magazine* of blocks already set in their chunk's bitmap
//    (Bonwick's magazines over Hoard's shared heap): the pop takes no
//    lock, and a miss refills the magazine under the class lock and the
//    chunk lock once. Frees may come from any thread (the log cleaner),
//    so per-chunk spinlocks guard the bitmap; a chunk whose last block is
//    freed returns to the free pool unless it is its class's current
//    chunk. Blocks held in a magazine at a crash are named by no log
//    entry, so the bitmap rebuild returns them free.
//  * On multi-socket pools the free chunks are pooled *per socket* (the
//    pool's contiguous socket spans, pm::PmPool::SocketOf): a core refills
//    from its own socket's pool first, so its log segments and value
//    blocks land on local DIMMs; remote pools are only drained when the
//    local one is empty (capacity beats locality). Freed chunks return to
//    the pool of the socket that owns their address.
//
// Size classes are multiples of 256 B so every block offset is 256 B
// aligned — this is what lets the log entry drop the low 8 bits of `Ptr`
// and fit a pointer in 40 bits (paper Fig. 3).

#ifndef FLATSTORE_ALLOC_LAZY_ALLOCATOR_H_
#define FLATSTORE_ALLOC_LAZY_ALLOCATOR_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.h"
#include "common/cacheline.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace alloc {

// Chunk geometry.
inline constexpr uint64_t kChunkSize = 4ull << 20;
inline constexpr uint64_t kChunkHeaderSize = 4096;  // header + bitmap area
inline constexpr uint64_t kChunkMagic = 0xF1A75702EC0FFEEDull;

// Per-core magazine bounds: a core holds at most this many blocks of one
// class, and at most this many bytes (a class above the byte bound is
// taken one block per refill, so its magazine never holds one).
inline constexpr uint32_t kMagazineBlocks = 16;
inline constexpr uint64_t kMagazineBytes = 16ull << 10;

// Size classes for value blocks (all > 256 B; multiples of 256 B).
inline constexpr std::array<uint32_t, 11> kSizeClasses = {
    512,    768,    1024,    1536,    2048,   4096,
    8192,   16384,  65536,   262144,  1048576};

// Persistent header at the start of every chunk. `size_class` == 0 marks a
// raw (whole-chunk) allocation; bitmap words follow the fixed fields.
struct ChunkHeader {
  uint64_t magic;
  uint32_t size_class;  // block size in bytes; 0 for raw chunks
  uint32_t owner_core;
  uint64_t bitmap[(kChunkHeaderSize - 16) / 8];
};
static_assert(sizeof(ChunkHeader) == kChunkHeaderSize);

// The allocator. One instance manages one PM region for all cores.
class LazyAllocator {
 public:
  // Manages `region_len` bytes of `pool` starting at `region_off` (both
  // 4 MB aligned) on behalf of `num_cores` server cores.
  LazyAllocator(pm::PmPool* pool, uint64_t region_off, uint64_t region_len,
                int num_cores);

  LazyAllocator(const LazyAllocator&) = delete;
  LazyAllocator& operator=(const LazyAllocator&) = delete;

  // Number of blocks a chunk of class `cls` holds.
  static uint32_t BlocksPerChunk(uint32_t cls) {
    return static_cast<uint32_t>((kChunkSize - kChunkHeaderSize) / cls);
  }

  // Smallest class that can hold `size` bytes, or 0 if size needs raw
  // chunks (> largest class).
  static uint32_t ClassFor(uint64_t size);

  // Blocks of class `cls` one magazine refill takes.
  static constexpr uint32_t MagazineCapacity(uint32_t cls) {
    return static_cast<uint32_t>(
        std::clamp<uint64_t>(kMagazineBytes / cls, 1, kMagazineBlocks));
  }

  // Allocates at least `size` bytes for `core`. Returns the pool offset of
  // the block (256 B aligned), or 0 on out-of-space. The bitmap update is
  // *not* flushed (lazy persist). One thread serves each core: the core's
  // magazine is popped without a lock.
  uint64_t Alloc(int core, uint64_t size);

  // Frees a block previously returned by Alloc. Thread-safe (cleaners free
  // blocks owned by other cores). Not flushed. A chunk left empty returns
  // to the free pool unless it is its class's current chunk.
  void Free(uint64_t off);

  // Allocates one whole raw chunk for `core` (OpLog segments). The header
  // (magic + class 0 + owner) is persisted. Returns chunk offset or 0.
  uint64_t AllocRawChunk(int core);

  // Returns a raw chunk to the free pool.
  void FreeRawChunk(uint64_t chunk_off);

  // --- recovery (paper §3.5) ---

  // Drops all volatile state and zeroes every bitmap; call before replay.
  void StartRecovery();

  // Marks the block containing `off` live (from a log entry's Ptr). The
  // chunk's persisted size class locates the block. Idempotent.
  void MarkBlockAllocated(uint64_t off);

  // Marks a whole raw chunk live (OpLog segments found via log heads /
  // journal).
  void MarkRawChunkAllocated(uint64_t chunk_off);

  // Rebuilds the free lists and each socket's partial chunks after replay.
  void FinishRecovery();

  // --- clean shutdown ---

  // Persists every formatted chunk's bitmap (normal-shutdown path).
  void PersistMetadata();

  // --- cleaner backpressure (§3.4) ---

  // Arms the low-free-space signal: MemoryPressure() reports 1 once the
  // free list shrinks to `n` chunks and 2 at n/4 (imminent exhaustion).
  // 0 disables the signal (the default). The log cleaner polls this to
  // raise its per-quantum byte budget *before* the pool runs dry.
  void SetFreeChunkLowWatermark(uint64_t n);

  // Current pressure level: 0 = fine, 1 = below watermark, 2 = nearly
  // exhausted. Lock-free read of a value maintained at every free-list
  // transition.
  int MemoryPressure() const {
    // relaxed: advisory signal; the cleaner tolerates reading one
    // transition late.
    return pressure_.load(std::memory_order_relaxed);
  }

  // Placement-off mode (the NUMA A/B's baseline arm): ignore each core's
  // home socket and deal free chunks round-robin across sockets,
  // modelling interleaved first-touch allocation — about half of every
  // core's log segments and value blocks end up remote.
  void SetSocketInterleave(bool on) {
    // relaxed: a bench/test-orchestration knob, set before serving.
    interleave_.store(on, std::memory_order_relaxed);
  }

  // --- introspection ---
  uint64_t free_chunks() const;
  // Free chunks homed on `socket` (socket-local pool depth).
  uint64_t free_chunks_on(int socket) const;
  // Socket a core's allocations prefer: cores are laid out contiguously
  // across the pool's sockets (cores [0, n/S) on socket 0, ...), matching
  // the server runtime's clock->socket assignment.
  int SocketForCore(int core) const {
    return core * pool_sockets_ / num_cores_;
  }
  uint64_t total_chunks() const { return num_chunks_; }
  // Bytes of the region currently allocated (blocks + raw chunks). Blocks
  // held in the cores' magazines are not counted; exact when no core is
  // allocating.
  uint64_t allocated_bytes() const;

  // True if `off` lies inside a live block, a block held in a magazine or
  // a raw chunk (test helper).
  bool IsAllocated(uint64_t off) const;

  pm::PmPool* pool() const { return pool_; }

 private:
  // Volatile per-chunk bookkeeping. Every field is guarded by `lock`:
  // frees arrive from any thread (the log cleaner), and the introspection
  // helpers iterate chunks concurrently with allocation.
  struct ChunkState {
    SpinLock lock;
    uint32_t size_class GUARDED_BY(lock) = 0;  // mirrors persistent header
    // Bits set in the bitmap: blocks handed out or held in a magazine
    // (1 for raw chunks).
    uint32_t used GUARDED_BY(lock) = 0;
    int owner GUARDED_BY(lock) = -1;  // persisted owner_core; its socket
                                      // owns the chunk's class state
    bool formatted GUARDED_BY(lock) = false;  // handed out as value chunk
    bool raw GUARDED_BY(lock) = false;        // handed out as raw chunk
    bool in_partial_list GUARDED_BY(lock) = false;
    uint32_t next_free_hint GUARDED_BY(lock) = 0;
  };

  // Per-socket, per-class state, shared by the socket's cores. `lock` is
  // taken before free_lock_ and before any chunk lock.
  struct alignas(kCachelineSize) ClassState {
    SpinLock lock;
    int64_t current GUARDED_BY(lock) = -1;  // chunk id being filled
    std::vector<int64_t> partial GUARDED_BY(lock);
  };

  // A core's stock of one class's blocks, each already set in its chunk's
  // bitmap. Only the core's serving thread touches `blocks`; `count` is
  // atomic so allocated_bytes can subtract the held blocks from any
  // thread.
  struct Magazine {
    std::array<uint64_t, kMagazineBlocks> blocks{};
    std::atomic<uint32_t> count{0};
  };

  struct alignas(kCachelineSize) CoreState {
    std::array<Magazine, kSizeClasses.size()> classes;
  };

  ChunkHeader* HeaderOf(uint64_t chunk_id) const {
    return pool_->PtrAt<ChunkHeader>(region_off_ + chunk_id * kChunkSize);
  }
  uint64_t ChunkOffset(uint64_t chunk_id) const {
    return region_off_ + chunk_id * kChunkSize;
  }
  int64_t ChunkIdOf(uint64_t off) const {
    return static_cast<int64_t>((off - region_off_) / kChunkSize);
  }
  static size_t ClassIndex(uint32_t cls);

  // Pops a free chunk id, preferring `socket`'s pool and falling back to
  // the other sockets' pools in round order; -1 when every pool is empty.
  // Caller formats it.
  int64_t PopFreeChunk(int socket);

  // Recomputes pressure_ from free_list_.size(); call after every
  // free-list mutation.
  void UpdatePressure() REQUIRES(free_lock_);

  // Formats `chunk` as a value chunk of `cls` for `core` and persists the
  // header fields (not the bitmap).
  void FormatValueChunk(int64_t chunk, uint32_t cls, int core);

  // Takes up to `want` blocks of `cls` for `core` into `out` from its
  // socket's current chunk, moving to a partial or fresh chunk when that
  // one is full. Returns the count; 0 only when PM is exhausted.
  uint32_t Refill(int core, uint32_t cls, uint64_t* out, uint32_t want);

  // After a free left `chunk` (class `cls`, owned by `socket`) empty or
  // no longer full: returns it to the free pool if it is empty and not its
  // class's current chunk, else lists it as partial. Decides from the
  // chunk's state under the class lock, so a racing refill is seen.
  void Relist(int64_t chunk, uint32_t cls, int socket);

  // Allocates one block from the chunk owning `st` (header `h`); the
  // caller holds the chunk lock. Returns the block index or -1 if full.
  int64_t TakeBlock(ChunkState& st, ChunkHeader* h) REQUIRES(st.lock);

  pm::PmPool* pool_;
  uint64_t region_off_;
  uint64_t num_chunks_;
  int num_cores_;
  int pool_sockets_;  // pool_->num_sockets(), cached

  std::vector<std::unique_ptr<ChunkState>> chunks_;
  // Index = SocketForCore, then the class index.
  std::vector<std::array<ClassState, kSizeClasses.size()>> sockets_;
  std::vector<CoreState> cores_;  // per-core magazines
  mutable SpinLock free_lock_;
  // One free-chunk pool per socket (index = pm::PmPool::SocketOf of the
  // chunk's offset; single-socket pools use only slot 0).
  std::array<std::vector<int64_t>, vt::kMaxSockets> free_lists_
      GUARDED_BY(free_lock_);
  uint64_t free_count_ GUARDED_BY(free_lock_) = 0;
  // Placement-off round-robin state (SetSocketInterleave).
  std::atomic<bool> interleave_{false};
  int interleave_next_ GUARDED_BY(free_lock_) = 0;
  // Backpressure signal (see MemoryPressure). The watermark is atomic so
  // SetFreeChunkLowWatermark need not take free_lock_.
  std::atomic<uint64_t> low_watermark_{0};
  std::atomic<int> pressure_{0};
};

}  // namespace alloc
}  // namespace flatstore

#endif  // FLATSTORE_ALLOC_LAZY_ALLOCATOR_H_
