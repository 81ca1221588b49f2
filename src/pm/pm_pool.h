// Emulated persistent-memory pool.
//
// A PmPool is a contiguous DRAM region standing in for a DAX-mapped Optane
// namespace. Code mutates it through ordinary pointers and then makes
// ranges durable with Persist()/Fence(), mirroring clwb+sfence. Like a DAX
// mapping, the region is paid for per touched page: it is a private
// anonymous mapping that reads zero until written, followed by an
// inaccessible guard page so an access past size() faults.
//
// Two orthogonal capabilities:
//
//  * Timing (optional `device`): every flushed cacheline is charged to the
//    calling core's virtual clock via the PmDevice model. Fence() advances
//    the clock to the completion of all outstanding flushes.
//
//  * Crash model (optional `crash_tracking`): the pool keeps a shadow image
//    holding only data that was explicitly persisted. SimulateCrash()
//    rolls the live region back to the shadow — every store that was not
//    followed by Persist()+Fence() is lost. A flush *budget* lets tests
//    cut power after an arbitrary number of line flushes, including
//    mid-operation. The shadow is lazily zeroed too, and a page bitmap
//    records which shadow pages were ever written, so a crash costs the
//    pages the workload persisted, not the size of the pool.
//
// The default crash mode (kClean) loses unflushed data atomically at 64 B
// granularity. Real PM is harsher in three ways, each modelled by an
// adversarial CrashMode (see the enum): flushes caught by the cut persist
// 8-byte subsets (torn lines), flushes between a Persist and its Fence
// complete in any order (unordered persistence), and dirty lines the code
// never flushed may persist anyway via cache eviction. The crash-state
// explorer (tests/harness/crash_explorer.h) enumerates power cuts at every
// flush index under each of these modes.

#ifndef FLATSTORE_PM_PM_POOL_H_
#define FLATSTORE_PM_PM_POOL_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "common/logging.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "pm/pm_device.h"
#include "pm/pm_stats.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace pm {

// An emulated PM region. Thread-safe for Persist/Fence on disjoint lines
// (concurrent persists of the same line would be an engine-level race).
// The adversarial crash modes are test-orchestration state: arm them from
// the single thread that drives a crash scenario.
class PmPool {
 public:
  struct Options {
    // Pool size in bytes (rounded up to 4 MB).
    uint64_t size = 64ull << 20;
    // Keep a shadow image for SimulateCrash().
    bool crash_tracking = false;
    // Optional timing model; flushes are free when null.
    PmDevice* device = nullptr;
    // Sockets the region spans: the pool is split into num_sockets
    // contiguous spans, each homed on one socket's DIMM set. Accesses
    // from a core on another socket (vt::CurrentSocket()) pay the
    // cross-socket surcharges. 1 (the default) reproduces the
    // single-socket model exactly.
    int num_sockets = 1;
  };

  // How the shadow image behaves around the flush-budget power cut.
  // `seed` makes every random choice deterministic: a failing (mode,
  // budget, seed) triple is a complete repro.
  enum class CrashMode : uint8_t {
    // Budgeted flushes reach the shadow whole-line, in issue order; the
    // cut happens cleanly after the budget-th flush. (Default; this is
    // the historical model.)
    kClean = 0,
    // The line whose flush exhausts the budget is *caught* by the cut:
    // only a seed-chosen 8-byte-aligned subset (often a prefix) of it
    // persists, modelling PM's 8-byte atomic write unit. Earlier flushes
    // persist whole, later ones not at all.
    kTorn = 1,
    // Flushed lines are buffered and only reach the shadow at the next
    // Fence(), mirroring clwb's weak ordering: when the cut lands between
    // a Persist and its Fence, a seed-chosen *subset* of the in-flight
    // lines persists, in issue order. Lines fenced before the cut persist
    // whole.
    kUnordered = 2,
    // Budgeted flushes behave like kClean, but at the cut every dirty
    // line the code never flushed *may* persist too (seed-chosen),
    // modelling cache evictions. Recovery must never depend on
    // unflushed data being lost.
    kEviction = 3,
  };
  static const char* CrashModeName(CrashMode mode);

  // Granularity of the lazy mapping, Zero() and the crash restore.
  static constexpr uint64_t kPageSize = 4096;

  explicit PmPool(const Options& options);
  PmPool(const PmPool&) = delete;
  PmPool& operator=(const PmPool&) = delete;

  // Base address / size of the emulated region.
  char* base() const { return mem_.get(); }
  uint64_t size() const { return size_; }

  // Zeroes [off, off+len) of the live image, like a memset that persists
  // nothing (the shadow is untouched). Whole pages go back to the kernel
  // and read zero on next touch; only the partial edges are written.
  // Caller must guarantee no concurrent access to the range.
  void Zero(uint64_t off, uint64_t len);

  // --- NUMA topology ---

  int num_sockets() const { return num_sockets_; }

  // Socket owning the byte at pool offset `off`: the pool is cut into
  // num_sockets contiguous, 4 MB-aligned spans (so allocator chunks never
  // straddle a socket boundary). Always 0 on single-socket pools.
  int SocketOf(uint64_t off) const {
    FLATSTORE_DCHECK(off < size_);
    const int s = static_cast<int>(off / socket_span_);
    return s < num_sockets_ ? s : num_sockets_ - 1;
  }
  int SocketOfPtr(const void* p) const { return SocketOf(OffsetOf(p)); }

  // Pointer <-> pool-offset conversion. Offsets are what gets stored in
  // PM-resident pointers (`Ptr` fields) so pools are relocatable.
  uint64_t OffsetOf(const void* p) const {
    auto off = static_cast<uint64_t>(static_cast<const char*>(p) - mem_.get());
    FLATSTORE_DCHECK(off < size_);
    return off;
  }
  void* At(uint64_t off) const {
    FLATSTORE_DCHECK(off < size_);
    return mem_.get() + off;
  }
  template <typename T>
  T* PtrAt(uint64_t off) const {
    return reinterpret_cast<T*>(At(off));
  }

  // Flushes every cacheline overlapping [p, p+len): charges clwb issue
  // cost, sends each line to the device model, and (in crash mode) copies
  // the lines into the shadow image. Durability is only guaranteed after
  // the next Fence().
  void Persist(const void* p, uint64_t len);

  // Charges a synchronous read of [p, p+len) from PM media: one device
  // read per touched cacheline (capped at one 256 B block's worth of
  // lines per call for large values — streaming reads pipeline), sharing
  // DIMM bandwidth with writes. No-op without a bound clock/device.
  void ChargeRead(const void* p, uint64_t len);

  // Like ChargeRead, but issues the media reads stamped at `issue_time`
  // and returns the completion instant WITHOUT advancing the calling
  // clock. Batched reads (MultiGet) overlap independent dereferences by
  // issuing them back-to-back at one instant and advancing to each
  // completion only as the data is consumed.
  uint64_t ChargeReadAt(const void* p, uint64_t len, uint64_t issue_time);

  // Orders all previously issued flushes (sfence): advances the calling
  // core's clock to the latest flush completion. In kUnordered mode this
  // is also the point where buffered flushes commit to the shadow.
  void Fence();

  // Persist + Fence (the common "persist this datum now" pattern).
  void PersistFence(const void* p, uint64_t len) {
    Persist(p, len);
    Fence();
  }

  // --- crash model ---

  // True if this pool keeps a shadow image.
  bool crash_tracking() const { return shadow_ != nullptr; }

  // Rolls the live region back to the last persisted image (resolving any
  // still-in-flight unordered/eviction state first — an unfenced flush is
  // never guaranteed). Caller must guarantee no concurrent access. Also
  // resets the flush budget and re-arms the cut for the next cycle; the
  // crash mode and its seed stream carry over. Costs one copy per shadow
  // page ever written: every live page is dropped, then only those are
  // copied back.
  void SimulateCrash();

  // After `n` more line flushes, the pool "loses power": subsequent
  // flushes stop reaching the shadow image. Pass a negative value to
  // disable the budget (default). Re-arming also re-enables the
  // mode-specific cut behaviour for the next exhaustion.
  void SetFlushBudget(int64_t n) {
    // relaxed: test-orchestration knob, set while the engine is quiesced.
    flush_budget_.store(n, std::memory_order_relaxed);
    loss_resolved_ = false;
  }

  // True once the budget has been exhausted.
  bool PowerLost() const {
    // relaxed: test-orchestration read; no ordering with flush traffic.
    return flush_budget_.load(std::memory_order_relaxed) == 0;
  }

  // Selects the adversarial behaviour applied at the next budget
  // exhaustion. Requires crash_tracking. The seed fully determines the
  // torn subset / in-flight subset / evicted set.
  void SetCrashMode(CrashMode mode, uint64_t seed);
  CrashMode crash_mode() const { return crash_mode_; }

  // --- stats ---
  PmStats& stats() { return stats_; }
  const PmStats& stats() const { return stats_; }

 private:
  // A flush buffered between Persist and Fence (kUnordered only). The
  // snapshot is taken at issue time, as clwb may write back any content
  // the line held between issue and fence.
  struct PendingLine {
    uint64_t off;
    uint8_t data[kCachelineSize];
  };

  // Crash-model bookkeeping for one line flush (only called with a
  // shadow): spends the budget and writes the shadow per the crash mode.
  void CrashTrackLine(uint64_t off);

  // Records that the shadow page holding `off` is about to be written, so
  // SimulateCrash restores it. Every shadow write goes through here.
  void MarkShadowPage(uint64_t off);
  // MarkShadowPage + copy of one line into the shadow at `off`.
  void CopyLineToShadow(uint64_t off, const void* src);
  // Whether shadow page `page` was ever written (else it is all zero).
  bool ShadowPageMarked(uint64_t page) const {
    // relaxed: read with the pool quiesced (see MarkShadowPage).
    return (shadow_pages_[page / 64].load(std::memory_order_relaxed) >>
            (page % 64)) & 1;
  }

  uint64_t NextCrashRand();
  // Copies a seed-chosen 8-byte-aligned subset of the line at `off` into
  // the shadow (the torn-write model).
  void TearLineIntoShadow(uint64_t off);
  // Commits / coin-flips the kUnordered pending buffer (caller holds
  // pending_lock_).
  void CommitPendingLocked() REQUIRES(pending_lock_);
  void ResolvePendingAtLossLocked() REQUIRES(pending_lock_);
  // kEviction: every line whose live content differs from the shadow may
  // persist, per seeded coin flip.
  void ResolveEviction();
  // One flag per page of the live image: false only for a page that is
  // neither mapped nor swapped out (/proc/self/pagemap), which reads zero.
  // All true when the page map cannot be read.
  std::vector<bool> LivePagesTouched() const;

  // A private anonymous mapping of `size` bytes plus one PROT_NONE guard
  // page. It is page-aligned, as a DAX mapping is (the alignas(64)
  // PM-resident structs rely on it), reads zero, and costs a page only
  // once touched. The guard page makes an overrun fault even under ASan,
  // which does not track mmapped memory.
  struct Unmapper {
    uint64_t size;  // mapping length, guard page included
    void operator()(char* p) const;
  };
  using Mapping = std::unique_ptr<char[], Unmapper>;
  static Mapping MapZeroed(uint64_t size);

  uint64_t size_;
  int num_sockets_;
  uint64_t socket_span_;  // bytes per socket (4 MB multiple)
  Mapping mem_{nullptr, Unmapper{0}};
  Mapping shadow_{nullptr, Unmapper{0}};  // null unless crash_tracking
  // One bit per shadow page ever written (crash_tracking only). Set from
  // any flushing thread; read by SimulateCrash with the pool quiesced.
  std::unique_ptr<std::atomic<uint64_t>[]> shadow_pages_;
  PmDevice* device_;
  PmStats stats_;
  std::atomic<int64_t> flush_budget_{-1};

  CrashMode crash_mode_ = CrashMode::kClean;
  uint64_t crash_rng_ = 0x9E3779B97F4A7C15ull;
  // Set once the budget exhaustion has been acted on (torn line written,
  // pending subset chosen, evictions applied); later flushes are dropped
  // without further side effects until the budget is re-armed.
  bool loss_resolved_ = false;
  SpinLock pending_lock_;
  std::vector<PendingLine> pending_ GUARDED_BY(pending_lock_);
};

}  // namespace pm
}  // namespace flatstore

#endif  // FLATSTORE_PM_PM_POOL_H_
