// Log cleaning (paper §3.4): the store's one maintenance pass.
//
// Each horizontal-batching group gets one background cleaner thread that
// walks the OpLogs of the group's cores and picks victim chunks from one
// ranked list (OpLog::PickVictims). Each victim is *relocated*: its
// surviving entries are copied into fresh chunks (committed via the
// chunk's used_final, journaled in the chunk registry), the volatile index
// is re-pointed at the copies with atomic CAS, and the victim returns to
// the allocator. Cleaning alone bounds the log's space, and so the log
// that recovery replays.
//
// Victim selection ranks chunks cost-benefit, (1 - u) * age / (1 + u),
// over incrementally maintained per-chunk live-byte counters
// (RAMCloud/LFS). Every chunk below the one live-ratio cap is a
// candidate.
//
// Maintenance is *pipelined and incremental*: each victim is a
// CleaningJob that moves through scan -> relocate -> retire stages in
// bounded slices. RunOnce advances every in-flight job round-robin
// until a per-quantum byte budget is exhausted, so one pass can overlap
// the scan of one victim with the relocation of another, and a pass
// interrupted by the budget or by PM pressure *resumes* where it stopped
// instead of restarting the victim (already-relocated survivors are
// durable and their index entries already swung). The allocator's
// MemoryPressure signal raises the budget before the pool runs dry
// (backpressure).
//
// Survivors are segregated by temperature (§3.4 hot/cold): a victim
// whose last overwrite is older than Options::cold_age — or that already
// lives in the cold lane — relocates into the cold cleaner chunk, so
// stable data clusters into near-fully-live chunks that future passes
// skip. Effectiveness is measured as
// survivor-bytes-per-reclaimed-byte (pm::GcWriteAmp), split per
// temperature in PmStats.
//
// Liveness rules:
//  * Put entry: live iff the index still maps its key to exactly this
//    entry (offset *and* version) — address equality makes concurrent
//    supersedes unambiguous.
//  * Delete tombstone: live while an older chunk (sequence <= the
//    tombstone's covered sequence) still exists for this core — once the
//    chunk holding the overwritten version is gone, no stale Put can
//    resurrect the key during replay, and the tombstone may die
//    (the paper's "safely reclaimed only after all the log entries
//    related to this KV item have been reclaimed").
//
// Transaction chains (§5.3): surviving chain members carry the txn
// header bit, and recovery only replays members covered by a valid
// commit record — so relocation must never separate a live member from a
// covering commit. Each relocation sub-batch groups its txn members
// back-to-back (verbatim bytes, after the plain entries) and appends one
// fresh commit record over exactly those copies; victims' original
// commit records are dropped (born dead, like the serving path's).
//
// Synchronization with the serving core: index updates race benignly
// through CAS; physically freeing a victim chunk is deferred through the
// engine's epoch manager (common/epoch.h). The cleaner *unlinks* the
// victim (marks it retired, CAS-swings the index at the relocated
// copies) and schedules the actual ReleaseChunk with Defer(); it runs
// only after every serving core has advanced past the epoch in which the
// unlink happened — so a reader that decoded an entry pointer before the
// swing can never observe the chunk being freed under it.

#ifndef FLATSTORE_LOG_LOG_CLEANER_H_
#define FLATSTORE_LOG_LOG_CLEANER_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "index/kv_index.h"
#include "log/oplog.h"

namespace flatstore {
namespace log {

// Engine-provided hooks.
struct CleanerHooks {
  // The volatile index partition holding `key`. NOTE: keyed by *key*, not
  // by the log-owning core — horizontal batching stores stolen entries in
  // the leader's log, so a chunk freely mixes keys owned by every core of
  // the group.
  std::function<index::KvIndex*(uint64_t key)> index_of_key;
  // Epoch manager guarding the engine's log-entry dereferences. Victim
  // chunks are freed through its deferred queue (see file comment).
  common::EpochManager* epochs = nullptr;
};

// One group's cleaner.
class LogCleaner {
 public:
  struct Options {
    // Victim eligibility cap: chunks at or above this live ratio are
    // never worth relocating.
    double live_ratio = 0.9;
    size_t max_victims = 4;    // in-flight cleaning jobs per core
    // Per-RunOnce byte budget over scanned + relocated bytes (0 =
    // unbounded, the synchronous-test default). Under allocator pressure
    // level 1 the budget is multiplied by `pressure_boost`; at level 2 it
    // is unbounded — reclaim beats pacing when the pool is nearly dry.
    uint64_t quantum_bytes = 0;
    uint64_t pressure_boost = 4;
    // Hot/cold survivor segregation (§3.4). A victim whose write-clock
    // age at pick time is >= cold_age — or that already sits in the cold
    // lane — relocates its survivors into the cold cleaner chunk.
    bool segregate = true;
    uint64_t cold_age = 512;
  };

  // Cleans cores [first_core, last_core) of `logs`.
  LogCleaner(std::vector<OpLog*> logs, int first_core, int last_core,
             CleanerHooks hooks, const Options& options,
             alloc::LazyAllocator* alloc);
  ~LogCleaner();

  LogCleaner(const LogCleaner&) = delete;
  LogCleaner& operator=(const LogCleaner&) = delete;

  // One maintenance quantum: advances every in-flight job (refilling
  // from victim selection first) within the byte budget, then reclaims
  // every deferred free that has become epoch-safe. Returns the victims
  // retired plus the deferred frees run (victims retired this pass are
  // freed by this same call when no reader is pinned — e.g.
  // single-threaded benchmark drivers). With the default unbounded
  // budget a pass drains every victim end-to-end.
  size_t RunOnce();

  // Background-thread control (idempotent).
  void Start();
  void Stop();

  // --- statistics (Fig. 13) ---
  uint64_t chunks_cleaned() const {
    // relaxed: monotonic stat counter, no ordering required.
    return chunks_cleaned_.load(std::memory_order_relaxed);
  }
  uint64_t entries_copied() const {
    // relaxed: monotonic stat counter, no ordering required.
    return entries_copied_.load(std::memory_order_relaxed);
  }
  uint64_t entries_dropped() const {
    // relaxed: monotonic stat counter, no ordering required.
    return entries_dropped_.load(std::memory_order_relaxed);
  }

 private:
  // A victim chunk moving through the pipeline. All fields are
  // cleaner-state guarded by run_lock_ (the job list is mutated by
  // RunOnce, which may be called from the background thread or from a
  // synchronous driver). The list holds at most one job per chunk.
  struct Survivor {
    uint64_t old_off;
    uint64_t key;
    uint32_t version;
    uint32_t len;
    bool txn;  // txn-chain member: needs a covering commit on relocation
  };
  enum class Stage : uint8_t { kScan, kRelocate, kRetire, kDone };
  struct CleaningJob {
    int core = 0;
    uint64_t chunk_off = 0;
    uint64_t committed = 0;  // frozen extent (victims are sealed); these
                             // bytes count as reclaimed at retire time
    Stage stage = Stage::kScan;
    uint64_t scan_pos = 0;       // reader position; resumable
    size_t reloc_pos = 0;        // survivors already durably relocated
    std::vector<Survivor> survivors;
    bool cold = false;           // survivor temperature lane
    uint64_t age_clock = 0;      // victim's last-write stamp (inherited)
    double pick_live_ratio = 0;  // live ratio at pick time (WA histogram)
  };

  // Starts new jobs from victim selection, up to max_victims in flight
  // per core, skipping chunks that already have a job in flight.
  void RefillJobs() REQUIRES(run_lock_);

  // Advances one job by one bounded slice (scan slice, relocation
  // sub-batch, or the retire step), deducting consumed bytes from
  // `*budget`. Returns true if any progress was made (false = budget
  // exhausted, or relocation blocked on PM space; the job resumes later).
  bool AdvanceJob(CleaningJob& job, uint64_t* budget) REQUIRES(run_lock_);

  std::vector<OpLog*> logs_;
  int first_core_, last_core_;
  CleanerHooks hooks_;
  Options options_;
  alloc::LazyAllocator* alloc_;

  // Serializes cleaning passes and guards the job pipeline: RunOnce may
  // be driven by the background thread and by synchronous callers
  // (tests, benchmarks) concurrently.
  mutable SpinLock run_lock_;
  std::vector<CleaningJob> jobs_ GUARDED_BY(run_lock_);

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> chunks_cleaned_{0};
  std::atomic<uint64_t> entries_copied_{0};
  std::atomic<uint64_t> entries_dropped_{0};
};

}  // namespace log
}  // namespace flatstore

#endif  // FLATSTORE_LOG_LOG_CLEANER_H_
