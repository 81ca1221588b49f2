// Log cleaning (paper §3.4): the store's one maintenance pass.
//
// Each horizontal-batching group gets one background cleaner thread that
// walks the OpLogs of the group's cores and picks victim chunks from one
// ranked list (OpLog::PickVictims). Each victim is either *relocated* —
// its surviving entries are copied into fresh chunks (committed via the
// chunk's used_final, journaled in the chunk registry), the volatile index
// is re-pointed at the copies with atomic CAS, and the victim returns to
// the allocator — or, when the store converts into an ordered tier
// (DESIGN.md §11), *converted*: its surviving entries are merged into the
// tier in place and the chunk is detached from the log for good.
//
// Victim selection ranks chunks cost-benefit, (1 - u) * age / (1 + u),
// over incrementally maintained per-chunk live-byte counters
// (RAMCloud/LFS). Chunks below the live-ratio cap are relocated; with a
// tier, cold-lane chunks at or above kTierMinLiveRatio and chunks too
// live to relocate are converted, at most kTierMaxChunks per core per
// pass.
//
// Maintenance is *pipelined and incremental*: each victim is a
// CleaningJob that moves through scan -> relocate -> retire (or scan ->
// convert) stages in bounded slices. Both kinds share the scan stage and
// its liveness rule. RunOnce advances every in-flight job round-robin
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
// skip (or, with a tier, convert). Effectiveness is measured as
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
//    related to this KV item have been reclaimed"). With a tier, it also
//    stays live while the tier holds a different node for its key, which
//    would otherwise resurrect the key at recovery.
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
// swing can never observe the chunk being freed under it. A converted
// chunk is never freed and its entries never move, so conversion swings
// no index entry; PersistentTier::InsertBatch serializes the cleaners of
// different groups. A convert job may park between its scan and its
// commit while a newer chunk holding one of its keys converts, and
// InsertBatch overwrites a key's node without comparing versions — so
// the convert stage re-checks every survivor against the index right
// before InsertBatch. Every entry of a key lives in its own group's logs,
// so run_lock_ orders all conversions of that key.

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
#include "tier/tier.h"

namespace flatstore {
namespace log {

// Engine-provided hooks.
struct CleanerHooks {
  // Where `key` lives in DRAM: the volatile index partition holding it,
  // and the socket of its owning core (converted entries' tier nodes are
  // homed there). NOTE: keyed by *key*, not by the log-owning core —
  // horizontal batching stores stolen entries in the leader's log, so a
  // chunk freely mixes keys owned by every core of the group.
  struct KeyHome {
    index::KvIndex* index;
    int socket;
  };
  std::function<KeyHome(uint64_t key)> home_of_key;
  // Epoch manager guarding the engine's log-entry dereferences. Victim
  // chunks are freed through its deferred queue (see file comment).
  common::EpochManager* epochs = nullptr;
  // Called after each conversion commits, with the key-sorted batch it
  // merged into the tier. The engine takes those keys out of its
  // un-tiered delta sets once no scan can still hold the previous
  // directory snapshot (DESIGN.md §11.2). Unused without a tier.
  std::function<void(std::vector<tier::TierEntry> entries)> on_tiered;
};

// One group's cleaner.
class LogCleaner {
 public:
  struct Options {
    // Victim eligibility cap: chunks at or above this live ratio are
    // never worth relocating.
    double live_ratio = 0.6;
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

  // Cleans cores [first_core, last_core) of `logs`. `tier` is the
  // store's ordered tier, or null; its nodes veto tombstone drops.
  // Victims are converted into it only when `convert` is set
  // (FlatStoreOptions::tier_enabled); otherwise they are only relocated.
  LogCleaner(std::vector<OpLog*> logs, int first_core, int last_core,
             CleanerHooks hooks, const Options& options,
             alloc::LazyAllocator* alloc, tier::PersistentTier* tier,
             bool convert);
  ~LogCleaner();

  LogCleaner(const LogCleaner&) = delete;
  LogCleaner& operator=(const LogCleaner&) = delete;

  // One maintenance quantum: advances every in-flight job (refilling
  // from victim selection first) within the byte budget, then reclaims
  // every deferred free that has become epoch-safe. Returns the victims
  // retired or converted plus the deferred frees run (victims retired
  // this pass are freed by this same call when no reader is pinned —
  // e.g. single-threaded benchmark drivers). With the default unbounded
  // budget a pass drains every relocation victim end-to-end and converts
  // up to kTierMaxChunks chunks per core.
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
  uint64_t chunks_tiered() const {
    // relaxed: monotonic stat counter, no ordering required.
    return chunks_tiered_.load(std::memory_order_relaxed);
  }
  // In-flight cleaning jobs (a nonzero value after a bounded RunOnce
  // means the pass was interrupted mid-victim and will resume).
  size_t jobs_in_flight() const;

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
  enum class Stage : uint8_t { kScan, kRelocate, kRetire, kConvert, kDone };
  struct CleaningJob {
    int core = 0;
    uint64_t chunk_off = 0;
    uint64_t committed = 0;  // frozen extent (victims are sealed); these
                             // bytes count as reclaimed at retire time
    bool convert = false;    // scan -> convert instead of relocate/retire
    Stage stage = Stage::kScan;
    uint64_t scan_pos = 0;       // reader position; resumable
    size_t reloc_pos = 0;        // survivors already durably relocated
    std::vector<Survivor> survivors;
    bool cold = false;           // survivor temperature lane
    uint64_t age_clock = 0;      // victim's last-write stamp (inherited)
    double pick_live_ratio = 0;  // live ratio at pick time (WA histogram)
  };

  // Starts new jobs from victim selection: relocations up to
  // max_victims in flight per core, conversions up to kTierMaxChunks per
  // core per pass (`converts[core - first_core_]` counts this pass's),
  // skipping chunks that already have a job in flight.
  void RefillJobs(std::vector<size_t>* converts) REQUIRES(run_lock_);

  // Advances one job by one bounded slice (scan slice, relocation
  // sub-batch, or the retire or convert step), deducting consumed bytes
  // from `*budget`. Returns true if any progress was made (false = budget
  // exhausted, or relocation or conversion blocked on PM space; the job
  // resumes later).
  bool AdvanceJob(CleaningJob& job, uint64_t* budget) REQUIRES(run_lock_);

  // The convert stage: merges the job's survivors that are still current
  // into the tier, then commits and detaches the chunk (kDone). A victim
  // none of whose survivors is still current goes to kRetire instead.
  // False if the tier's arena cannot grow.
  bool ConvertJob(CleaningJob& job) REQUIRES(run_lock_);

  std::vector<OpLog*> logs_;
  int first_core_, last_core_;
  CleanerHooks hooks_;
  Options options_;
  alloc::LazyAllocator* alloc_;
  tier::PersistentTier* tier_;
  const bool convert_;

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
  std::atomic<uint64_t> chunks_tiered_{0};
};

}  // namespace log
}  // namespace flatstore

#endif  // FLATSTORE_LOG_LOG_CLEANER_H_
