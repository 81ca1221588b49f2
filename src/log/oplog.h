// Per-core compacted operation log (paper §3.2).
//
// An OpLog is an append-only sequence of compacted log entries stored in
// 4 MB raw chunks from the lazy-persist allocator. Each chunk is journaled
// in the pool's chunk registry; the per-core rotating tail record is the
// Put commit point. Batches are appended contiguously and padded to the
// next cacheline so adjacent batches never share a line (§3.2 "Padding").
//
// Two writers exist per OpLog, never contending on the same cursor:
//  * the serving path (AppendBatch) — called by whichever core is the
//    current horizontal-batching leader, under the group's collection
//    protocol (leaders append stolen entries to *their own* log);
//  * the cleaner path (CleanerAppendBatch) — the background log cleaner
//    copies surviving entries into fresh chunks whose committed length is
//    the in-chunk `used_final` field rather than the tail record.
//
// Chunk-usage accounting (live/total entries per chunk) feeds victim
// selection for the cleaner's maintenance pass (§3.4), which relocates
// each victim's survivors and frees the victim.

#ifndef FLATSTORE_LOG_OPLOG_H_
#define FLATSTORE_LOG_OPLOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "log/layout.h"
#include "log/log_entry.h"

namespace flatstore {
namespace log {

// In-chunk header of a log chunk, placed right after the allocator's
// chunk header. `used_final` is the committed data length for every chunk
// that the tail record does not cover (sealed serving chunks and cleaner
// chunks).
struct LogChunkHeader {
  uint64_t used_final;
  uint8_t pad[56];
};
static_assert(sizeof(LogChunkHeader) == 64);

// Offset of entry data within a log chunk.
inline constexpr uint64_t kLogDataOff =
    alloc::kChunkHeaderSize + sizeof(LogChunkHeader);
inline constexpr uint64_t kLogDataBytes = alloc::kChunkSize - kLogDataOff;

// Survivor placement temperature for the cleaner's relocation chunks
// (§3.4 hot/cold segregation): cold survivors — keys not overwritten for
// a long time — are relocated together so future passes skip their
// (stable, near-fully-live) chunks.
enum class Temp : uint8_t { kHot = 0, kCold = 1 };
inline constexpr int kNumTemps = 2;

// Volatile usage record of one log chunk. The byte-granular counters and
// the last-write clock are maintained incrementally on append / delete /
// overwrite — victim selection never rescans a chunk.
struct ChunkUsage {
  uint32_t seq = 0;          // per-core allocation sequence
  uint32_t total = 0;        // entries ever appended
  uint32_t live = 0;         // entries still referenced
  uint32_t tombs = 0;        // tombstones appended
  uint32_t max_covered_seq = 0;  // newest chunk any tombstone here covers
  uint64_t total_bytes = 0;  // entry bytes ever appended
  uint64_t live_bytes = 0;   // entry bytes still referenced
  // Logical write-clock stamp (OpLog::write_clock, ticks once per serving
  // batch) of the last event touching this chunk: an append into it or a
  // death of one of its entries. Cost-benefit victim selection uses
  // write_clock - last_write_clock as the chunk's age; relocated chunks
  // inherit their victims' stamps so survivors keep their age.
  uint64_t last_write_clock = 0;
  bool sealed = false;       // used_final is the committed length
  bool cleaner = false;      // written by the cleaner path
  Temp temp = Temp::kHot;    // cleaner chunks: survivor temperature lane
  bool retired = false;      // unlinked; physical free deferred (epochs)
  uint64_t registry_slot = 0;
};

// One victim chunk chosen by PickVictims, with the pick-time metrics the
// cleaner threads through its staged pipeline (live ratio feeds the WA
// histogram; age feeds survivor temperature classification).
struct VictimInfo {
  uint64_t chunk_off = 0;
  double live_ratio = 0;        // effective live-byte ratio at pick time
  uint64_t age = 0;             // write-clock distance at pick time
  uint64_t last_write_clock = 0;
  bool from_cold_chunk = false;  // victim was a cleaner cold-lane chunk
  bool from_cleaner_chunk = false;  // victim held relocated survivors
};

// Victim-selection query (§3.4): RAMCloud/LFS-style cost-benefit, rank
// by (1-u)*age/(1+u).
struct VictimQuery {
  // Relocation cap, the same for every chunk: chunks at or above this
  // live ratio are never worth relocating.
  double live_ratio = 0.98;
  size_t max = 4;  // picks
};

// One core's operation log.
class OpLog {
 public:
  struct Options {
    // Pad each batch to the next cacheline (§3.2). Disabled only by the
    // ablation benchmark.
    bool pad_batches = true;
  };

  OpLog(RootArea* root, alloc::LazyAllocator* alloc, int core,
        const Options& options);
  OpLog(RootArea* root, alloc::LazyAllocator* alloc, int core);

  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  // One encoded entry to append (see log/log_entry.h encoders).
  struct EntryRef {
    const uint8_t* data;
    uint32_t len;
  };

  // Serving path: appends `n` entries as one batch — contiguous copy, one
  // persist sweep over the touched lines, one rotating tail record, two
  // fences. Fills `offsets[i]` with each entry's pool offset. Returns
  // false when PM space is exhausted.
  bool AppendBatch(const EntryRef* entries, size_t n, uint64_t* offsets);

  // Cleaner path: same append mechanics, but into the cleaner's chunk
  // chain for `temp` and committed via the chunk's `used_final` field.
  // `age_clock` is the victim's last-write stamp — the relocation chunk
  // inherits it (max across batches) so survivors keep their age.
  // The two-arg form appends to the hot lane.
  bool CleanerAppendBatch(const EntryRef* entries, size_t n,
                          uint64_t* offsets, Temp temp = Temp::kHot,
                          uint64_t age_clock = 0);

  // Marks the entry at `entry_off` dead (superseded or deleted) and
  // advances the chunk's last-write clock — a chunk losing entries is
  // "hot" for victim selection. `entry_len` subtracts from the chunk's
  // live bytes; 0 = decode the entry in place to learn its length.
  void NoteDead(uint64_t entry_off, uint32_t entry_len = 0);

  // Marks the entry at `entry_off` live again (failed relocation CAS —
  // the copy became garbage instead of the original).
  void NoteLiveLost(uint64_t entry_off, uint32_t entry_len = 0);

  // --- introspection / GC support ---

  // Committed tail (pool offset; 0 before the first append). Written by
  // the serving path, read by the cleaner (victim selection must spare
  // the tail chunk) — acquire pairs with AppendBatch's release.
  uint64_t tail() const { return tail_.load(std::memory_order_acquire); }
  uint64_t tail_seq() const {
    return tail_seq_.load(std::memory_order_acquire);
  }
  int core() const { return core_; }

  // Snapshot of per-chunk usage, keyed by chunk offset.
  std::map<uint64_t, ChunkUsage> UsageSnapshot() const;

  // The maintenance pass's one picker, over the incremental per-chunk
  // counters (never rescans). One walk over the sealed chunks, skipping
  // retired and empty ones, the serving and cleaner chunks being written
  // and the durable-tail chunk; ranks by benefit/cost =
  // (1 - u) * age / (1 + u) with u = effective live-byte ratio and
  // age = write-clock distance since the chunk's last append/death
  // (ties: older sequence first). Only chunks below the relocation cap
  // are candidates. Returns up to query.max picks, in rank order.
  std::vector<VictimInfo> PickVictims(const VictimQuery& query) const;

  // Logical write clock: ticks once per serving AppendBatch. Purely
  // logical so cleaner decisions stay flush-deterministic for the crash
  // explorer (no wall time, no randomness).
  uint64_t write_clock() const {
    // relaxed: monotonic logical counter; readers tolerate slight lag.
    return write_clock_.load(std::memory_order_relaxed);
  }

  // Oldest sequence number among this core's registered chunks
  // (UINT64_MAX when there is none) — tombstone reclamation bound.
  uint64_t MinSeq() const;

  // Returns the committed data length of `chunk_off` ([0, kLogDataBytes]).
  uint64_t CommittedBytes(uint64_t chunk_off) const;

  // Marks a victim as unlinked: the cleaner has re-pointed the index away
  // from it and queued the physical free with the epoch manager. Keeps
  // the chunk out of PickVictims until ReleaseChunk runs.
  void BeginRetire(uint64_t chunk_off);

  // Unregisters and frees a victim chunk after cleaning (§3.4 final
  // step). With epoch-based retirement this runs from the deferred-free
  // queue, one grace period after BeginRetire.
  void ReleaseChunk(uint64_t chunk_off);

  // Seals the current serving chunk at its present extent; the next
  // append starts a fresh chunk. This is forced log rotation: it makes a
  // partially filled chunk eligible for victim selection without writing
  // 4 MB of traffic, which crash tests use to build small, deterministic
  // GC scenarios. The committed tail is unaffected.
  void SealActiveChunk();

  // Seals the cleaner's current chunks (both temperature lanes) so
  // future passes may victimize them (relocated tombstones would
  // otherwise hide in them forever). The next cleaner append starts a
  // fresh chunk. No-op for lanes that have none.
  void RotateCleanerChunk();

  // --- recovery support (paper §3.5) ---

  // Adopts state reconstructed by replay: per-chunk usage plus the
  // serving cursor (the chunk containing `tail`).
  void AdoptRecoveredState(uint64_t tail, uint64_t tail_seq,
                           std::map<uint64_t, ChunkUsage> usage);

  // Number of batches appended (stats).
  uint64_t batches() const { return batches_; }
  uint64_t entries_appended() const { return entries_; }

  RootArea* root() const { return root_; }

 private:
  // Append lanes: one serving cursor plus one cleaner cursor per
  // temperature.
  enum Lane : int { kServing = 0, kCleanerHot = 1, kCleanerCold = 2 };
  static Lane CleanerLane(Temp t) {
    return t == Temp::kCold ? kCleanerCold : kCleanerHot;
  }

  // Ensures the lane's cursor has room for `bytes`; rolls over to a
  // fresh chunk when needed. Returns false on out-of-space.
  bool EnsureRoom(uint64_t bytes, Lane lane);

  // Seals the chunk containing `cursor` at `cursor` bytes used.
  void SealChunk(uint64_t chunk_off, uint64_t used);

  // Copies + persists a batch at the cursor; shared by both paths.
  uint64_t WriteEntries(uint64_t* cursor, const EntryRef* entries, size_t n,
                        uint64_t* offsets);

  // Batch accounting shared by both append paths (usage_lock_ taken
  // inside): counts entries/tombstones/bytes into `chunk`'s usage record
  // and stamps its last-write clock (serving: the ticked clock; cleaner:
  // the inherited `age_clock`).
  void AccountBatch(uint64_t chunk, const EntryRef* entries, size_t n,
                    bool cleaner, uint64_t age_clock);

  // Shared body of NoteDead/NoteLiveLost: resolves the entry length
  // (decoding in place when unknown) and adjusts live counters by `dir`.
  void AdjustLive(uint64_t entry_off, uint32_t entry_len, int dir);

  RootArea* root_;
  alloc::LazyAllocator* alloc_;
  int core_;
  Options options_;

  // Serving cursor. `chunk_`, `tail_` and `tail_seq_` have a single
  // writer (the serving path) but are read concurrently by the cleaner
  // thread (PickVictims must spare the active and tail chunks;
  // CommittedBytes bounds the serving chunk's extent by the tail), so
  // they are atomics: the serving path publishes with release stores and
  // the cleaner reads with acquire. They used to be plain uint64_t —
  // a data race the thread-safety pass surfaced (the old code read them
  // under usage_lock_, which the writer never held).
  std::atomic<uint64_t> chunk_{0};   // current serving chunk (0 = none)
  uint64_t cursor_ = 0;  // next write position; serving-thread-confined
  std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> tail_seq_{0};

  // Cleaner cursors, one per temperature lane (§3.4 segregation):
  // `cleaner_chunk_[t]` is read by PickVictims and written on rollover;
  // `cleaner_cursor_[t]` is cleaner-thread-confined.
  std::atomic<uint64_t> cleaner_chunk_[kNumTemps] = {};
  uint64_t cleaner_cursor_[kNumTemps] = {};

  // Logical write clock (see write_clock()); ticked by the serving
  // append path, read by victim selection and NoteDead.
  std::atomic<uint64_t> write_clock_{0};

  // Chunk allocation sequence. fetch_add'ed by BOTH append paths'
  // rollovers (serving leader and cleaner run concurrently); the old
  // plain `next_chunk_seq_++` could hand two chunks the same sequence
  // number, corrupting the tombstone-liveness bound (MinSeq vs
  // max_covered_seq) that victim selection relies on.
  std::atomic<uint32_t> next_chunk_seq_{1};
  uint64_t batches_ = 0;   // serving-thread stats
  uint64_t entries_ = 0;

  mutable SpinLock usage_lock_;
  std::map<uint64_t, ChunkUsage> usage_ GUARDED_BY(usage_lock_);
};

}  // namespace log
}  // namespace flatstore

#endif  // FLATSTORE_LOG_OPLOG_H_
