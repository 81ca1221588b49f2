// Persistent-pool layout: superblock, per-core tail slots, chunk registry.
//
// Chunk 0 of the pool is reserved for FlatStore's root metadata:
//
//   [0,      4 KB)   Superblock — magic, geometry, shutdown flag,
//                    checkpoint location.
//   [4 KB,  36 KB)   Tail slots — per core, 8 rotating {seq, tail} records
//                    in 8 distinct cachelines. The tail pointer is the Put
//                    commit point and is persisted once per batch; rotating
//                    it across lines sidesteps the ~800 ns penalty for
//                    re-flushing the same cacheline at batch rate
//                    (DESIGN.md §3.1; the paper persists a single tail
//                    pointer and does not discuss this interaction).
//   [36 KB,  4 MB)   Chunk registry — one 16 B persistent record per 4 MB
//                    pool chunk registered as an OpLog segment. Only the
//                    first registry_slots() records (one per pool chunk)
//                    are ever used, formatted or scanned. This
//                    generalizes the paper's "journal field (a predefined
//                    area in PM)" that tracks chunk addresses during GC:
//                    here *every* log chunk is journaled at allocation, so
//                    recovery enumerates OpLog segments without walking a
//                    fragile linked list.
//
// The allocator region starts at chunk 1.

#ifndef FLATSTORE_LOG_LAYOUT_H_
#define FLATSTORE_LOG_LAYOUT_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "alloc/lazy_allocator.h"
#include "common/cacheline.h"
#include "common/logging.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace log {

// Changes whenever the on-PM layout does, so a pool of another layout
// fails IsFormatted instead of being misread.
inline constexpr uint64_t kSuperblockMagic = 0xF1A757025B10C5ull;
inline constexpr int kMaxCores = 64;
inline constexpr int kTailSlots = 8;  // rotating tail records per core

// Root metadata at pool offset 0.
struct Superblock {
  uint64_t magic;
  uint32_t num_cores;
  uint32_t clean_shutdown;   // 1 = checkpoint is valid
  uint64_t checkpoint_off;   // first checkpoint chunk (0 = none)
  uint64_t checkpoint_items; // entries in the checkpoint
  uint64_t pool_size;
  // Per-core log position at checkpoint time: recovery replays only the
  // entries beyond these (paper §3.5: "checkpoint the volatile index into
  // PMs periodically"). A final-shutdown checkpoint simply leaves nothing
  // beyond them.
  uint64_t ckpt_tail[64];
  uint32_t ckpt_seq[64];
};
static_assert(sizeof(Superblock) <= 4096);

// One rotating tail record. The record with the highest seq whose check
// word validates wins. A tail record is 24 bytes but real PM only writes
// 8 bytes atomically: a power cut can tear the slot's flush so that e.g.
// the new seq persists while the new tail does not. The check word binds
// seq and tail together — a torn slot fails validation and recovery falls
// back to the best older slot, losing only unacknowledged batches.
struct TailSlot {
  uint64_t seq;
  uint64_t tail;   // pool offset one past the last committed log byte
  uint64_t check;  // TailCheck(seq, tail)
};

// Mixes seq and tail into the slot check word (splitmix64 finalizer). The
// |1 means an all-zero slot (never written, or fully torn away) can never
// validate, since a valid check word is always odd and zero is not.
inline constexpr uint64_t TailCheck(uint64_t seq, uint64_t tail) {
  uint64_t z = seq * 0x9E3779B97F4A7C15ull + tail;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1ull;
}

// Per-core tail area: 8 slots, one per cacheline.
struct alignas(64) CoreTailArea {
  struct alignas(64) Line {
    TailSlot slot;
    uint8_t pad[64 - sizeof(TailSlot)];
  } lines[kTailSlots];
};
static_assert(sizeof(CoreTailArea) == 64 * kTailSlots);

// Persistent registry record for one OpLog chunk.
struct ChunkRecord {
  uint64_t chunk_off;  // 0 = slot free; low bit = provisional (see below)
  uint32_t core;
  uint32_t seq;        // per-core monotone sequence
};
static_assert(sizeof(ChunkRecord) == 16);

// Low bit of ChunkRecord::chunk_off while the record's core/seq fields
// have not yet been durably committed. Chunk offsets are 4 MB-aligned, so
// the bit is free. RegisterChunk commits in two fenced steps: (1) claim
// the slot as chunk_off|kChunkProvisional and persist the whole record,
// (2) store the final chunk_off and persist that one word (8-byte atomic
// even under torn writes). A crash can therefore never leave a committed
// offset paired with garbage core/seq fields; recovery scrubs provisional
// records and fsck reports them as benign crash artifacts.
inline constexpr uint64_t kChunkProvisional = 1;

// Bit 1 of ChunkRecord::chunk_off marks a chunk written by the log
// cleaner's relocation path. Persisted so fsck can apply the
// half-relocated-victim rule after a crash: a key appearing at the same
// version in two chunks is a legal cleaner artifact only when the copies
// are byte-identical AND at least one sits in a cleaner-flagged chunk.
inline constexpr uint64_t kChunkCleaner = 2;

// All flag bits stashed in the 4 MB-aligned chunk_off. Every registry
// reader must mask these before treating the value as an offset.
inline constexpr uint64_t kChunkFlagsMask = kChunkProvisional | kChunkCleaner;

// Header of one chunk of the index checkpoint chain (Superblock::
// checkpoint_off), placed right after the allocator's chunk header and
// followed by `count` {key, packed} pairs of two uint64s.
struct CheckpointHeader {
  uint64_t next;   // next chunk of the chain (0 = last)
  uint64_t count;  // pairs in this chunk
};
inline constexpr uint64_t kCheckpointPairs =
    (alloc::kChunkSize - alloc::kChunkHeaderSize - sizeof(CheckpointHeader)) /
    16;

// The checkpoint header of chain chunk `chunk_off`.
inline CheckpointHeader* CheckpointAt(pm::PmPool* pool, uint64_t chunk_off) {
  return pool->PtrAt<CheckpointHeader>(chunk_off + alloc::kChunkHeaderSize);
}

inline constexpr uint64_t kTailAreaOff = 4096;
inline constexpr uint64_t kRegistryOff =
    kTailAreaOff + sizeof(CoreTailArea) * kMaxCores;
inline constexpr uint64_t kRegistrySlots =
    (alloc::kChunkSize - kRegistryOff) / sizeof(ChunkRecord);

// Accessor for the root structures of a pool. Also keeps a DRAM mirror of
// the chunk registry (chunk offset -> {owning core, sequence}) so that the
// engine can route entry retirements to the right OpLog in O(1).
class RootArea {
 public:
  explicit RootArea(pm::PmPool* pool)
      : pool_(pool), registry_slots_(pool->size() / alloc::kChunkSize) {
    FLATSTORE_CHECK_GE(pool->size(), 2 * alloc::kChunkSize);
    FLATSTORE_CHECK_LE(registry_slots_, kRegistrySlots);
  }

  Superblock* superblock() const { return pool_->PtrAt<Superblock>(0); }

  CoreTailArea* tails(int core) const {
    FLATSTORE_DCHECK(core >= 0 && core < kMaxCores);
    return pool_->PtrAt<CoreTailArea>(kTailAreaOff +
                                      sizeof(CoreTailArea) *
                                          static_cast<uint64_t>(core));
  }

  ChunkRecord* registry() const {
    return pool_->PtrAt<ChunkRecord>(kRegistryOff);
  }

  // Registry records in use: one per pool chunk, so there is always a
  // slot for every chunk the allocator can hand out. Every registry scan
  // and probe stops here.
  uint64_t registry_slots() const { return registry_slots_; }

  // Formats a brand-new pool: writes and persists the superblock and
  // zeroes the tail area and the registry_slots() registry records.
  void Format(int num_cores);

  // True if the pool carries a valid superblock.
  bool IsFormatted() const {
    return superblock()->magic == kSuperblockMagic;
  }

  // Reads the committed tail of `core` (highest-seq slot); returns the
  // sequence number through `*seq` (0 when no tail was ever written).
  uint64_t ReadTail(int core, uint64_t* seq) const;

  // Writes the next tail record for `core` into the rotating slot and
  // persists that single line (no fence; caller fences the batch).
  void WriteTail(int core, uint64_t seq, uint64_t tail);

  // Registers / unregisters an OpLog chunk. Persist + fence included.
  // Returns the registry slot index. `cleaner` stamps the persistent
  // kChunkCleaner flag (relocation chunks; see the flag comment).
  uint64_t RegisterChunk(uint64_t chunk_off, int core, uint32_t seq,
                         bool cleaner = false);
  void UnregisterChunk(uint64_t slot_index);

  // DRAM-mirror lookup: fills {core, seq} of a registered log chunk.
  // Returns false for unregistered chunks.
  bool ChunkInfo(uint64_t chunk_off, int* core, uint32_t* seq) const;

  // Rebuilds the DRAM mirror from the persistent registry (recovery).
  // Provisional records are skipped — their core/seq may be garbage.
  void RebuildMirror();

  // Frees registry slots left provisional by a crash mid-RegisterChunk
  // (persist + fence per scrubbed slot). Returns how many were scrubbed.
  // Recovery runs this before trusting the registry.
  uint64_t ScrubProvisionalRecords();

  pm::PmPool* pool() const { return pool_; }

 private:
  struct MirrorEntry {
    int core;
    uint32_t seq;
  };

  pm::PmPool* pool_;
  const uint64_t registry_slots_;
  mutable SpinLock mirror_lock_;
  std::unordered_map<uint64_t, MirrorEntry> mirror_ GUARDED_BY(mirror_lock_);
};

}  // namespace log
}  // namespace flatstore

#endif  // FLATSTORE_LOG_LAYOUT_H_
