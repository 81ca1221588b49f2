#include "log/layout.h"

#include <atomic>
#include <cstring>

#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace log {

void RootArea::Format(int num_cores) {
  FLATSTORE_CHECK(num_cores >= 1 && num_cores <= kMaxCores);
  const uint64_t root_bytes =
      kRegistryOff + registry_slots_ * sizeof(ChunkRecord);
  std::memset(pool_->base(), 0, root_bytes);
  // The zeroed root metadata (tail slots, registry) is made durable before
  // any superblock field so a torn format can never pair fresh fields
  // with stale metadata.
  pool_->PersistFence(pool_->base(), root_bytes);
  Superblock* sb = superblock();
  sb->num_cores = static_cast<uint32_t>(num_cores);
  sb->clean_shutdown = 0;
  sb->checkpoint_off = 0;
  sb->checkpoint_items = 0;
  sb->pool_size = pool_->size();
  pool_->Persist(sb, sizeof(Superblock));
  pool_->Fence();
  // The magic is the pool's validity bit: it becomes durable only after
  // every other field is fenced. Writing it first risked a cacheline
  // eviction persisting a "valid" magic over an otherwise torn format,
  // which Open() would then trust.
  sb->magic = kSuperblockMagic;
  pool_->PersistFence(&sb->magic, sizeof(sb->magic));
}

uint64_t RootArea::ReadTail(int core, uint64_t* seq) const {
  const CoreTailArea* area = tails(core);
  uint64_t best_seq = 0, best_tail = 0;
  for (const auto& line : area->lines) {
    const TailSlot& slot = line.slot;
    if (slot.seq > best_seq && slot.check == TailCheck(slot.seq, slot.tail)) {
      best_seq = slot.seq;
      best_tail = slot.tail;
    }
  }
  *seq = best_seq;
  return best_tail;
}

void RootArea::WriteTail(int core, uint64_t seq, uint64_t tail) {
  FLATSTORE_DCHECK(seq > 0);
  CoreTailArea* area = tails(core);
  auto& line = area->lines[seq % kTailSlots];
  line.slot.seq = seq;
  line.slot.tail = tail;
  line.slot.check = TailCheck(seq, tail);
  // fs-lint: deferred-fence(the tail record is the batch commit point — AppendBatch issues the fence so one sfence covers the whole g-persist, paper section 3.3)
  pool_->Persist(&line, sizeof(TailSlot));
}

uint64_t RootArea::RegisterChunk(uint64_t chunk_off, int core, uint32_t seq,
                                 bool cleaner) {
  ChunkRecord* recs = registry();
  const uint64_t flagged = chunk_off | (cleaner ? kChunkCleaner : 0);
  // Claim a free slot; CAS-protected so concurrent cores don't collide.
  // Start probing at a hash of the chunk offset to spread occupancy.
  uint64_t start = (chunk_off / alloc::kChunkSize) % registry_slots_;
  for (uint64_t i = 0; i < registry_slots_; i++) {
    uint64_t s = (start + i) % registry_slots_;
    uint64_t expected = 0;
    if (std::atomic_ref<uint64_t>(recs[s].chunk_off)
            .compare_exchange_strong(expected, flagged | kChunkProvisional,
                                     std::memory_order_acq_rel)) {
      // Two-step durable commit (see kChunkProvisional): persist the full
      // record while still provisional, then flip to the final offset with
      // a single 8-byte — hence tear-proof — persist.
      recs[s].core = static_cast<uint32_t>(core);
      recs[s].seq = seq;
      pool_->PersistFence(&recs[s], sizeof(ChunkRecord));
      std::atomic_ref<uint64_t>(recs[s].chunk_off)
          .store(flagged, std::memory_order_release);
      pool_->PersistFence(&recs[s].chunk_off, sizeof(uint64_t));
      vt::Charge(vt::kCpuCas);
      {
        LockGuard<SpinLock> g(mirror_lock_);
        mirror_[chunk_off] = {core, seq};
      }
      return s;
    }
  }
  FLATSTORE_CHECK(false) << "chunk registry exhausted";
  return 0;
}

void RootArea::UnregisterChunk(uint64_t slot_index) {
  FLATSTORE_DCHECK(slot_index < registry_slots_);
  ChunkRecord* rec = &registry()[slot_index];
  {
    LockGuard<SpinLock> g(mirror_lock_);
    mirror_.erase(rec->chunk_off & ~kChunkFlagsMask);
  }
  std::atomic_ref<uint64_t>(rec->chunk_off)
      .store(0, std::memory_order_release);
  pool_->PersistFence(rec, sizeof(ChunkRecord));
}

bool RootArea::ChunkInfo(uint64_t chunk_off, int* core, uint32_t* seq) const {
  LockGuard<SpinLock> g(mirror_lock_);
  auto it = mirror_.find(chunk_off);
  if (it == mirror_.end()) return false;
  *core = it->second.core;
  *seq = it->second.seq;
  return true;
}

void RootArea::RebuildMirror() {
  LockGuard<SpinLock> g(mirror_lock_);
  mirror_.clear();
  const ChunkRecord* recs = registry();
  for (uint64_t s = 0; s < registry_slots_; s++) {
    const uint64_t off = recs[s].chunk_off;
    if (off != 0 && (off & kChunkProvisional) == 0) {
      mirror_[off & ~kChunkFlagsMask] = {static_cast<int>(recs[s].core),
                                         recs[s].seq};
    }
  }
}

uint64_t RootArea::ScrubProvisionalRecords() {
  ChunkRecord* recs = registry();
  uint64_t scrubbed = 0;
  for (uint64_t s = 0; s < registry_slots_; s++) {
    if (recs[s].chunk_off & kChunkProvisional) {
      std::atomic_ref<uint64_t>(recs[s].chunk_off)
          .store(0, std::memory_order_release);
      pool_->PersistFence(&recs[s], sizeof(ChunkRecord));
      scrubbed++;
    }
  }
  return scrubbed;
}

}  // namespace log
}  // namespace flatstore
