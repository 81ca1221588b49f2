#include "log/oplog.h"

#include <cstring>

#include "common/cacheline.h"
#include "log/log_entry.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace log {

OpLog::OpLog(RootArea* root, alloc::LazyAllocator* alloc, int core,
             const Options& options)
    : root_(root), alloc_(alloc), core_(core), options_(options) {}

OpLog::OpLog(RootArea* root, alloc::LazyAllocator* alloc, int core)
    : OpLog(root, alloc, core, Options()) {}

bool OpLog::EnsureRoom(uint64_t bytes, bool cleaner) {
  FLATSTORE_CHECK_LE(bytes, kLogDataBytes) << "batch larger than a chunk";
  std::atomic<uint64_t>& chunk = cleaner ? cleaner_chunk_ : chunk_;
  uint64_t& cursor = cleaner ? cleaner_cursor_ : cursor_;
  // relaxed: each cursor has exactly one writer (this thread); the load
  // reads our own previous store. Cross-thread readers go through the
  // acquire accessors.
  const uint64_t cur = chunk.load(std::memory_order_relaxed);

  if (cur != 0) {
    const uint64_t used = cursor - (cur + kLogDataOff);
    if (used + bytes <= kLogDataBytes) return true;
    // Rollover: seal the full chunk so recovery knows its extent even
    // after the tail record moves on.
    SealChunk(cur, used);
  }

  uint64_t fresh = alloc_->AllocRawChunk(core_);
  if (fresh == 0) return false;
  // Fresh log chunks must decode as empty: zero the data region (a reused
  // chunk holds stale bytes that must not replay).
  root_->pool()->Zero(fresh + alloc::kChunkHeaderSize,
                      alloc::kChunkSize - alloc::kChunkHeaderSize);
  auto* hdr = root_->pool()->PtrAt<LogChunkHeader>(fresh +
                                                   alloc::kChunkHeaderSize);
  hdr->used_final = 0;
  root_->pool()->PersistFence(hdr, sizeof(LogChunkHeader));

  // relaxed: the fetch_add only needs atomicity — serving and cleaner
  // rollovers may race here; uniqueness is the contract, not ordering.
  // (This was a plain `next_chunk_seq_++` before the thread-safety pass:
  // a lost update could hand two chunks the same sequence number and
  // break the tombstone-liveness bound in PickVictims.)
  const uint32_t seq = next_chunk_seq_.fetch_add(1, std::memory_order_relaxed);
  uint64_t slot = root_->RegisterChunk(fresh, core_, seq, cleaner);
  {
    LockGuard<SpinLock> g(usage_lock_);
    ChunkUsage& u = usage_[fresh];
    u.seq = seq;
    u.cleaner = cleaner;
    u.registry_slot = slot;
  }
  // Release publishes the zeroed data region and usage record to the
  // cleaner's acquire loads before it can see the new chunk offset.
  chunk.store(fresh, std::memory_order_release);
  cursor = fresh + kLogDataOff;
  return true;
}

void OpLog::SealChunk(uint64_t chunk_off, uint64_t used) {
  auto* hdr = root_->pool()->PtrAt<LogChunkHeader>(chunk_off +
                                                   alloc::kChunkHeaderSize);
  hdr->used_final = used;
  root_->pool()->PersistFence(hdr, sizeof(uint64_t));
  LockGuard<SpinLock> g(usage_lock_);
  auto it = usage_.find(chunk_off);
  FLATSTORE_CHECK(it != usage_.end());
  it->second.sealed = true;
}

uint64_t OpLog::WriteEntries(uint64_t* cursor, const EntryRef* entries,
                             size_t n, uint64_t* offsets) {
  pm::PmPool* pool = root_->pool();
  const uint64_t start = *cursor;
  uint64_t pos = start;
  for (size_t i = 0; i < n; i++) {
    std::memcpy(pool->At(pos), entries[i].data, entries[i].len);
    vt::Charge(vt::CostMemcpy(entries[i].len));
    offsets[i] = pos;
    pos += entries[i].len;
  }
  // Zero the padding bytes explicitly: they share the final entry's line,
  // so the persist below makes them durable too. Without this, a chunk
  // that is freed and later reused could expose *stale entries from its
  // previous incarnation* inside the padding gap after a crash (the
  // fresh-chunk Zero in EnsureRoom is volatile).
  const uint64_t padded = options_.pad_batches ? CachelineAlignUp(pos) : pos;
  if (padded > pos) std::memset(pool->At(pos), 0, padded - pos);
  // One persist sweep over every touched line — this is where batching
  // pays: 16-byte entries share lines, so N entries cost ~N/4 line
  // flushes instead of N.
  // fs-lint: deferred-fence(callers fence the batch: AppendBatch before moving the tail record, CleanerAppendBatch before committing used_final)
  pool->Persist(pool->At(start), padded - start);
  // Cacheline-align the next batch so it never re-flushes our last line
  // (§3.2 "Padding"; the ablation bench disables this).
  *cursor = padded;
  return pos;  // end of the entries themselves (commit point)
}

bool OpLog::AppendBatch(const EntryRef* entries, size_t n,
                        uint64_t* offsets) {
  if (n == 0) return true;
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; i++) bytes += entries[i].len;
  if (!EnsureRoom(bytes + kCachelineSize, /*cleaner=*/false)) return false;

  const uint64_t end = WriteEntries(&cursor_, entries, n, offsets);
  root_->pool()->Fence();  // entries durable before the tail moves

  // relaxed: single writer — reads our own previous store.
  const uint64_t seq = tail_seq_.load(std::memory_order_relaxed) + 1;
  // Release: the cleaner's acquire load of tail_ must observe the entry
  // bytes written above before it trusts the extent.
  tail_.store(end, std::memory_order_release);
  tail_seq_.store(seq, std::memory_order_release);
  root_->WriteTail(core_, seq, end);
  root_->pool()->Fence();

  // One logical tick per serving batch (the cost-benefit age unit).
  // relaxed: monotonic counter, single serving writer.
  write_clock_.fetch_add(1, std::memory_order_relaxed);
  // relaxed: our own store from EnsureRoom this batch.
  AccountBatch(chunk_.load(std::memory_order_relaxed), entries, n,
               /*cleaner=*/false, /*age_clock=*/0);
  batches_++;
  entries_ += n;
  return true;
}

bool OpLog::CleanerAppendBatch(const EntryRef* entries, size_t n,
                               uint64_t* offsets, uint64_t age_clock) {
  if (n == 0) return true;
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; i++) bytes += entries[i].len;
  if (!EnsureRoom(bytes + kCachelineSize, /*cleaner=*/true)) return false;

  const uint64_t end = WriteEntries(&cleaner_cursor_, entries, n, offsets);
  root_->pool()->Fence();
  // relaxed: cleaner_chunk_ has a single writer — the cleaner itself.
  const uint64_t cchunk = cleaner_chunk_.load(std::memory_order_relaxed);
  // Commit through the chunk's used_final (the cleaner has no tail
  // record); must be durable before the index is re-pointed at the
  // copies.
  auto* hdr =
      root_->pool()->PtrAt<LogChunkHeader>(cchunk + alloc::kChunkHeaderSize);
  hdr->used_final = end - (cchunk + kLogDataOff);
  root_->pool()->PersistFence(hdr, sizeof(uint64_t));

  AccountBatch(cchunk, entries, n, /*cleaner=*/true, age_clock);
  return true;
}

void OpLog::AccountBatch(uint64_t chunk, const EntryRef* entries, size_t n,
                         bool cleaner, uint64_t age_clock) {
  uint32_t tombs = 0;
  uint32_t max_covered = 0;
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; i++) {
    bytes += entries[i].len;
    if ((entries[i].data[0] & 0x3) ==
        static_cast<uint8_t>(OpType::kDelete)) {
      tombs++;
      // Covered sequence sits in the tombstone's Ptr field (40 bits).
      uint32_t covered = static_cast<uint32_t>(
          entry_internal::Get40(entries[i].data + 11));
      max_covered = std::max(max_covered, covered);
    }
  }
  // relaxed: logical stamp — monotonicity per chunk is all that matters.
  const uint64_t now = write_clock_.load(std::memory_order_relaxed);
  LockGuard<SpinLock> g(usage_lock_);
  ChunkUsage& u = usage_[chunk];
  u.total += static_cast<uint32_t>(n);
  u.live += static_cast<uint32_t>(n);
  u.tombs += tombs;
  u.max_covered_seq = std::max(u.max_covered_seq, max_covered);
  u.total_bytes += bytes;
  u.live_bytes += bytes;
  // Serving appends stamp "now"; relocation chunks inherit the victim's
  // stamp so survivors keep their age instead of looking freshly written.
  u.last_write_clock = cleaner ? std::max(u.last_write_clock, age_clock)
                               : now;
}

void OpLog::SealActiveChunk() {
  // relaxed: serving-thread-owned cursor; see EnsureRoom.
  const uint64_t chunk = chunk_.load(std::memory_order_relaxed);
  if (chunk == 0) return;
  SealChunk(chunk, cursor_ - (chunk + kLogDataOff));
  chunk_.store(0, std::memory_order_release);
  cursor_ = 0;
}

void OpLog::RotateCleanerChunk() {
  // relaxed: cleaner-thread-owned cursor; see EnsureRoom.
  const uint64_t chunk = cleaner_chunk_.load(std::memory_order_relaxed);
  if (chunk == 0) return;
  SealChunk(chunk, cleaner_cursor_ - (chunk + kLogDataOff));
  cleaner_chunk_.store(0, std::memory_order_release);
  cleaner_cursor_ = 0;
}

void OpLog::AdjustLive(uint64_t entry_off, uint32_t entry_len, int dir) {
  const uint64_t chunk_off = AlignDown(entry_off, alloc::kChunkSize);
  if (entry_len == 0) {
    // Length unknown: decode the entry in place (its bytes are durable
    // and immutable once appended). Tolerate failure — tests poke
    // arbitrary offsets to drive victim selection.
    const uint64_t chunk_end = chunk_off + alloc::kChunkSize;
    DecodedEntry e;
    if (DecodeEntry(
            static_cast<const uint8_t*>(root_->pool()->At(entry_off)),
            std::min<uint64_t>(kMaxEntrySize, chunk_end - entry_off), &e)) {
      entry_len = e.entry_len;
    }
  }
  // relaxed: logical stamp — monotonicity per chunk is all that matters.
  const uint64_t now = write_clock_.load(std::memory_order_relaxed);
  LockGuard<SpinLock> g(usage_lock_);
  auto it = usage_.find(chunk_off);
  if (it == usage_.end()) return;
  ChunkUsage& u = it->second;
  if (dir < 0) {
    if (u.live > 0) u.live--;
    u.live_bytes -= std::min<uint64_t>(u.live_bytes, entry_len);
    // A death is an overwrite/delete event: the chunk is "recently
    // active", so cost-benefit deprioritizes it while its live ratio is
    // still falling (LFS: clean cold, stable garbage first).
    u.last_write_clock = std::max(u.last_write_clock, now);
  } else {
    u.live++;
    u.live_bytes += entry_len;
  }
}

void OpLog::NoteDead(uint64_t entry_off, uint32_t entry_len) {
  AdjustLive(entry_off, entry_len, -1);
}

void OpLog::NoteLiveLost(uint64_t entry_off, uint32_t entry_len) {
  AdjustLive(entry_off, entry_len, +1);
}

std::map<uint64_t, ChunkUsage> OpLog::UsageSnapshot() const {
  LockGuard<SpinLock> g(usage_lock_);
  return usage_;
}

std::vector<VictimInfo> OpLog::PickVictims(const VictimQuery& query) const {
  struct Candidate {
    double score;   // cost-benefit ordering key
    uint32_t seq;
    VictimInfo info;
  };
  std::vector<Candidate> candidates;
  // Acquire snapshot of the serving cursor: the serving thread publishes
  // these with release stores (they are NOT protected by usage_lock_).
  const uint64_t active_chunk = chunk_.load(std::memory_order_acquire);
  const uint64_t active_cleaner =
      cleaner_chunk_.load(std::memory_order_acquire);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  // relaxed: logical clock snapshot; slight lag only shifts every age
  // equally within this pick.
  const uint64_t now = write_clock_.load(std::memory_order_relaxed);
  {
    LockGuard<SpinLock> g(usage_lock_);
    uint64_t min_seq = UINT64_MAX;
    for (const auto& [off, u] : usage_) {
      min_seq = std::min<uint64_t>(min_seq, u.seq);
    }
    for (const auto& [off, u] : usage_) {
      if (!u.sealed) continue;                       // still being written
      if (u.retired) continue;     // unlinked, free already in flight
      if (off == active_chunk || off == active_cleaner) continue;
      // Never retire the chunk the durable tail record points into, even
      // when it is sealed (forced rotation seals before the tail moves).
      // Unregistering it would leave a crash-time tail referencing a
      // freed — and possibly reused — chunk, and recovery must be able
      // to replay the tail.
      if (tail != 0 && AlignDown(tail, alloc::kChunkSize) == off) continue;
      if (u.total == 0) continue;
      // Tombstones whose covered chunks are all gone are as good as dead:
      // discount them so tombstone-only chunks become victims too (the
      // cleaner verifies exact liveness before dropping anything).
      const uint32_t dead_tombs =
          (u.tombs > 0 && min_seq > u.max_covered_seq) ? u.tombs : 0;
      const uint32_t effective_live =
          u.live > dead_tombs ? u.live - dead_tombs : 0;
      // Byte-granular counters, falling back to entry counts for chunks
      // that predate them (e.g. hand-built test fixtures).
      double ratio = static_cast<double>(effective_live) / u.total;
      if (u.total_bytes > 0) {
        const uint64_t dead_tomb_bytes =
            static_cast<uint64_t>(dead_tombs) * kPtrEntrySize;
        const uint64_t eff_live_bytes =
            u.live_bytes > dead_tomb_bytes ? u.live_bytes - dead_tomb_bytes
                                           : 0;
        ratio = static_cast<double>(eff_live_bytes) /
                static_cast<double>(u.total_bytes);
      }
      if (ratio >= query.live_ratio) continue;
      Candidate c;
      c.seq = u.seq;
      c.info.chunk_off = off;
      c.info.live_ratio = ratio;
      c.info.age = now > u.last_write_clock ? now - u.last_write_clock : 0;
      c.info.last_write_clock = u.last_write_clock;
      // RAMCloud/LFS cost-benefit: benefit = freeable space x age of the
      // data; cost = read the chunk + rewrite the live part (1 + u).
      c.score = (1.0 - ratio) * static_cast<double>(c.info.age) /
                (1.0 + ratio);
      candidates.push_back(c);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.seq < b.seq;  // ties: oldest first (deterministic)
            });
  std::vector<VictimInfo> out;
  for (size_t i = 0; i < candidates.size() && i < query.max; i++) {
    out.push_back(candidates[i].info);
  }
  return out;
}

uint64_t OpLog::MinSeq() const {
  LockGuard<SpinLock> g(usage_lock_);
  uint64_t min_seq = UINT64_MAX;
  for (const auto& [off, u] : usage_) {
    min_seq = std::min<uint64_t>(min_seq, u.seq);
  }
  return min_seq;
}

uint64_t OpLog::CommittedBytes(uint64_t chunk_off) const {
  {
    // Acquire pairs with the serving path's release stores: observing
    // tail_ >= an entry's end implies the entry bytes are visible.
    const uint64_t active_chunk = chunk_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    LockGuard<SpinLock> g(usage_lock_);
    auto it = usage_.find(chunk_off);
    if (it != usage_.end() && !it->second.sealed) {
      // The serving chunk's extent is bounded by the tail; the cleaner
      // chunk's by used_final (maintained per cleaner batch).
      if (chunk_off == active_chunk) {
        return tail == 0 ? 0 : tail - (chunk_off + kLogDataOff);
      }
    }
  }
  return root_->pool()
      ->PtrAt<LogChunkHeader>(chunk_off + alloc::kChunkHeaderSize)
      ->used_final;
}

void OpLog::BeginRetire(uint64_t chunk_off) {
  LockGuard<SpinLock> g(usage_lock_);
  auto it = usage_.find(chunk_off);
  FLATSTORE_CHECK(it != usage_.end());
  FLATSTORE_CHECK(!it->second.retired) << "double retire of chunk "
                                       << chunk_off;
  it->second.retired = true;
}

void OpLog::ReleaseChunk(uint64_t chunk_off) {
  uint64_t slot;
  {
    LockGuard<SpinLock> g(usage_lock_);
    auto it = usage_.find(chunk_off);
    FLATSTORE_CHECK(it != usage_.end());
    slot = it->second.registry_slot;
    usage_.erase(it);
  }
  root_->UnregisterChunk(slot);
  alloc_->FreeRawChunk(chunk_off);
  // Freeing a chunk invalidates any armed online checkpoint: its index
  // snapshot may reference entries that lived here.
  Superblock* sb = root_->superblock();
  if (sb->clean_shutdown != 0) {
    sb->clean_shutdown = 0;
    root_->pool()->PersistFence(&sb->clean_shutdown, 4);
  }
}

void OpLog::AdoptRecoveredState(uint64_t tail, uint64_t tail_seq,
                                std::map<uint64_t, ChunkUsage> usage) {
  LockGuard<SpinLock> g(usage_lock_);
  usage_ = std::move(usage);
  // Recovery is single-threaded (no cleaner or serving threads yet), but
  // release keeps the publication contract uniform.
  tail_.store(tail, std::memory_order_release);
  tail_seq_.store(tail_seq, std::memory_order_release);
  chunk_.store(0, std::memory_order_release);
  cursor_ = 0;
  cleaner_chunk_.store(0, std::memory_order_release);
  cleaner_cursor_ = 0;
  uint32_t max_seq = 0;
  for (auto& [off, u] : usage_) {
    max_seq = std::max(max_seq, u.seq);
    // The logical write clock is volatile; re-seed chunk ages from the
    // allocation sequence so cost-benefit ordering survives recovery
    // (older chunks stay older).
    if (u.last_write_clock == 0) u.last_write_clock = u.seq;
    if (tail != 0 && off == AlignDown(tail, alloc::kChunkSize) && !u.sealed) {
      chunk_.store(off, std::memory_order_release);
      cursor_ = options_.pad_batches ? CachelineAlignUp(tail) : tail;
    }
  }
  next_chunk_seq_.store(max_seq + 1, std::memory_order_release);
  // relaxed: single-threaded recovery; clock must land past every seeded
  // chunk stamp so fresh ages are non-negative.
  write_clock_.store(max_seq + 1, std::memory_order_relaxed);
}

}  // namespace log
}  // namespace flatstore
