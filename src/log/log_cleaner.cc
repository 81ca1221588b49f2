#include "log/log_cleaner.h"

#include <algorithm>
#include <chrono>

#include "log/log_reader.h"
#include "pm/pm_stats.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace log {

namespace {
// Pipeline slice bounds: one scan slice / relocation sub-batch per
// AdvanceJob call, so a bounded RunOnce interleaves stages across
// victims instead of draining one victim end-to-end.
constexpr uint64_t kScanSliceBytes = 256 * 1024;
constexpr size_t kRelocSubBatch = 32;
// Liveness probes per overlap window: the serving path's read batch
// (core::kMaxReadBatch).
constexpr size_t kProbeGroup = 64;
// Budget multiplier under allocator pressure level 1 (see RunOnce).
constexpr uint64_t kPressureBoost = 4;
}  // namespace

LogCleaner::LogCleaner(std::vector<OpLog*> logs, int first_core,
                       int last_core, CleanerHooks hooks,
                       const Options& options, alloc::LazyAllocator* alloc)
    : logs_(std::move(logs)),
      first_core_(first_core),
      last_core_(last_core),
      hooks_(std::move(hooks)),
      options_(options),
      alloc_(alloc) {
  FLATSTORE_CHECK(first_core_ >= 0 &&
                  last_core_ <= static_cast<int>(logs_.size()));
  FLATSTORE_CHECK(hooks_.epochs != nullptr)
      << "LogCleaner requires an epoch manager for deferred chunk frees";
}

LogCleaner::~LogCleaner() { Stop(); }

void LogCleaner::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    // The cleaner is a simulated core of its own: its CPU/PM work lands
    // on this clock, and its device traffic contends with serving cores
    // through the shared PmDevice (the Fig. 13 interference).
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    // relaxed: run flag; Stop() joins the thread, which orders everything.
    while (running_.load(std::memory_order_relaxed)) {
      if (RunOnce() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
}

void LogCleaner::Stop() {
  // relaxed: run flag; the join below is the ordering point.
  running_.store(false, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

size_t LogCleaner::RunOnce() {
  LockGuard<SpinLock> g(run_lock_);
  const int pressure = alloc_->MemoryPressure();

  // Backpressure: the byte budget grows with allocator pressure — boost
  // below the watermark, unbounded when the pool is nearly dry (level 2:
  // reclaiming beats pacing).
  uint64_t budget = UINT64_MAX;
  if (options_.quantum_bytes != 0 && pressure < 2) {
    budget = options_.quantum_bytes * (pressure == 1 ? kPressureBoost : 1);
  }

  size_t retired = 0;
  std::vector<int> rotate_cores;
  bool progressed = true;
  while (budget > 0 && progressed) {
    // Top up to max_victims in-flight relocations per core. Re-refilling
    // every round (not just once per pass) makes max_victims an in-flight
    // cap rather than a per-pass total: a boosted or unbounded budget can
    // retire many victims in one pass even with max_victims = 1.
    RefillJobs();
    if (jobs_.empty()) break;
    progressed = false;
    for (auto it = jobs_.begin(); it != jobs_.end() && budget > 0;) {
      if (AdvanceJob(*it, &budget)) progressed = true;
      if (it->stage == Stage::kDone) {
        retired++;
        rotate_cores.push_back(it->core);
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Expose relocated survivors (tombstones in particular) to future
  // victim selection.
  for (size_t i = 0; i < rotate_cores.size(); i++) {
    const int core = rotate_cores[i];
    bool seen = false;
    for (size_t j = 0; j < i; j++) seen = seen || rotate_cores[j] == core;
    if (!seen) logs_[core]->RotateCleanerChunk();
  }

  // Run the deferred frees that have become epoch-safe (including this
  // pass's victims whenever no reader is currently pinned).
  return retired + hooks_.epochs->ReclaimDeferred();
}

void LogCleaner::RefillJobs() {
  for (int core = first_core_; core < last_core_; core++) {
    size_t in_flight = 0;
    for (const CleaningJob& j : jobs_) {
      if (j.core == core) in_flight++;
    }
    VictimQuery q;
    q.live_ratio = options_.live_ratio;
    q.max = options_.max_victims;
    if (in_flight >= q.max) continue;

    for (const VictimInfo& v : logs_[core]->PickVictims(q)) {
      if (in_flight >= q.max) break;
      // The picker sees chunks whose job is still in flight (a bounded
      // pass parks jobs mid-victim); one job per chunk.
      bool dup = false;
      for (const CleaningJob& j : jobs_) {
        dup = dup || (j.core == core && j.chunk_off == v.chunk_off);
      }
      if (dup) continue;
      in_flight++;
      CleaningJob job;
      job.core = core;
      job.chunk_off = v.chunk_off;
      job.committed = logs_[core]->CommittedBytes(v.chunk_off);
      job.age_clock = v.last_write_clock;
      job.pick_live_ratio = v.live_ratio;
      jobs_.push_back(std::move(job));
    }
  }
}

bool LogCleaner::AdvanceJob(CleaningJob& job, uint64_t* budget) {
  OpLog* log = logs_[job.core];
  pm::PmPool* pool = log->root()->pool();

  if (job.stage == Stage::kScan) {
    // One bounded scan slice: collect survivors, resumable at any entry
    // boundary via the saved reader position.
    const uint64_t slice = std::min<uint64_t>(*budget, kScanSliceBytes);
    if (slice == 0) return false;
    LogChunkReader reader(pool, job.chunk_off, job.committed);
    reader.SeekTo(job.scan_pos);
    const uint64_t min_seq = log->MinSeq();
    const uint64_t start = reader.position();
    // Liveness is probed in groups through index::ProbeBatch, as the
    // serving reads are: prefetched, then completed, under one overlap
    // window. Entries keep their scan order.
    DecodedEntry group[kProbeGroup];
    uint64_t group_off[kProbeGroup];
    size_t grouped = 0;
    auto probe_group = [&] {
      index::KvIndex* idx[kProbeGroup];
      uint64_t keys[kProbeGroup];
      index::LookupHint hints[kProbeGroup];
      bool found[kProbeGroup];
      uint64_t cur[kProbeGroup];
      for (size_t i = 0; i < grouped; i++) {
        keys[i] = group[i].key;
        idx[i] = hooks_.index_of_key(keys[i]);
      }
      index::ProbeBatch(idx, keys, grouped, found, cur, hints);
      for (size_t i = 0; i < grouped; i++) {
        const DecodedEntry& g = group[i];
        const uint64_t packed = PackIndexValue(group_off[i], g.version);
        bool live = found[i] && cur[i] == packed;
        if (live && g.op == OpType::kDelete && g.ptr < min_seq) {
          // Tombstone whose covered chunk is gone: no stale Put can
          // resurrect the key anymore, so both the tombstone and its
          // index entry may die (paper §3.4's "safely reclaimed"
          // condition).
          uint64_t old;
          if (idx[i]->Apply(g.key, index::kNoValue,
                            index::Cond::Equals(packed), index::LookupHint{},
                            &old)) {
            live = false;
          }
        }
        if (!live) {
          // relaxed: monotonic stat counter, no ordering required.
          entries_dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        job.survivors.push_back(
            {group_off[i], g.key, g.version, g.entry_len, g.txn});
      }
      grouped = 0;
    };
    DecodedEntry e;
    uint64_t off;
    bool end_of_chunk = false;
    while (reader.position() - start < slice) {
      if (!reader.Next(&e, &off)) {
        end_of_chunk = true;
        break;
      }
      vt::Charge(vt::kCpuSlotProbe + vt::kPmReadLatency / 8);
      if (e.op == OpType::kTxnCommit) {
        // Commit records are born dead (never indexed); the relocation
        // stage emits a fresh commit over whichever members survive.
        // relaxed: monotonic stat counter, no ordering required.
        entries_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      group[grouped] = e;
      group_off[grouped++] = off;
      if (grouped == kProbeGroup) probe_group();
    }
    probe_group();
    const uint64_t consumed = reader.position() - start;
    *budget -= std::min(*budget, consumed);
    job.scan_pos = reader.position();
    if (end_of_chunk || job.scan_pos >= job.committed) {
      job.stage = Stage::kRelocate;
    }
    // Zero consumed bytes with no stage change means an empty slice.
    return consumed > 0 || job.stage != Stage::kScan;
  }

  if (job.stage == Stage::kRelocate) {
    if (job.reloc_pos >= job.survivors.size()) {
      job.stage = Stage::kRetire;
      return true;
    }
    // One relocation sub-batch: durable copy (used_final committed by
    // CleanerAppendBatch), then swing the index. A PM-pressure failure
    // leaves the job parked at reloc_pos — already-relocated survivors
    // stay durable and re-pointed, so the pass *resumes* rather than
    // restarting the victim (the old cleaner aborted the whole chunk
    // here and re-scanned it on the next pass).
    const size_t k =
        std::min(kRelocSubBatch, job.survivors.size() - job.reloc_pos);
    // Partition the sub-batch: plain entries first, then txn-chain
    // members back-to-back, so ONE fresh commit record can cover every
    // relocated member contiguously — recovery drops members without a
    // covering commit, so a chain must never be split from one (§5.3).
    // Member bytes are copied verbatim (the txn bit stays set): replay's
    // checksum and fsck's byte-identical duplicate rule both hash the
    // copies exactly as the serving core wrote the originals.
    size_t order[kRelocSubBatch];
    size_t plains = 0;
    size_t txns = 0;
    for (size_t i = 0; i < k; i++) {
      if (!job.survivors[job.reloc_pos + i].txn) order[plains++] = i;
    }
    for (size_t i = 0; i < k; i++) {
      if (job.survivors[job.reloc_pos + i].txn) order[plains + txns++] = i;
    }
    OpLog::EntryRef refs[kRelocSubBatch + 1];
    uint64_t new_offs[kRelocSubBatch + 1];
    uint8_t chain_scratch[kRelocSubBatch * kMaxEntrySize];
    uint8_t commit_buf[kPtrEntrySize];
    uint64_t bytes = 0;
    uint64_t chain_bytes = 0;
    for (size_t i = 0; i < k; i++) {
      const Survivor& s = job.survivors[job.reloc_pos + order[i]];
      const auto* src = static_cast<const uint8_t*>(pool->At(s.old_off));
      refs[i] = {src, s.len};
      bytes += s.len;
      if (s.txn) {
        std::memcpy(chain_scratch + chain_bytes, src, s.len);
        chain_bytes += s.len;
      }
    }
    size_t n_refs = k;
    if (txns > 0) {
      EncodeTxnCommit(commit_buf, static_cast<uint32_t>(txns), chain_bytes,
                      Hash64(chain_scratch, chain_bytes));
      refs[k] = {commit_buf, kPtrEntrySize};
      bytes += kPtrEntrySize;
      n_refs = k + 1;
    }
    if (!log->CleanerAppendBatch(refs, n_refs, new_offs, job.age_clock)) {
      return false;  // PM pressure: park; resumes at reloc_pos
    }
    log->root()->pool()->stats().AddGcRelocated(bytes);
    // The fresh commit record is born dead, like the serving path's.
    if (txns > 0) log->NoteDead(new_offs[k], kPtrEntrySize);
    for (size_t i = 0; i < k; i++) {
      const Survivor& s = job.survivors[job.reloc_pos + order[i]];
      const uint64_t expected = PackIndexValue(s.old_off, s.version);
      const uint64_t desired = PackIndexValue(new_offs[i], s.version);
      uint64_t old;
      if (hooks_.index_of_key(s.key)->Apply(s.key, desired,
                                            index::Cond::Equals(expected),
                                            index::LookupHint{}, &old)) {
        // relaxed: monotonic stat counter, no ordering required.
        entries_copied_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Superseded while we copied: the copy is garbage.
        log->NoteDead(new_offs[i], s.len);
        // relaxed: monotonic stat counter, no ordering required.
        entries_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    job.reloc_pos += k;
    *budget -= std::min(*budget, bytes);
    if (job.reloc_pos >= job.survivors.size()) job.stage = Stage::kRetire;
    return true;
  }

  // Stage::kRetire — unlink now, free later. A serving core may still
  // hold an entry pointer it decoded through the index *before* the CAS
  // swings above, so the physical free waits until every core has
  // advanced past the current epoch. BeginRetire keeps the chunk out of
  // future victim selection while the free is in flight.
  log->BeginRetire(job.chunk_off);
  const uint64_t chunk_off = job.chunk_off;
  hooks_.epochs->Defer([log, chunk_off] { log->ReleaseChunk(chunk_off); });
  log->root()->pool()->stats().AddGcVictimRetired(job.committed,
                                                  job.pick_live_ratio);
  // relaxed: monotonic stat counter, no ordering required.
  chunks_cleaned_.fetch_add(1, std::memory_order_relaxed);
  vt::Charge(vt::kCpuCas);
  job.stage = Stage::kDone;
  return true;
}

}  // namespace log
}  // namespace flatstore
