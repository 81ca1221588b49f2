// Counters of persistence traffic issued against an emulated PM pool.
//
// Several of the paper's claims are about *counts* rather than time (e.g.,
// batching reduces a batch of N Puts from 3N persists to N+2). Unit tests
// assert those counts directly from these statistics.
//
// fs-lint: relaxed-default(every atomic in this file is a monotonic stat counter read after the measured phase quiesces; no cross-thread ordering is implied by any of them)

#ifndef FLATSTORE_PM_PM_STATS_H_
#define FLATSTORE_PM_PM_STATS_H_

#include <atomic>
#include <cstdint>

namespace flatstore {
namespace pm {

// Victim live-ratio histogram granularity (log cleaning, §3.4): bucket i
// counts retired victims whose live-byte ratio at pick time fell in
// [i/10, (i+1)/10).
inline constexpr int kGcLiveHistoBuckets = 10;

// Thread-safe counters; cheap relaxed increments on the persist path.
class PmStats {
 public:
  // Plain-value snapshot of the counters.
  struct Snapshot {
    uint64_t persist_calls = 0;   // Persist() invocations
    uint64_t lines_flushed = 0;   // cachelines written to media
    uint64_t fences = 0;          // Fence() invocations
    uint64_t bytes_persisted = 0; // sum of Persist() range lengths
    uint64_t reads = 0;           // charged media reads (ChargeReadAt calls)
    uint64_t read_lines = 0;      // cachelines those reads fetched
    // Epoch-based retirement (common/epoch.h): global-epoch advances,
    // deferred chunk frees executed, and the deferred queue's high-water
    // mark — the reclamation lag a stalled reader can build up.
    uint64_t epoch_advances = 0;
    uint64_t epoch_deferred_frees = 0;
    uint64_t epoch_deferred_hwm = 0;
    // Log cleaning write-amplification accounting (§3.4). Relocated =
    // survivor bytes the cleaner re-appended; reclaimed = committed data
    // bytes of retired victim chunks. The cleaner's write amplification
    // is relocated/reclaimed: survivor bytes per reclaimed byte.
    uint64_t gc_bytes_relocated = 0;
    uint64_t gc_bytes_reclaimed = 0;
    uint64_t gc_victims = 0;  // victim chunks retired
    uint64_t gc_victim_live_histo[kGcLiveHistoBuckets] = {};
  };

  void AddPersist(uint64_t lines, uint64_t bytes) {
    persist_calls_.fetch_add(1, std::memory_order_relaxed);
    lines_flushed_.fetch_add(lines, std::memory_order_relaxed);
    bytes_persisted_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void AddFence() { fences_.fetch_add(1, std::memory_order_relaxed); }

  void AddRead(uint64_t lines) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    read_lines_.fetch_add(lines, std::memory_order_relaxed);
  }

  void AddEpochAdvance() {
    epoch_advances_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddDeferredFrees(uint64_t n) {
    epoch_deferred_frees_.fetch_add(n, std::memory_order_relaxed);
  }
  void UpdateEpochDeferredHwm(uint64_t depth) {
    uint64_t hwm = epoch_deferred_hwm_.load(std::memory_order_relaxed);
    while (depth > hwm && !epoch_deferred_hwm_.compare_exchange_weak(
                              hwm, depth, std::memory_order_relaxed)) {
    }
  }

  // --- log-cleaning write amplification (§3.4) ---
  void AddGcRelocated(uint64_t bytes) {
    gc_bytes_relocated_.fetch_add(bytes, std::memory_order_relaxed);
  }
  // One victim retired: `committed` data bytes return to the allocator,
  // `live_ratio` is the victim's live-byte ratio when it was picked.
  void AddGcVictimRetired(uint64_t committed, double live_ratio) {
    gc_bytes_reclaimed_.fetch_add(committed, std::memory_order_relaxed);
    gc_victims_.fetch_add(1, std::memory_order_relaxed);
    int b = static_cast<int>(live_ratio * kGcLiveHistoBuckets);
    if (b < 0) b = 0;
    if (b >= kGcLiveHistoBuckets) b = kGcLiveHistoBuckets - 1;
    gc_victim_live_histo_[b].fetch_add(1, std::memory_order_relaxed);
  }

  // Returns current values.
  Snapshot Get() const {
    Snapshot s;
    s.persist_calls = persist_calls_.load(std::memory_order_relaxed);
    s.lines_flushed = lines_flushed_.load(std::memory_order_relaxed);
    s.fences = fences_.load(std::memory_order_relaxed);
    s.bytes_persisted = bytes_persisted_.load(std::memory_order_relaxed);
    s.reads = reads_.load(std::memory_order_relaxed);
    s.read_lines = read_lines_.load(std::memory_order_relaxed);
    s.epoch_advances = epoch_advances_.load(std::memory_order_relaxed);
    s.epoch_deferred_frees =
        epoch_deferred_frees_.load(std::memory_order_relaxed);
    s.epoch_deferred_hwm =
        epoch_deferred_hwm_.load(std::memory_order_relaxed);
    s.gc_bytes_relocated =
        gc_bytes_relocated_.load(std::memory_order_relaxed);
    s.gc_bytes_reclaimed =
        gc_bytes_reclaimed_.load(std::memory_order_relaxed);
    s.gc_victims = gc_victims_.load(std::memory_order_relaxed);
    for (int i = 0; i < kGcLiveHistoBuckets; i++) {
      s.gc_victim_live_histo[i] =
          gc_victim_live_histo_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  // Zeroes all counters.
  void Reset() {
    persist_calls_.store(0, std::memory_order_relaxed);
    lines_flushed_.store(0, std::memory_order_relaxed);
    fences_.store(0, std::memory_order_relaxed);
    bytes_persisted_.store(0, std::memory_order_relaxed);
    reads_.store(0, std::memory_order_relaxed);
    read_lines_.store(0, std::memory_order_relaxed);
    epoch_advances_.store(0, std::memory_order_relaxed);
    epoch_deferred_frees_.store(0, std::memory_order_relaxed);
    epoch_deferred_hwm_.store(0, std::memory_order_relaxed);
    gc_bytes_relocated_.store(0, std::memory_order_relaxed);
    gc_bytes_reclaimed_.store(0, std::memory_order_relaxed);
    gc_victims_.store(0, std::memory_order_relaxed);
    for (auto& b : gc_victim_live_histo_) {
      b.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> persist_calls_{0};
  std::atomic<uint64_t> lines_flushed_{0};
  std::atomic<uint64_t> fences_{0};
  std::atomic<uint64_t> bytes_persisted_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_lines_{0};
  std::atomic<uint64_t> epoch_advances_{0};
  std::atomic<uint64_t> epoch_deferred_frees_{0};
  std::atomic<uint64_t> epoch_deferred_hwm_{0};
  std::atomic<uint64_t> gc_bytes_relocated_{0};
  std::atomic<uint64_t> gc_bytes_reclaimed_{0};
  std::atomic<uint64_t> gc_victims_{0};
  std::atomic<uint64_t> gc_victim_live_histo_[kGcLiveHistoBuckets] = {};
};

// Difference of two snapshots (after - before).
inline PmStats::Snapshot Delta(const PmStats::Snapshot& before,
                               const PmStats::Snapshot& after) {
  PmStats::Snapshot d;
  d.persist_calls = after.persist_calls - before.persist_calls;
  d.lines_flushed = after.lines_flushed - before.lines_flushed;
  d.fences = after.fences - before.fences;
  d.bytes_persisted = after.bytes_persisted - before.bytes_persisted;
  d.reads = after.reads - before.reads;
  d.read_lines = after.read_lines - before.read_lines;
  d.gc_bytes_relocated = after.gc_bytes_relocated - before.gc_bytes_relocated;
  d.gc_bytes_reclaimed = after.gc_bytes_reclaimed - before.gc_bytes_reclaimed;
  d.gc_victims = after.gc_victims - before.gc_victims;
  for (int i = 0; i < kGcLiveHistoBuckets; i++) {
    d.gc_victim_live_histo[i] =
        after.gc_victim_live_histo[i] - before.gc_victim_live_histo[i];
  }
  return d;
}

// The cleaner's write amplification: survivor bytes rewritten per byte of
// victim data reclaimed (0 when nothing was reclaimed yet).
inline double GcWriteAmp(const PmStats::Snapshot& s) {
  return s.gc_bytes_reclaimed == 0
             ? 0.0
             : static_cast<double>(s.gc_bytes_relocated) /
                   static_cast<double>(s.gc_bytes_reclaimed);
}

}  // namespace pm
}  // namespace flatstore

#endif  // FLATSTORE_PM_PM_STATS_H_
