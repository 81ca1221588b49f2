// Horizontal batching (paper §3.3).
//
// The g-persist phase of a Put is decoupled from the serving core: each
// core *stages* its encoded log entries in a per-core request pool; one
// core — whichever wins the group lock — becomes the leader, steals every
// staged entry in its group, appends them to its own OpLog as one batch,
// and publishes per-entry completion. Four strategies are selectable for
// the ablation studies (Fig. 4 / Fig. 11 / Fig. 12):
//
//  * kNone        — each request persists alone (the "Base" version);
//  * kVertical    — a core batches only the requests it received itself;
//  * kNaiveHB     — leader steals, but holds the group lock across the
//                   whole persist (Fig. 4(c));
//  * kPipelinedHB — leader releases the lock right after collecting, so
//                   adjacent batches overlap (Fig. 4(d)); followers keep
//                   polling new requests instead of blocking.
//
// Virtual time: host-level locking only protects memory; the *simulated*
// cost of the protocol is modelled by the per-core scan/claim charges and
// the leader's PM charges inside OpLog::AppendBatch. A follower learns
// its entry's completion timestamp from the slot and advances its own
// clock when it observes it.

#ifndef FLATSTORE_BATCH_HB_ENGINE_H_
#define FLATSTORE_BATCH_HB_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "log/log_entry.h"
#include "log/oplog.h"

namespace flatstore {
namespace batch {

// Batching strategy (see file comment).
enum class BatchMode { kNone, kVertical, kNaiveHB, kPipelinedHB };

const char* BatchModeName(BatchMode mode);

// The batching engine for one store instance.
class HbEngine {
 public:
  // Staged entries per core. Public: the engine's request pool bounds the
  // store's per-core in-flight population, so FlatStore sizes its pending
  // ring and in-flight key table from it.
  static constexpr size_t kPoolSlots = 512;
  // Upper bound on entries merged into one batch. Bounds the tail latency
  // a stolen entry can accrue waiting for its batch to persist, and keeps
  // several leaders' persists in flight concurrently under load.
  static constexpr size_t kMaxBatch = 64;

  // `logs[c]` is core c's OpLog; `group_size` cores share one group lock
  // (the paper groups by socket).
  HbEngine(std::vector<log::OpLog*> logs, int group_size, BatchMode mode);

  HbEngine(const HbEngine&) = delete;
  HbEngine& operator=(const HbEngine&) = delete;

  // Stages `n` encoded entries (1 <= n <= kMaxBatch) as ONE fused group
  // in consecutive slots of `core`'s pool; a single entry is a group of
  // one. The collector never splits a fused group across leader batches,
  // so the whole group flows through a single OpLog::AppendBatch — one
  // reservation, one contiguous record chain, one persist sweep, one
  // fence pair — and a torn crash can only surface an entry-prefix of the
  // group, never an interleaving. All-or-nothing: returns false (staging
  // nothing) when fewer than `n` slots are free (the caller must
  // TryPersist + drain completions first). `handles[i]` receives the
  // i-th entry's handle.
  bool StageBatch(int core, const log::OpLog::EntryRef* entries, size_t n,
                  uint64_t* handles);

  // Runs one g-persist attempt for `core`: leader work in HB modes,
  // self-batching in kVertical/kNone. In HB modes idle cores
  // (vt::CoreIdle) are elected before cores with staged work (see
  // Group::next_leader). Returns the number of entries this call
  // persisted (0 when the core lost the leader election).
  size_t TryPersist(int core);

  // Non-blocking completion check for a staged handle. On completion
  // fills the entry's log offset and the simulated completion time.
  bool IsDone(int core, uint64_t handle, uint64_t* entry_off,
              uint64_t* done_time) const;

  // Releases a completed slot for reuse. Handles must be released in
  // FIFO order per core (the engine processes completions in order).
  void Release(int core, uint64_t handle);

  // Number of staged-but-unpersisted entries for `core`.
  size_t PendingCount(int core) const;

  BatchMode mode() const { return mode_; }
  int group_size() const { return group_size_; }
  int num_cores() const { return static_cast<int>(logs_.size()); }

  // Aggregate batch-size statistics (Fig. 11/12 analysis).
  uint64_t batches() const {
    // relaxed: stat counter read after the run quiesces.
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t batched_entries() const {
    // relaxed: stat counter read after the run quiesces.
    return batched_entries_.load(std::memory_order_relaxed);
  }
  // Fused groups staged through StageBatch and the entries they carried
  // (tests assert client batches really stay whole end to end).
  uint64_t fused_groups() const {
    // relaxed: stat counter read after the run quiesces.
    return fused_groups_.load(std::memory_order_relaxed);
  }
  uint64_t fused_entries() const {
    // relaxed: stat counter read after the run quiesces.
    return fused_entries_.load(std::memory_order_relaxed);
  }
  // Batches `core` committed: as HB leader, or of its own entries in
  // kVertical/kNone.
  uint64_t batches_led(int core) const {
    // relaxed: stat counter read after the run quiesces.
    return pools_[core].led.load(std::memory_order_relaxed);
  }

 private:
  enum : uint32_t { kFree = 0, kStaged = 1, kDone = 2 };

  struct Slot {
    uint8_t buf[log::kMaxEntrySize];
    uint32_t len = 0;
    // Entries in the fused group starting at this slot (1 = unfused;
    // only meaningful on a group's first slot). The collector refuses to
    // take a group it cannot take whole.
    uint32_t fuse = 1;
    uint64_t stage_time = 0;  // owner's simulated clock at StageBatch()
    uint64_t entry_off = 0;
    uint64_t done_time = 0;
    std::atomic<uint32_t> state{kFree};
  };

  struct alignas(64) CorePool {
    std::unique_ptr<Slot[]> slots{new Slot[kPoolSlots]};
    std::atomic<uint64_t> head{0};    // owner: next stage position
    // Next steal position. Written only by the current leader (group lock
    // held); read lock-free by every core's leader-election scan
    // (PendingCount), so it must be atomic — relaxed suffices, the value
    // is only an election heuristic there.
    std::atomic<uint64_t> collected{0};
    std::atomic<uint64_t> led{0};  // batches_led(); owner-written
    // Leader-side batch scratch: fixed arrays keep the g-persist hot loop
    // off the heap (only the owning serving thread runs TryPersist for
    // this core, so no synchronization is needed).
    log::OpLog::EntryRef refs[kMaxBatch];
    Slot* claims[kMaxBatch];
    uint64_t offsets[kMaxBatch];
  };

  struct alignas(64) Group {
    SpinLock lock;
    // Round-robin leadership baton (relative core within the group; the
    // core after the last leader): host-thread scheduling must not decide
    // who leads, or one core's virtual clock would absorb every batch's
    // persist cost. While the group has staged work, the first idle core
    // (vt::CoreIdle) from the baton on leads; with no core idle, the
    // first core with staged work does (the paper's rotation emerges from
    // arrival timing on real hardware; here it is made explicit and
    // deterministic).
    std::atomic<int> next_leader{0};
  };

  // Collects the entries of `core` staged at simulated time <= `now`
  // into the leader's scratch arrays (capacity kMaxBatch; `*n` is the
  // fill count, appended to). Batch composition must depend on
  // *simulated* arrival order, not on host-thread scheduling, or results
  // would vary run to run.
  void Collect(int core, uint64_t now, log::OpLog::EntryRef* refs,
               Slot** claims, size_t* n);

  // Earliest stage_time among `core`'s uncollected entries (UINT64_MAX
  // when none).
  uint64_t EarliestStaged(int core) const;

  // Appends + publishes a collected batch through `core`'s log and counts
  // it in batches_led(core). `offsets` is leader scratch of at least `n`
  // slots.
  size_t Commit(int core, const log::OpLog::EntryRef* refs,
                Slot* const* claims, size_t n, uint64_t* offsets);

  std::vector<log::OpLog*> logs_;
  int group_size_;
  BatchMode mode_;
  std::vector<CorePool> pools_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_entries_{0};
  std::atomic<uint64_t> fused_groups_{0};
  std::atomic<uint64_t> fused_entries_{0};
};

}  // namespace batch
}  // namespace flatstore

#endif  // FLATSTORE_BATCH_HB_ENGINE_H_
