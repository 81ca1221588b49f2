#include "batch/hb_engine.h"

#include <algorithm>
#include <cstring>

#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace batch {

const char* BatchModeName(BatchMode mode) {
  switch (mode) {
    case BatchMode::kNone:
      return "none";
    case BatchMode::kVertical:
      return "vertical";
    case BatchMode::kNaiveHB:
      return "naive-hb";
    case BatchMode::kPipelinedHB:
      return "pipelined-hb";
  }
  return "?";
}

HbEngine::HbEngine(std::vector<log::OpLog*> logs, int group_size,
                   BatchMode mode)
    : logs_(std::move(logs)), group_size_(group_size), mode_(mode) {
  FLATSTORE_CHECK(!logs_.empty());
  FLATSTORE_CHECK_GE(group_size_, 1);
  pools_ = std::vector<CorePool>(logs_.size());
  const size_t ngroups =
      (logs_.size() + static_cast<size_t>(group_size_) - 1) /
      static_cast<size_t>(group_size_);
  for (size_t g = 0; g < ngroups; g++) {
    groups_.push_back(std::make_unique<Group>());
  }
}

FS_HOT bool HbEngine::StageBatch(int core, const log::OpLog::EntryRef* entries,
                                 size_t n, uint64_t* handles) {
  FLATSTORE_DCHECK(n >= 1 && n <= kMaxBatch);
  CorePool& pool = pools_[core];
  // relaxed: head has a single writer — this core's serving thread.
  const uint64_t h = pool.head.load(std::memory_order_relaxed);
  // All-or-nothing admission: a partially staged group would lose the
  // single-reservation / single-fence-pair property.
  for (size_t i = 0; i < n; i++) {
    if (pool.slots[(h + i) % kPoolSlots].state.load(
            std::memory_order_acquire) != kFree) {
      return false;
    }
  }
  const uint64_t now = vt::Now();
  for (size_t i = 0; i < n; i++) {
    Slot& slot = pool.slots[(h + i) % kPoolSlots];
    FLATSTORE_DCHECK(entries[i].len <= log::kMaxEntrySize);
    std::memcpy(slot.buf, entries[i].data, entries[i].len);
    slot.len = entries[i].len;
    // One stage instant for the whole group: the collector's arrival
    // cutoff can never cut a fused group in half.
    slot.stage_time = now;
    slot.fuse = i == 0 ? static_cast<uint32_t>(n) : 1;
    slot.state.store(kStaged, std::memory_order_release);
    handles[i] = h + i;
    vt::Charge(vt::kPoolOpCost);
  }
  pool.head.store(h + n, std::memory_order_release);
  // relaxed: stat counters, ordering irrelevant.
  fused_groups_.fetch_add(1, std::memory_order_relaxed);
  fused_entries_.fetch_add(n, std::memory_order_relaxed);
  return true;
}

FS_HOT void HbEngine::Collect(int core, uint64_t now,
                              log::OpLog::EntryRef* refs, Slot** claims,
                              size_t* n) {
  CorePool& pool = pools_[core];
  const uint64_t head = pool.head.load(std::memory_order_acquire);
  // relaxed: collected is written only under the group lock (HB modes) or
  // by the owning core (vertical/none); this caller is that writer, so it
  // reads its own — or its lock predecessor's — store.
  uint64_t collected = pool.collected.load(std::memory_order_relaxed);
  if (collected == head) return;  // idle scan: free (event-driven sim)
  vt::Charge(vt::kStealScanCost);
  while (collected < head && *n < kMaxBatch) {
    Slot& slot = pool.slots[collected % kPoolSlots];
    // relaxed: debug-only sanity check; the acquire on head above already
    // ordered the slot contents.
    FLATSTORE_DCHECK(slot.state.load(std::memory_order_relaxed) == kStaged);
    if (slot.stage_time > now) break;  // staged in this core's future
    // Never split a fused group (StageBatch) across leader batches: the
    // whole group must land in one AppendBatch or its single-fence-pair
    // crash contract is void. fuse <= kMaxBatch, so an empty batch always
    // has room and this cannot stall.
    const uint32_t fuse = slot.fuse;
    if (static_cast<size_t>(fuse) > kMaxBatch - *n) break;
    for (uint32_t i = 0; i < fuse; i++) {
      Slot& s = pool.slots[collected % kPoolSlots];
      refs[*n] = {s.buf, s.len};
      claims[*n] = &s;
      (*n)++;
      collected++;
      vt::Charge(vt::kPoolOpCost);
    }
  }
  // relaxed: see the load above — the next reader is the next leader
  // (ordered by the group lock) or the owner itself; lock-free readers
  // (PendingCount) use it only as an election heuristic.
  pool.collected.store(collected, std::memory_order_relaxed);
}

FS_HOT uint64_t HbEngine::EarliestStaged(int core) const {
  const CorePool& pool = pools_[core];
  const uint64_t head = pool.head.load(std::memory_order_acquire);
  // relaxed: stale reads only delay a steal by one scan; the group lock
  // orders the authoritative read in Collect.
  const uint64_t collected = pool.collected.load(std::memory_order_relaxed);
  if (collected == head) return UINT64_MAX;
  return pool.slots[collected % kPoolSlots].stage_time;
}

size_t HbEngine::Commit(int core, const log::OpLog::EntryRef* refs,
                        Slot* const* claims, size_t n, uint64_t* offsets) {
  if (n == 0) return 0;
  bool ok = logs_[core]->AppendBatch(refs, n, offsets);
  FLATSTORE_CHECK(ok) << "PM exhausted while appending a batch";
  const uint64_t done = vt::Now();
  for (size_t i = 0; i < n; i++) {
    claims[i]->entry_off = offsets[i];
    claims[i]->done_time = done;
    claims[i]->state.store(kDone, std::memory_order_release);
  }
  // relaxed: stat counters, ordering irrelevant.
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_entries_.fetch_add(n, std::memory_order_relaxed);
  // relaxed: stat counter; only this core's serving thread writes it.
  pools_[core].led.fetch_add(1, std::memory_order_relaxed);
  return n;
}

FS_HOT size_t HbEngine::TryPersist(int core) {
  // Leader scratch lives in the core's own pool: only the owning serving
  // thread runs TryPersist for `core`, and the hot loop stays heap-free.
  CorePool& mine = pools_[core];
  log::OpLog::EntryRef* refs = mine.refs;
  Slot** claims = mine.claims;
  size_t nref = 0;

  vt::Clock* clock = vt::CurrentClock();
  if (mode_ == BatchMode::kNone) {
    // No batching at all (the ablation "Base"): each staged entry is
    // appended and fenced on its own, at or after its staging instant.
    size_t n = 0;
    while (true) {
      const uint64_t t = EarliestStaged(core);
      if (t == UINT64_MAX) break;
      if (clock != nullptr) clock->AdvanceTo(t);
      nref = 0;
      Collect(core, t, refs, claims, &nref);
      for (size_t i = 0; i < nref; i++) {
        n += Commit(core, &refs[i], &claims[i], 1, &mine.offsets[i]);
      }
    }
    return n;
  }
  if (mode_ == BatchMode::kVertical) {
    // Self-batching only — Fig. 4(b): the core waits for its own
    // requests; the batch covers what arrived by then.
    const uint64_t t = EarliestStaged(core);
    if (t == UINT64_MAX) return 0;
    if (clock != nullptr) clock->AdvanceTo(t);
    Collect(core, vt::Now(), refs, claims, &nref);
    return Commit(core, refs, claims, nref, mine.offsets);
  }

  Group& group = *groups_[core / group_size_];
  const int first_core = (core / group_size_) * group_size_;
  const int last =
      std::min(first_core + group_size_, static_cast<int>(logs_.size()));
  {
    // Leadership goes round-robin from the baton (`next_leader`) to the
    // first idle core of the group, and only when no core is idle to the
    // first core with staged work. An idle core has time to spare, so it
    // persists the busy cores' entries in their place: "those non-busy
    // cores have higher opportunity to become the leader, and help the
    // busy cores flush the log entries" (paper §3.3). The rule is
    // deterministic, so neither host-thread scheduling nor dispatch order
    // picks which core's virtual clock absorbs the persists. Idleness is
    // read from every core's clock at this instant (vt::CoreIdle; no core
    // is idle unless a co-simulation bound the clocks), so the election
    // never acts on a mark the core has since outgrown. Turns with nothing
    // staged in the group are free: a spinning host thread must not
    // advance simulated time or take the group lock.
    const int gsize = last - first_core;
    // relaxed: leadership preference is a heuristic; any stale value
    // still yields exactly one leader via the try_lock below.
    const int designated =
        group.next_leader.load(std::memory_order_relaxed);
    int idle_core = -1, stager = -1;
    for (int i = 0; i < gsize; i++) {
      const int cand = first_core + (designated + i) % gsize;
      if (idle_core < 0 && vt::CoreIdle(cand)) idle_core = cand;
      if (stager < 0 && PendingCount(cand) > 0) stager = cand;
    }
    if (stager < 0) return 0;  // nothing staged in the group
    if ((idle_core >= 0 ? idle_core : stager) != core) return 0;
  }
  if (!group.lock.try_lock()) {
    // Follower: keep processing new requests (pipelining); completion
    // arrives through the slot.
    return 0;
  }
  vt::Charge(vt::kCpuCas);

  // The leader can only steal entries that exist by its clock (stage_time
  // <= now): batch composition must reflect simulated arrival order.
  // A leader with nothing collectible at its own clock — an idle core
  // behind the stagers — waits until the earliest staged entry and takes
  // it; the wait is idle time on its clock. A core that leads because it
  // staged work always collects its own entries, so only idle leaders
  // wait. (Collection mutual exclusion is not transferred between
  // per-core clocks: clocks drift apart by more than a collection takes,
  // and chaining through a shared busy timestamp would ratchet every core
  // to the maximum clock — false serialization.)
  for (int c = first_core; c < last && nref < kMaxBatch; c++) {
    Collect(c, vt::Now(), refs, claims, &nref);
  }
  if (nref == 0 && clock != nullptr) {
    uint64_t earliest = UINT64_MAX;
    for (int c = first_core; c < last; c++) {
      earliest = std::min(earliest, EarliestStaged(c));
    }
    if (earliest != UINT64_MAX) {
      clock->WaitUntil(earliest);
      for (int c = first_core; c < last && nref < kMaxBatch; c++) {
        Collect(c, vt::Now(), refs, claims, &nref);
      }
    }
  }
  if (nref == 0) {
    // Nothing collectible at this leader's clock.
    group.lock.unlock();
    return 0;
  }
  // Pass the leadership baton.
  // relaxed: written under the group lock; readers treat it as a hint.
  group.next_leader.store((core - first_core + 1) % (last - first_core),
                          std::memory_order_relaxed);

  if (mode_ == BatchMode::kPipelinedHB) {
    // Release the lock *before* persisting: the log-persist cost moves
    // out of the critical section and adjacent batches pipeline.
    group.lock.unlock();
    return Commit(core, refs, claims, nref, mine.offsets);
  }

  // Naive HB: the lock covers the persist (Fig. 4(c)).
  size_t n = Commit(core, refs, claims, nref, mine.offsets);
  group.lock.unlock();
  return n;
}

FS_HOT bool HbEngine::IsDone(int core, uint64_t handle, uint64_t* entry_off,
                             uint64_t* done_time) const {
  const Slot& slot = pools_[core].slots[handle % kPoolSlots];
  if (slot.state.load(std::memory_order_acquire) != kDone) return false;
  *entry_off = slot.entry_off;
  *done_time = slot.done_time;
  return true;
}

FS_HOT void HbEngine::Release(int core, uint64_t handle) {
  Slot& slot = pools_[core].slots[handle % kPoolSlots];
  // relaxed: debug-only owner-side check; the caller already observed
  // kDone through IsDone's acquire.
  FLATSTORE_DCHECK(slot.state.load(std::memory_order_relaxed) == kDone);
  slot.state.store(kFree, std::memory_order_release);
}

FS_HOT size_t HbEngine::PendingCount(int core) const {
  const CorePool& pool = pools_[core];
  // relaxed: election heuristic — a stale count only shifts which core
  // volunteers first; correctness comes from the group lock.
  return pool.head.load(std::memory_order_relaxed) -
         pool.collected.load(std::memory_order_relaxed);
}

}  // namespace batch
}  // namespace flatstore
