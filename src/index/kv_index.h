// Common interface of every index structure in src/index.
//
// All five structures (CCEH, Level-Hashing, FAST&FAIR, FPTree, Masstree)
// map fixed 8-byte keys to 64-bit values — matching the paper's evaluation
// setup — and can be instantiated in either of two modes:
//
//  * volatile mode (`PmContext::pool == nullptr`): nodes live in DRAM and
//    no flush instructions are issued. FlatStore uses indexes this way
//    ("Since the index persistence has already been guaranteed by the
//    OpLog, we place CCEH directly in DRAM and remove all its flush
//    operations", paper §4.1).
//  * persistent mode: nodes are carved out of a PM pool through the lazy-
//    persist allocator and every structural update is flushed, exactly the
//    write-amplification behaviour §2.2 complains about. The baseline
//    engines (core/baseline.h) use this mode.
//
// Values: FlatStore packs {log entry offset, 20-bit version} into the
// value; baselines store the value-block offset. The index does not
// interpret values, except that kNoValue is reserved.

#ifndef FLATSTORE_INDEX_KV_INDEX_H_
#define FLATSTORE_INDEX_KV_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "pm/pm_pool.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

// Reserved key: never insert this key (used as the empty-slot sentinel by
// the hash structures, as in the original CCEH code which reserves INVALID).
inline constexpr uint64_t kReservedKey = ~0ull;

// Reserved value meaning "no value".
inline constexpr uint64_t kNoValue = ~0ull;

// Where an index keeps its nodes. pool == nullptr selects volatile mode.
struct PmContext {
  pm::PmPool* pool = nullptr;
  alloc::LazyAllocator* alloc = nullptr;
  int core = 0;  // allocator partition used for node allocations
  // Socket whose DRAM holds this index's volatile nodes. kSocketNone (the
  // default) keeps the index socket-agnostic — misses cost kCpuCacheMiss
  // regardless of which core probes, the historical single-socket model.
  // With a concrete socket, a probe from a core bound to another socket
  // pays the cross-socket load surcharge per node dereference;
  // kSocketInterleaved models pages striped across sockets (half the
  // surcharge on every miss — the placement-off A/B configuration).
  int home_socket = vt::kSocketNone;

  bool persistent() const { return pool != nullptr; }
  // Charges the fetch of one node/bucket line at `p`: an Optane media
  // read (through the device's bandwidth model) in persistent mode, a
  // DRAM cache miss in volatile mode. The volatile miss is amortized by
  // the active vt overlap factor (1 — i.e. unchanged — outside a batched
  // MultiGet's prefetch-interleaved probe phase); the NUMA surcharge for
  // remote-homed nodes rides inside the amortized cost.
  void ChargeNodeRead(const void* p) const {
    if (pool != nullptr) {
      pool->ChargeRead(p, 64);
    } else {
      vt::ChargeMissAt(home_socket, vt::kCpuCacheMiss);
    }
  }
  // ChargeNodeRead at full serial latency inside any overlap window: a
  // line no prefetch covered (a sibling hop, a scan's next leaf).
  void ChargeSerialNodeRead(const void* p) const {
    vt::ScopedOverlap serial(1);
    ChargeNodeRead(p);
  }
  // Flush helpers that collapse to no-ops in volatile mode.
  // fs-lint: deferred-fence(thin forwarder to the pool primitive; every caller owns its own fence placement)
  void Persist(const void* p, uint64_t len) const {
    if (pool != nullptr) pool->Persist(p, len);
  }
  void Fence() const {
    if (pool != nullptr) pool->Fence();
  }
  void PersistFence(const void* p, uint64_t len) const {
    if (pool != nullptr) pool->PersistFence(p, len);
  }
};


// A key/value pair returned by scans.
struct KvPair {
  uint64_t key;
  uint64_t value;
};

// Opaque two-phase state handed from Prefetch (or a lone probe's
// GetWithHint) to GetWithHint or Apply. One hint serves both: a write
// batch locates its keys once, at admission, and the same hint later
// carries the write. Plain POD so batches keep arrays of hints without
// allocating; field meaning is private to each index. Only the indexes
// FlatStore builds (CCEH, Masstree, FAST&FAIR) fill one; Level-Hashing
// and FPTree leave it invalid. The contract:
//  * A hint is only valid for the key it was produced for, and only
//    until the next structural mutation by any writer; every phase-B call
//    revalidates cheaply and falls back to the plain probe or write when
//    it is stale, so a stale hint costs time, never correctness.
//  * A hint may be held across a log persist (admission to Drain). In
//    that time other writers may split, resize or empty its node, so its
//    lines are no longer cached: Rewarm re-issues them and charges the
//    re-read before phase B uses the hint.
//  * Masstree and FAST&FAIR never free a node, so they may dereference
//    `node` (a leaf) at any time. CCEH frees a segment when it splits, so
//    no code may dereference a CCEH hint's `node`: it may only compare it
//    with the directory's current entry for `hash`.
struct LookupHint {
  uint64_t hash = 0;         // key hash (CCEH)
  const void* node = nullptr;  // located segment/leaf
  bool valid = false;        // phase A located something prefetchable
};

// The condition an Apply tests, under the index's write lock, against
// the key's current value `cur` (kNoValue when the key is absent) before
// it writes `desired`:
//  * kAlways — the owner's write (Put, Delete, checkpoint load);
//  * kEquals — only if `cur == expected`: the log cleaner's relocation
//    and its tombstone retirement (paper §3.4), which must lose to any
//    write of the key since their probe;
//  * kNewer — if the key is absent or `newer(desired, cur)`: recovery's
//    version duel (§3.5). The caller supplies `newer`, so an index never
//    interprets a value.
struct Cond {
  enum Kind : uint8_t { kAlways, kEquals, kNewer };
  Kind kind = kAlways;
  uint64_t expected = kNoValue;
  bool (*newer)(uint64_t a, uint64_t b) = nullptr;

  static Cond Equals(uint64_t expected) {
    return {kEquals, expected, nullptr};
  }
  static Cond Newer(bool (*newer)(uint64_t, uint64_t)) {
    return {kNewer, kNoValue, newer};
  }
  bool Holds(uint64_t cur, uint64_t desired) const {
    switch (kind) {
      case kAlways:
        return true;
      case kEquals:
        return cur == expected;
      case kNewer:
        return cur == kNoValue || newer(desired, cur);
    }
    return false;
  }
};

// Abstract point-query index.
class KvIndex {
 public:
  virtual ~KvIndex() = default;

  // The one write: under the index's write lock, locates `key`, tests
  // `cond` against its current value and, when it holds, sets `desired`
  // (inserting the key if absent) or, for `desired == kNoValue`, erases
  // the key (a no-op when absent). `*old` receives the value found, or
  // kNoValue when the key was absent, whether or not the write happened.
  // Returns true iff `cond` held. `key` must not be kReservedKey.
  //
  // `hint` comes from Prefetch or GetWithHint of the same key (phase B of
  // a write batch), or is invalid. A valid hint that is still fresh lets
  // the write skip the descent and run on warm lines, charged under the
  // caller's vt overlap window; the index revalidates it under the lock
  // (splits and resizes between the phases, or an earlier write of the
  // same batch) as GetWithHint does. An invalid or stale hint takes the
  // full locate inside a serial overlap scope, so an un-prefetched write
  // pays full miss latency and cannot free-ride on the batch. A hinted
  // write is never less correct than an unhinted one, only cheaper.
  virtual bool Apply(uint64_t key, uint64_t desired, const Cond& cond,
                     const LookupHint& hint, uint64_t* old) = 0;

  // Looks up `key`; fills `*value` and returns true if present.
  virtual bool Get(uint64_t key, uint64_t* value) const = 0;

  // ---- two-phase access (the batched read and write pipelines) ----
  //
  // Phase A: hash/route `key`, issue software prefetches for the memory
  // a probe or a write of it will touch, and record what was located in
  // `*hint`. Must not block and must not depend on the prefetched lines
  // having arrived. Base-class default: no-op (the hint stays invalid),
  // so indexes without a two-phase implementation remain correct through
  // the phase-B fallbacks.
  virtual void Prefetch(uint64_t key, LookupHint* hint) const {
    (void)key;
    hint->valid = false;
  }

  // Phase B of a read: completes the lookup of `key` with a hint from
  // Prefetch(key, hint). With a valid, still-fresh hint the probe touches
  // prefetched lines — charged as overlapped misses under the caller's vt
  // overlap window. An invalid hint is a lone probe (nothing to overlap
  // with, so nothing was prefetched): the plain Get at its full serial
  // charge, after which the indexes with a two-phase path leave `*hint`
  // holding what the probe located, so a write of the key can Rewarm it
  // instead of locating it again. Base-class default (also the stale-hint
  // fallback): a plain Get() inside a serial overlap scope, so an
  // un-prefetched probe pays full miss latency and cannot free-ride on
  // the batch; `*hint` is left as it was.
  virtual bool GetWithHint(uint64_t key, LookupHint* hint,
                           uint64_t* value) const {
    (void)hint;
    vt::ScopedOverlap serial(1);
    return Get(key, value);
  }

  // Phase A again, for a valid hint that an earlier Prefetch or
  // GetWithHint produced and that was held across a persist (a write
  // batch's admission probe, reused by Drain). Re-issues the located
  // node's prefetches without locating it again: a tree charges the
  // leaf's re-read as one node read under the caller's overlap window and
  // skips the inner levels; CCEH skips the hash, re-derives its segment
  // from `hint->hash` and refreshes `hint->node` (its bucket reads are
  // charged in phase B, as after Prefetch). Phase B revalidates as for
  // any hint. Base-class default: no-op (such an index never hands out a
  // valid hint).
  virtual void Rewarm(LookupHint* hint) const { (void)hint; }

  // Unconditional, unhinted writes. Upsert returns whether the key
  // existed, Insert whether it was new, Erase and Delete whether it was
  // present.
  bool Upsert(uint64_t key, uint64_t value, uint64_t* old_value) {
    Apply(key, value, Cond{}, LookupHint{}, old_value);
    return *old_value != kNoValue;
  }
  bool Erase(uint64_t key, uint64_t* old_value) {
    Apply(key, kNoValue, Cond{}, LookupHint{}, old_value);
    return *old_value != kNoValue;
  }
  bool Insert(uint64_t key, uint64_t value) {
    uint64_t old;
    return !Upsert(key, value, &old);
  }
  bool Delete(uint64_t key) {
    uint64_t old;
    return Erase(key, &old);
  }

  // Invokes `fn(key, value)` for every live entry, in unspecified order.
  // Not safe against concurrent mutation; used for the normal-shutdown
  // index checkpoint (paper §3.5) and by tests.
  virtual void ForEach(
      const std::function<void(uint64_t, uint64_t)>& fn) const = 0;

  // Number of live keys.
  virtual uint64_t Size() const = 0;

  // Human-readable structure name (bench output).
  virtual const char* Name() const = 0;
};

// Probes keys[i] in idx[i] for every i < n as one batch, phases A and B
// of the two-phase access: all probes under one vt overlap window of
// min(n, kMemParallelism) ways, prefetched first when there are two or
// more (a lone probe has nothing to overlap with, so its GetWithHint is
// the plain Get). found[i] and values[i] receive the outcome, and
// hints[i] (invalid on entry) what the probe located, which a write batch
// carries to its index insert. Serves every batched reader: the engine's
// reads, scans and write admission, and the log cleaner's liveness
// checks.
inline void ProbeBatch(KvIndex* const* idx, const uint64_t* keys, size_t n,
                       bool* found, uint64_t* values, LookupHint* hints) {
  vt::ScopedOverlap overlap(static_cast<int>(
      std::clamp<size_t>(n, 1, static_cast<size_t>(vt::kMemParallelism))));
  for (size_t i = 0; i < n && n > 1; i++) {
    idx[i]->Prefetch(keys[i], &hints[i]);
  }
  for (size_t i = 0; i < n; i++) {
    found[i] = idx[i]->GetWithHint(keys[i], &hints[i], &values[i]);
  }
}

// Indexes that additionally support ordered range scans.
class OrderedKvIndex : public KvIndex {
 public:
  // Appends up to `count` pairs with key >= start_key, in key order, to
  // `*out`. Returns the number appended.
  virtual uint64_t Scan(uint64_t start_key, uint64_t count,
                        std::vector<KvPair>* out) const = 0;
};

}  // namespace index
}  // namespace flatstore

#endif  // FLATSTORE_INDEX_KV_INDEX_H_
