#include "index/cceh.h"

#include <cstring>

#include "common/hash.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

namespace {
// Buckets are selected from the hash LSBs, segments from the MSBs, so the
// two choices stay independent while the directory grows.
uint32_t BucketIndex(uint64_t hash, uint32_t i) {
  return (static_cast<uint32_t>(hash & 0xFFFFFF) + i) % 255u;
}
}  // namespace

Cceh::Cceh(const PmContext& ctx, uint32_t initial_depth) : arena_(ctx) {
  FLATSTORE_CHECK_LE(initial_depth, 28u);
  dirs_.push_back(std::make_unique<Directory>(initial_depth));
  for (auto& entry : dirs_.back()->entries) {
    // Pairs of directory entries initially share a segment only if we
    // created fewer segments than entries; here: one segment per entry.
    // relaxed: the directory's release store below publishes them.
    entry.store(NewSegment(initial_depth), std::memory_order_relaxed);
  }
  dir_.store(dirs_.back().get(), std::memory_order_release);
}

Cceh::Segment* Cceh::NewSegment(uint32_t local_depth) {
  auto* seg = static_cast<Segment*>(arena_.Alloc(sizeof(Segment)));
  seg->local_depth = local_depth;
  std::memset(seg->buckets, 0xFF, sizeof(seg->buckets));  // keys = reserved
  return seg;
}

uint64_t Cceh::segment_count() const {
  // Distinct segments in the directory.
  uint64_t n = 0;
  const Segment* prev = nullptr;
  for (const auto& entry : Dir().entries) {
    const Segment* s = entry.load(std::memory_order_acquire);
    if (s != prev) n++;
    prev = s;
  }
  return n;
}

Cceh::SlotRef Cceh::FindSlot(uint64_t key, uint64_t hash) const {
  Segment* seg = SegmentFor(hash);
  vt::Charge(vt::kCpuSlotProbe);  // directory lookup (cached)
  for (int b = 0; b < kProbeBuckets; b++) {
    Bucket& bucket =
        seg->buckets[BucketIndex(hash, static_cast<uint32_t>(b))];
    arena_.ctx().ChargeNodeRead(&bucket);  // fetch bucket line
    for (int i = 0; i < kSlots; i++) {
      vt::Charge(vt::kCpuSlotProbe);
      if (std::atomic_ref<uint64_t>(bucket.keys[i])
              .load(std::memory_order_acquire) == key) {
        return {&bucket, i};
      }
    }
  }
  return {};
}

bool Cceh::Apply(uint64_t key, uint64_t desired, const Cond& cond,
                 const LookupHint& hint, uint64_t* old) {
  FLATSTORE_DCHECK(key != kReservedKey);
  // A conditional write is charged as a CAS on top of the plain one.
  if (cond.kind != Cond::kAlways) vt::Charge(vt::kCpuCas);
  LockGuard<SpinLock> g(mutate_lock_);
  // A split between the phases moves the directory entry off the hinted
  // segment; revalidate under the lock (an earlier write of the same
  // batch may have split) and fall back to the serial full write.
  if (hint.valid && SegmentFor(hint.hash) == hint.node) {
    return ApplyLocked(key, desired, cond, hint.hash, old);
  }
  vt::ScopedOverlap serial(1);
  vt::Charge(vt::kCpuHash);
  return ApplyLocked(key, desired, cond, HashKey(key), old);
}

bool Cceh::ApplyLocked(uint64_t key, uint64_t desired, const Cond& cond,
                       uint64_t hash, uint64_t* old) {
  while (true) {
    SlotRef ref = FindSlot(key, hash);
    *old = ref.bucket != nullptr ? ref.bucket->values[ref.slot] : kNoValue;
    if (!cond.Holds(*old, desired)) return false;
    if (ref.bucket != nullptr && desired == kNoValue) {
      std::atomic_ref<uint64_t>(ref.bucket->keys[ref.slot])
          .store(kReservedKey, std::memory_order_release);
      // A reader that matched the key before the erase may load the value
      // of a key inserted into the slot next; moving the sequence after
      // the erase makes that reader retry.
      seq_.fetch_add(2, std::memory_order_release);
      arena_.ctx().PersistFence(&ref.bucket->keys[ref.slot], 8);
      // relaxed: size_ is an approximate stat counter, no ordering.
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (ref.bucket != nullptr) {
      std::atomic_ref<uint64_t>(ref.bucket->values[ref.slot])
          .store(desired, std::memory_order_release);
      // In-place overwrite: one line flushed, repeatedly for hot keys.
      arena_.ctx().PersistFence(&ref.bucket->values[ref.slot], 8);
      return true;
    }
    if (desired == kNoValue) return true;  // nothing to erase

    // Fresh insert into the probe window.
    if (Bucket* bucket = TryPlace(SegmentFor(hash), hash, key, desired)) {
      arena_.ctx().PersistFence(bucket, sizeof(Bucket));
      // relaxed: size_ is an approximate stat counter, no ordering.
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }

    // Probe window exhausted: split and retry. Readers that overlap the
    // split (the sequence is odd, or moved) retry their probe.
    seq_.fetch_add(1, std::memory_order_acq_rel);
    Split(hash);
    seq_.fetch_add(1, std::memory_order_release);
  }
}

Cceh::Bucket* Cceh::TryPlace(Segment* seg, uint64_t hash, uint64_t key,
                             uint64_t value) {
  for (int b = 0; b < kProbeBuckets; b++) {
    Bucket& nb = seg->buckets[BucketIndex(hash, static_cast<uint32_t>(b))];
    for (int j = 0; j < kSlots; j++) {
      if (nb.keys[j] == kReservedKey) {
        // release: a reader whose value load sees it also sees the
        // sequence move of the slot's erase (StableGet); the key's
        // release store publishes the value.
        std::atomic_ref<uint64_t>(nb.values[j])
            .store(value, std::memory_order_release);
        std::atomic_ref<uint64_t>(nb.keys[j])
            .store(key, std::memory_order_release);
        return &nb;
      }
    }
  }
  return nullptr;
}

void Cceh::Split(uint64_t hash) {
  Segment* old = SegmentFor(hash);
  const uint32_t ld = old->local_depth;

  if (ld == Dir().depth) {
    // Directory doubling: a fresh directory, published whole.
    const Directory& cur = Dir();
    vt::Charge(vt::CostMemcpy(cur.entries.size() * 8));
    auto bigger = std::make_unique<Directory>(cur.depth + 1);
    for (uint64_t i = 0; i < cur.entries.size(); i++) {
      // relaxed: only this writer stores entries, and the directory's
      // release store below publishes the copies.
      Segment* s = cur.entries[i].load(std::memory_order_relaxed);
      bigger->entries[2 * i].store(s, std::memory_order_relaxed);
      bigger->entries[2 * i + 1].store(s, std::memory_order_relaxed);
    }
    dir_.store(bigger.get(), std::memory_order_release);
    dirs_.push_back(std::move(bigger));
  }
  Directory& dir = *dirs_.back();

  Segment* s0 = NewSegment(ld + 1);
  Segment* s1 = NewSegment(ld + 1);

  // Point the directory range at the two children first, so the
  // redistribution below can resolve through SegmentFor and recurse into
  // a further split if a probe window overflows (rare, but linear
  // probing placement is order sensitive, so it can happen).
  const uint64_t stride = 1ull << (dir.depth - ld);
  const uint64_t base = dir.IndexOf(hash) & ~(stride - 1);
  for (uint64_t i = 0; i < stride; i++) {
    dir.entries[base + i].store(i < stride / 2 ? s0 : s1,
                                std::memory_order_release);
  }

  for (Bucket& bucket : old->buckets) {
    for (int i = 0; i < kSlots; i++) {
      if (bucket.keys[i] == kReservedKey) continue;
      const uint64_t k = bucket.keys[i];
      const uint64_t h = HashKey(k);
      vt::Charge(vt::kCpuHash + vt::kCpuSlotProbe);
      while (TryPlace(SegmentFor(h), h, k, bucket.values[i]) == nullptr) {
        Split(h);  // cascaded split (bounded by the hash width)
      }
    }
  }

  // Persistent mode: the rehash writes both children entirely — the split
  // write amplification the paper attributes to CCEH.
  arena_.ctx().Persist(s0, sizeof(Segment));
  arena_.ctx().Persist(s1, sizeof(Segment));
  arena_.ctx().Fence();
  arena_.Free(old);
}

void Cceh::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  const Segment* prev = nullptr;
  for (const auto& entry : Dir().entries) {
    const Segment* seg = entry.load(std::memory_order_acquire);
    if (seg == prev) continue;  // directory entries sharing a segment
    prev = seg;
    for (const Bucket& bucket : seg->buckets) {
      for (int i = 0; i < kSlots; i++) {
        if (bucket.keys[i] != kReservedKey) {
          fn(bucket.keys[i], bucket.values[i]);
        }
      }
    }
  }
}

bool Cceh::StableGet(uint64_t key, uint64_t hash, uint64_t* value) const {
  while (true) {
    const uint64_t seq = seq_.load(std::memory_order_acquire);
    const SlotRef ref = FindSlot(key, hash);
    if (ref.bucket != nullptr) {
      *value = std::atomic_ref<uint64_t>(ref.bucket->values[ref.slot])
                   .load(std::memory_order_acquire);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    // relaxed: the acquire fence above orders the probe's loads before it.
    if (seq % 2 == 0 && seq_.load(std::memory_order_relaxed) == seq) {
      return ref.bucket != nullptr;
    }
  }
}

bool Cceh::Get(uint64_t key, uint64_t* value) const {
  vt::Charge(vt::kCpuHash);
  return StableGet(key, HashKey(key), value);
}

void Cceh::Locate(LookupHint* hint) const {
  Segment* seg = SegmentFor(hint->hash);
  vt::Charge(vt::kCpuSlotProbe);  // directory lookup (cached)
  for (uint32_t b = 0; b < kProbeBuckets; b++) {
    __builtin_prefetch(&seg->buckets[BucketIndex(hint->hash, b)], 0, 3);
  }
  vt::Charge(kProbeBuckets * vt::kPrefetchIssueCost);
  hint->node = seg;
  hint->valid = true;
}

void Cceh::Prefetch(uint64_t key, LookupHint* hint) const {
  vt::Charge(vt::kCpuHash);
  hint->hash = HashKey(key);
  Locate(hint);
}

void Cceh::Rewarm(LookupHint* hint) const {
  // The hinted segment may have split, and been freed, since the hint
  // was made: never touch it, re-derive the current one from the hash.
  Locate(hint);
}

bool Cceh::GetWithHint(uint64_t key, LookupHint* hint,
                       uint64_t* value) const {
  if (!hint->valid) {
    // A lone probe: the plain Get at full latency, recording the hash and
    // the segment it resolved.
    vt::ScopedOverlap serial(1);
    vt::Charge(vt::kCpuHash);
    hint->hash = HashKey(key);
    hint->node = SegmentFor(hint->hash);
    hint->valid = true;
    return StableGet(key, hint->hash, value);
  }
  // A split between the phases moves the directory entry off the hinted
  // segment (only the single writer splits, so within one MultiGet batch
  // this never fires); stale hints take the serial fallback.
  if (SegmentFor(hint->hash) != hint->node) {
    return KvIndex::GetWithHint(key, hint, value);
  }
  return StableGet(key, hint->hash, value);  // hash charged in phase A
}

}  // namespace index
}  // namespace flatstore
