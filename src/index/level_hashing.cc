#include "index/level_hashing.h"

#include <cstring>

#include "common/hash.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

LevelHashing::LevelHashing(const PmContext& ctx, uint32_t initial_level_bits)
    : arena_(ctx), level_bits_(initial_level_bits) {
  FLATSTORE_CHECK_GE(initial_level_bits, 2u);
  top_ = NewLevel(1ull << level_bits_);
  bottom_ = NewLevel(1ull << (level_bits_ - 1));
}

LevelHashing::Bucket* LevelHashing::NewLevel(uint64_t buckets) {
  auto* level =
      static_cast<Bucket*>(arena_.Alloc(buckets * sizeof(Bucket)));
  std::memset(level, 0xFF, buckets * sizeof(Bucket));  // keys = reserved
  return level;
}

LevelHashing::Bucket& LevelHashing::BucketAt(bool top, uint64_t h) const {
  const uint64_t mask =
      (top ? (1ull << level_bits_) : (1ull << (level_bits_ - 1))) - 1;
  return (top ? top_ : bottom_)[h & mask];
}

LevelHashing::Bucket& LevelHashing::Cand(bool top, int which,
                                         uint64_t key) const {
  return BucketAt(top, which == 0 ? HashKey(key) : HashKey2(key));
}

LevelHashing::SlotRef LevelHashing::FindSlotHashed(uint64_t key, uint64_t h1,
                                                   uint64_t h2) const {
  for (bool top : {true, false}) {
    for (uint64_t h : {h1, h2}) {
      Bucket& b = BucketAt(top, h);
      arena_.ctx().ChargeNodeRead(&b);
      for (int i = 0; i < kSlots; i++) {
        vt::Charge(vt::kCpuSlotProbe);
        if (b.keys[i] == key) return {&b, i};
      }
    }
  }
  return {};
}

LevelHashing::SlotRef LevelHashing::FindSlot(uint64_t key) const {
  vt::Charge(2 * vt::kCpuHash);
  return FindSlotHashed(key, HashKey(key), HashKey2(key));
}

bool LevelHashing::TryInsert(Bucket& bucket, uint64_t key, uint64_t value) {
  for (int i = 0; i < kSlots; i++) {
    if (bucket.keys[i] == kReservedKey) {
      bucket.values[i] = value;
      std::atomic_ref<uint64_t>(bucket.keys[i])
          .store(key, std::memory_order_release);
      arena_.ctx().PersistFence(&bucket, sizeof(Bucket));
      // relaxed: size_ is an approximate stat counter, no ordering.
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool LevelHashing::TryMove(Bucket& bucket, bool top) {
  // "Rehash the related entries when two keys conflict": relocate one
  // resident of `bucket` to its alternate bucket in the same level.
  for (int i = 0; i < kSlots; i++) {
    const uint64_t k = bucket.keys[i];
    if (k == kReservedKey) continue;
    for (int which = 0; which < 2; which++) {
      Bucket& alt = Cand(top, which, k);
      if (&alt == &bucket) continue;
      vt::Charge(vt::kCpuHash + vt::kCpuCacheMiss);
      for (int j = 0; j < kSlots; j++) {
        if (alt.keys[j] == kReservedKey) {
          // Write the copy, persist it, then delete the original — two
          // line flushes for a single conflict-triggered movement.
          alt.values[j] = bucket.values[i];
          std::atomic_ref<uint64_t>(alt.keys[j])
              .store(k, std::memory_order_release);
          arena_.ctx().PersistFence(&alt, sizeof(Bucket));
          std::atomic_ref<uint64_t>(bucket.keys[i])
              .store(kReservedKey, std::memory_order_release);
          arena_.ctx().PersistFence(&bucket.keys[i], 8);
          return true;
        }
      }
    }
  }
  return false;
}

bool LevelHashing::ApplyNoResize(uint64_t key, uint64_t desired,
                                 const Cond& cond, uint64_t* old,
                                 bool* held) {
  vt::Charge(2 * vt::kCpuHash);
  const uint64_t h1 = HashKey(key);
  const uint64_t h2 = HashKey2(key);
  SlotRef ref = FindSlotHashed(key, h1, h2);
  *old = ref.bucket != nullptr ? ref.bucket->values[ref.slot] : kNoValue;
  *held = cond.Holds(*old, desired);
  if (!*held) return true;
  if (ref.bucket != nullptr && desired == kNoValue) {
    std::atomic_ref<uint64_t>(ref.bucket->keys[ref.slot])
        .store(kReservedKey, std::memory_order_release);
    arena_.ctx().PersistFence(&ref.bucket->keys[ref.slot], 8);
    // relaxed: size_ is an approximate stat counter, no ordering.
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  if (ref.bucket != nullptr) {
    // In-place update.
    std::atomic_ref<uint64_t>(ref.bucket->values[ref.slot])
        .store(desired, std::memory_order_release);
    arena_.ctx().PersistFence(&ref.bucket->values[ref.slot], 8);
    return true;
  }
  if (desired == kNoValue) return true;  // nothing to erase
  // Top candidates first (reads prefer the top level), then bottom.
  for (bool top : {true, false}) {
    for (uint64_t h : {h1, h2}) {
      if (TryInsert(BucketAt(top, h), key, desired)) return true;
    }
  }
  // Conflict: movement within each candidate bucket's level.
  for (bool top : {true, false}) {
    for (uint64_t h : {h1, h2}) {
      Bucket& b = BucketAt(top, h);
      if (TryMove(b, top) && TryInsert(b, key, desired)) return true;
    }
  }
  return false;
}

bool LevelHashing::Apply(uint64_t key, uint64_t desired, const Cond& cond,
                         const LookupHint& hint, uint64_t* old) {
  FLATSTORE_DCHECK(key != kReservedKey);
  (void)hint;  // never valid: Level-Hashing has no two-phase path
  vt::ScopedOverlap serial(1);
  // A conditional write is charged as a CAS on top of the plain one.
  if (cond.kind != Cond::kAlways) vt::Charge(vt::kCpuCas);
  LockGuard<SpinLock> g(mutate_lock_);
  bool held;
  while (!ApplyNoResize(key, desired, cond, old, &held)) Resize();
  return held;
}

void LevelHashing::Resize() {
  // New top with 2^(bits+1) buckets; old top becomes the bottom; the old
  // bottom's entries are rehashed into the new structure.
  resizes_++;
  Bucket* old_bottom = bottom_;
  const uint64_t old_bottom_buckets = 1ull << (level_bits_ - 1);
  level_bits_++;
  bottom_ = top_;
  top_ = NewLevel(1ull << level_bits_);

  for (uint64_t b = 0; b < old_bottom_buckets; b++) {
    for (int i = 0; i < kSlots; i++) {
      const uint64_t k = old_bottom[b].keys[i];
      if (k == kReservedKey) continue;
      // relaxed: size_ is an approximate stat counter, no ordering.
      size_.fetch_sub(1, std::memory_order_relaxed);  // re-counted below
      vt::Charge(vt::kCpuCacheMiss);
      uint64_t unused_old;
      bool unused_held;
      bool ok = ApplyNoResize(k, old_bottom[b].values[i], Cond{},
                              &unused_old, &unused_held);
      // The new table has 3x the old capacity; rehash cannot fail.
      FLATSTORE_CHECK(ok);
    }
  }
  arena_.Free(old_bottom);
}

void LevelHashing::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  const uint64_t top_n = 1ull << level_bits_;
  for (uint64_t b = 0; b < top_n + top_n / 2; b++) {
    const Bucket& bucket = b < top_n ? top_[b] : bottom_[b - top_n];
    for (int i = 0; i < kSlots; i++) {
      if (bucket.keys[i] != kReservedKey) fn(bucket.keys[i], bucket.values[i]);
    }
  }
}

bool LevelHashing::Get(uint64_t key, uint64_t* value) const {
  SlotRef ref = FindSlot(key);
  if (ref.bucket == nullptr) return false;
  *value = std::atomic_ref<uint64_t>(ref.bucket->values[ref.slot])
               .load(std::memory_order_acquire);
  return true;
}

}  // namespace index
}  // namespace flatstore
