#include "index/fptree.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

FpTree::FpTree(const PmContext& ctx) : arena_(ctx) {
  root_ = NewLeaf();
  height_ = 1;
}

FpTree::Leaf* FpTree::NewLeaf() {
  auto* l = static_cast<Leaf*>(arena_.Alloc(sizeof(Leaf)));
  l->bitmap = 0;
  l->next = nullptr;
  std::memset(l->fps, 0, sizeof(l->fps));
  return l;
}

FpTree::Inner* FpTree::NewInner(uint32_t level) {
  inner_pool_.push_back(std::make_unique<Inner>());
  Inner* n = inner_pool_.back().get();
  n->level = level;
  n->count = 0;
  n->leftmost = nullptr;
  return n;
}

namespace {
// First entry with key >= `key` in a sorted inner node.
template <typename NodeT>
int InnerLowerBound(const NodeT* n, uint64_t key) {
  int i = 0;
  while (i < static_cast<int>(n->count) && n->entries[i].key <= key) {
    vt::Charge(vt::kCpuSlotProbe);
    i++;
  }
  return i;  // child index: 0 => leftmost, else entries[i-1].child
}
}  // namespace

FpTree::Leaf* FpTree::FindLeaf(uint64_t key) const {
  const void* n = root_;
  for (uint32_t h = height_; h > 1; h--) {
    vt::Charge(vt::kCpuCacheMiss);
    const Inner* inner = static_cast<const Inner*>(n);
    int i = InnerLowerBound(inner, key);
    n = i == 0 ? inner->leftmost : inner->entries[i - 1].child;
  }
  arena_.ctx().ChargeNodeRead(n);  // leaf header line lives in PM
  return const_cast<Leaf*>(static_cast<const Leaf*>(n));
}

int FpTree::FindInLeaf(const Leaf* l, uint64_t key, uint8_t fp) {
  for (int i = 0; i < kLeafSlots; i++) {
    if ((l->bitmap >> i) & 1) {
      vt::Charge(vt::kCpuSlotProbe);  // fingerprint compare
      if (l->fps[i] == fp && l->entries[i].key == key) {
        vt::Charge(vt::kCpuCacheMiss);  // entry line
        return i;
      }
    }
  }
  return -1;
}

int FpTree::FreeSlot(const Leaf* l) {
  uint64_t free = ~l->bitmap & ((1ull << kLeafSlots) - 1);
  return free == 0 ? -1 : __builtin_ctzll(free);
}

FpTree::Leaf* FpTree::SplitLeaf(Leaf* leaf, uint64_t* up_key) {
  // Collect live entries and take the median as separator (the original
  // scans the unsorted leaf for the median key).
  std::vector<std::pair<uint64_t, int>> live;  // (key, slot)
  for (int i = 0; i < kLeafSlots; i++) {
    if ((leaf->bitmap >> i) & 1) live.push_back({leaf->entries[i].key, i});
  }
  vt::Charge(vt::kCpuSlotProbe * static_cast<uint64_t>(live.size()));
  std::nth_element(
      live.begin(), live.begin() + static_cast<long>(live.size()) / 2,
      live.end());
  const size_t mid = live.size() / 2;
  *up_key = live[mid].first;

  Leaf* right = NewLeaf();
  uint64_t cleared = leaf->bitmap;
  int slot = 0;
  for (size_t i = mid; i < live.size(); i++) {
    right->entries[slot] = leaf->entries[live[i].second];
    right->fps[slot] = leaf->fps[live[i].second];
    right->bitmap |= (1ull << slot);
    cleared &= ~(1ull << live[i].second);
    slot++;
  }
  vt::Charge(vt::CostMemcpy(static_cast<uint64_t>(slot) * 16));
  right->next = leaf->next;
  // Commit order: new leaf fully persistent -> link -> shrink old bitmap.
  arena_.ctx().Persist(right, sizeof(Leaf));
  arena_.ctx().Fence();
  leaf->next = right;
  arena_.ctx().PersistFence(&leaf->next, 8);
  leaf->bitmap = cleared;
  arena_.ctx().PersistFence(&leaf->bitmap, 8);
  return right;
}

void FpTree::InsertInner(uint64_t up_key, void* right,
                         const std::vector<Inner*>& path) {
  void* carry_child = right;
  uint64_t carry_key = up_key;
  // Walk the path bottom-up inserting the separator; split volatile inner
  // nodes as needed (no flushes: inner nodes are DRAM-only by design).
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    Inner* n = *it;
    int pos = 0;
    while (pos < static_cast<int>(n->count) && n->entries[pos].key < carry_key) {
      pos++;
    }
    if (static_cast<int>(n->count) < kInnerCard) {
      for (int i = static_cast<int>(n->count); i > pos; i--) {
        n->entries[i] = n->entries[i - 1];
      }
      n->entries[pos] = {carry_key, carry_child};
      n->count++;
      return;
    }
    // Split the inner node.
    Inner* sib = NewInner(n->level);
    const int half = kInnerCard / 2;
    uint64_t mid_key = n->entries[half].key;
    sib->leftmost = n->entries[half].child;
    sib->count = static_cast<uint32_t>(kInnerCard - half - 1);
    std::memcpy(sib->entries, &n->entries[half + 1],
                sizeof(Inner::Entry) * sib->count);
    n->count = static_cast<uint32_t>(half);
    // Place the carried separator in the proper half.
    Inner* target = carry_key < mid_key ? n : sib;
    int p = 0;
    while (p < static_cast<int>(target->count) &&
           target->entries[p].key < carry_key) {
      p++;
    }
    for (int i = static_cast<int>(target->count); i > p; i--) {
      target->entries[i] = target->entries[i - 1];
    }
    target->entries[p] = {carry_key, carry_child};
    target->count++;
    carry_key = mid_key;
    carry_child = sib;
  }
  // Root overflow: new root.
  Inner* new_root = NewInner(height_);
  new_root->leftmost = root_;
  new_root->entries[0] = {carry_key, carry_child};
  new_root->count = 1;
  root_ = new_root;
  height_++;
}

bool FpTree::Apply(uint64_t key, uint64_t desired, const Cond& cond,
                   const LookupHint& hint, uint64_t* old) {
  FLATSTORE_DCHECK(key != kReservedKey);
  (void)hint;  // never valid: FPTree has no two-phase path
  vt::ScopedOverlap serial(1);
  LockGuard<SharedMutex> g(rw_lock_);
  vt::Charge(vt::kCpuHash + vt::kCpuCas);
  const uint8_t fp = Fingerprint8(key);

  while (true) {
    std::vector<Inner*> path;
    void* n = root_;
    for (uint32_t h = height_; h > 1; h--) {
      vt::Charge(vt::kCpuCacheMiss);
      Inner* inner = static_cast<Inner*>(n);
      path.push_back(inner);
      int i = InnerLowerBound(inner, key);
      n = i == 0 ? inner->leftmost : inner->entries[i - 1].child;
    }
    Leaf* leaf = static_cast<Leaf*>(n);
    arena_.ctx().ChargeNodeRead(leaf);

    const int existing = FindInLeaf(leaf, key, fp);
    *old = existing >= 0 ? leaf->entries[existing].value : kNoValue;
    if (!cond.Holds(*old, desired)) return false;
    if (desired == kNoValue) {
      if (existing >= 0) {
        leaf->bitmap &= ~(1ull << existing);
        arena_.ctx().PersistFence(&leaf->bitmap, 8);
        size_--;
      }
      return true;
    }
    int free = FreeSlot(leaf);
    if (free < 0) {
      uint64_t up;
      Leaf* right = SplitLeaf(leaf, &up);
      InsertInner(up, right, path);
      continue;  // re-descend (path/root may have changed)
    }

    // Write the new entry out-of-place, persist it, then commit via one
    // bitmap-word store (clearing the old slot for updates).
    leaf->entries[free] = {key, desired};
    leaf->fps[free] = fp;
    arena_.ctx().Persist(&leaf->entries[free], 16);
    uint64_t bm = leaf->bitmap | (1ull << free);
    if (existing >= 0) bm &= ~(1ull << existing);
    leaf->bitmap = bm;
    // Header line: bitmap + fingerprints share the first cacheline.
    arena_.ctx().Persist(leaf, 64);
    arena_.ctx().Fence();
    if (existing < 0) size_++;
    return true;
  }
}

bool FpTree::Get(uint64_t key, uint64_t* value) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  vt::Charge(vt::kCpuHash);
  const Leaf* leaf = FindLeaf(key);
  int i = FindInLeaf(leaf, key, Fingerprint8(key));
  if (i < 0) return false;
  *value = leaf->entries[i].value;
  return true;
}

void FpTree::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  for (const Leaf* leaf = FindLeaf(0); leaf != nullptr; leaf = leaf->next) {
    for (int i = 0; i < kLeafSlots; i++) {
      if ((leaf->bitmap >> i) & 1) {
        fn(leaf->entries[i].key, leaf->entries[i].value);
      }
    }
  }
}

uint64_t FpTree::Scan(uint64_t start_key, uint64_t count,
                      std::vector<KvPair>* out) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  uint64_t n = 0;
  const Leaf* leaf = FindLeaf(start_key);
  while (leaf != nullptr && n < count) {
    // Leaves are unsorted: sort a local copy of each visited leaf.
    std::vector<KvPair> local;
    for (int i = 0; i < kLeafSlots; i++) {
      if ((leaf->bitmap >> i) & 1 && leaf->entries[i].key >= start_key) {
        local.push_back({leaf->entries[i].key, leaf->entries[i].value});
      }
    }
    std::sort(local.begin(), local.end(),
              [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
    arena_.ctx().ChargeNodeRead(leaf);
    vt::Charge(vt::kCpuSlotProbe * static_cast<uint64_t>(kLeafSlots));
    for (const KvPair& p : local) {
      if (n >= count) break;
      out->push_back(p);
      n++;
    }
    leaf = leaf->next;
  }
  return n;
}


}  // namespace index
}  // namespace flatstore
