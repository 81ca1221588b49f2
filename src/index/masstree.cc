#include "index/masstree.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

uint64_t Masstree::Permuter::InsertAt(uint64_t p, int pos, int* slot) {
  const int count = Count(p);
  *slot = At(p, count);  // first free slot
  // Rebuild the index list with *slot spliced in at `pos`.
  uint64_t q = static_cast<uint64_t>(count + 1);
  int src = 0;
  for (int i = 0; i < kLeafSlots; i++) {
    uint64_t s;
    if (i == pos) {
      s = static_cast<uint64_t>(*slot);
    } else {
      if (src == count) src++;  // skip the free slot we consumed
      s = static_cast<uint64_t>(At(p, src));
      src++;
    }
    q |= s << (4 + 4 * i);
  }
  return q;
}

uint64_t Masstree::Permuter::RemoveAt(uint64_t p, int pos) {
  const int count = Count(p);
  const uint64_t freed = static_cast<uint64_t>(At(p, pos));
  uint64_t q = static_cast<uint64_t>(count - 1);
  int dst = 0;
  for (int i = 0; i < kLeafSlots; i++) {
    if (i == pos) continue;
    q |= static_cast<uint64_t>(At(p, i)) << (4 + 4 * dst);
    dst++;
  }
  // Freed slot goes to the head of the free region (position count-1).
  q |= freed << (4 + 4 * (kLeafSlots - 1));
  return q;
}

Masstree::Masstree(const PmContext& ctx) : arena_(ctx) {
  root_ = NewLeaf();
}

Masstree::Leaf* Masstree::NewLeaf() {
  auto* l = static_cast<Leaf*>(arena_.Alloc(sizeof(Leaf)));
  l->permutation = Permuter::Empty();
  l->next = nullptr;
  return l;
}

Masstree::Inner* Masstree::NewInner() {
  return static_cast<Inner*>(arena_.Alloc(sizeof(Inner)));
}

uint32_t Masstree::UpperBound(const Inner* n, uint64_t key) {
  const Inner::Entry* end = n->entries + n->count;
  const Inner::Entry* it = std::upper_bound(
      n->entries, end, key,
      [](uint64_t k, const Inner::Entry& e) { return k < e.key; });
  return static_cast<uint32_t>(it - n->entries);
}

Masstree::Leaf* Masstree::Descend(uint64_t key, Path* path) const {
  void* n = root_;
  for (uint32_t h = height_; h > 1; h--) {
    // Amortized under a MultiGet overlap window (descents of independent
    // keys are independent pointer chases); serial cost otherwise.
    arena_.ctx().ChargeNodeRead(n);
    Inner* inner = static_cast<Inner*>(n);
    if (path != nullptr) path->nodes[path->depth++] = inner;
    // Charged like FAST&FAIR's FindLeaf and LeafPosition: the miss above
    // reads the node, and each comparison is a probe. A binary search of
    // `count` entries makes at most bit_width(count) comparisons.
    const uint32_t i = UpperBound(inner, key);
    vt::Charge(vt::kCpuSlotProbe * std::bit_width(inner->count));
    n = i == 0 ? inner->leftmost : inner->entries[i - 1].child;
  }
  arena_.ctx().ChargeNodeRead(n);
  return static_cast<Leaf*>(n);
}

int Masstree::LeafPosition(const Leaf* l, uint64_t key, bool* found) {
  const uint64_t p = l->permutation;
  const int count = Permuter::Count(p);
  // Binary search over the permuted order (Masstree leaves are searched
  // through the permuter, so lookup is log despite unsorted storage).
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    vt::Charge(vt::kCpuSlotProbe);
    if (l->keys[Permuter::At(p, mid)] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < count && l->keys[Permuter::At(p, lo)] == key;
  return lo;
}

bool Masstree::LeafGet(const Leaf* l, uint64_t key, uint64_t* value) {
  bool found;
  const int pos = LeafPosition(l, key, &found);
  if (!found) return false;
  const int slot = Permuter::At(l->permutation, pos);
  *value = std::atomic_ref<const uint64_t>(l->values[slot])
               .load(std::memory_order_acquire);
  return true;
}

void Masstree::PrefetchLeaf(const Leaf* l) {
  const char* base = reinterpret_cast<const char*>(l);
  for (uint64_t off = 0; off < sizeof(Leaf); off += 64) {
    __builtin_prefetch(base + off, 0, 3);
  }
  vt::Charge((sizeof(Leaf) / 64) * vt::kPrefetchIssueCost);
}

Masstree::Leaf* Masstree::SplitLeaf(Leaf* leaf, uint64_t* up_key) {
  Leaf* right = NewLeaf();
  const uint64_t p = leaf->permutation;
  const int count = Permuter::Count(p);
  const int half = count / 2;

  // Move the upper half into the fresh leaf (slots 0..), fully sorted.
  uint64_t rp = static_cast<uint64_t>(count - half);
  for (int i = half; i < count; i++) {
    int src = Permuter::At(p, i);
    int dst = i - half;
    right->keys[dst] = leaf->keys[src];
    right->values[dst] = leaf->values[src];
    rp |= static_cast<uint64_t>(dst) << (4 + 4 * dst);
  }
  // Free region of the right permuter.
  for (int i = count - half; i < kLeafSlots; i++) {
    rp |= static_cast<uint64_t>(i) << (4 + 4 * i);
  }
  right->permutation = rp;
  vt::Charge(vt::CostMemcpy(static_cast<uint64_t>(count - half) * 16));

  // Shrink the left leaf: keep the lower half, free the moved slots.
  uint64_t lp = static_cast<uint64_t>(half);
  int w = 0;
  bool used[kLeafSlots] = {};
  for (int i = 0; i < half; i++) {
    int s = Permuter::At(p, i);
    lp |= static_cast<uint64_t>(s) << (4 + 4 * w);
    used[s] = true;
    w++;
  }
  for (int s = 0; s < kLeafSlots; s++) {
    if (!used[s]) {
      lp |= static_cast<uint64_t>(s) << (4 + 4 * w);
      w++;
    }
  }
  right->next = leaf->next;
  leaf->next = right;
  leaf->permutation = lp;  // single-word commit
  *up_key = right->keys[Permuter::At(rp, 0)];
  return right;
}

void Masstree::InsertInner(uint64_t up_key, void* right, const Path& path) {
  void* carry_child = right;
  uint64_t carry_key = up_key;
  for (uint32_t d = path.depth; d > 0; d--) {
    Inner* n = path.nodes[d - 1];
    // Separators are distinct and carry_key is new to this level, so its
    // upper bound is its insert position.
    const uint32_t pos = UpperBound(n, carry_key);
    if (n->count < kInnerCard) {
      for (uint32_t i = n->count; i > pos; i--) {
        n->entries[i] = n->entries[i - 1];
      }
      n->entries[pos] = {carry_key, carry_child};
      n->count++;
      return;
    }
    Inner* sib = NewInner();
    const int half = kInnerCard / 2;
    uint64_t mid_key = n->entries[half].key;
    sib->leftmost = n->entries[half].child;
    sib->count = static_cast<uint32_t>(kInnerCard - half - 1);
    std::memcpy(sib->entries, &n->entries[half + 1],
                sizeof(Inner::Entry) * sib->count);
    n->count = static_cast<uint32_t>(half);
    Inner* target = carry_key < mid_key ? n : sib;
    const uint32_t p = UpperBound(target, carry_key);
    for (uint32_t i = target->count; i > p; i--) {
      target->entries[i] = target->entries[i - 1];
    }
    target->entries[p] = {carry_key, carry_child};
    target->count++;
    carry_key = mid_key;
    carry_child = sib;
  }
  Inner* new_root = NewInner();
  new_root->leftmost = root_;
  new_root->entries[0] = {carry_key, carry_child};
  new_root->count = 1;
  root_ = new_root;
  height_++;
  FLATSTORE_CHECK_LE(height_ - 1, kMaxInnerLevels);
}

bool Masstree::ApplyInLeaf(Leaf* leaf, uint64_t key, uint64_t desired,
                           const Cond& cond, uint64_t* old, bool* held) {
  bool found;
  const int pos = LeafPosition(leaf, key, &found);
  const uint64_t p = leaf->permutation;
  *old = found ? leaf->values[Permuter::At(p, pos)] : kNoValue;
  *held = cond.Holds(*old, desired);
  if (!*held) return true;
  if (desired == kNoValue) {
    if (found) {
      std::atomic_ref<uint64_t>(leaf->permutation)
          .store(Permuter::RemoveAt(p, pos), std::memory_order_release);
      size_--;
    }
    return true;
  }
  if (found) {
    std::atomic_ref<uint64_t>(leaf->values[Permuter::At(p, pos)])
        .store(desired, std::memory_order_release);
    return true;
  }
  if (Permuter::Count(p) == kLeafSlots) return false;
  int slot;
  const uint64_t np = Permuter::InsertAt(p, pos, &slot);
  leaf->keys[slot] = key;
  leaf->values[slot] = desired;
  // Single-word publication — the "no shifting" property.
  std::atomic_ref<uint64_t>(leaf->permutation)
      .store(np, std::memory_order_release);
  vt::Charge(2 * vt::kCpuSlotProbe);
  size_++;
  return true;
}

Masstree::Leaf* Masstree::HintedLeaf(uint64_t key,
                                     const LookupHint& hint) const {
  // Freshness discipline, stricter than GetWithHint's: a split between
  // the phases (an earlier write of the same batch) moved keys to a
  // right sibling. For a *write* the leaf must be exactly the one a fresh
  // descend would pick — placing the key one leaf off would hide it from
  // future lookups — so the walk only hops when key >= min(next) (which
  // proves the key is at or right of the sibling's separator) and only
  // settles when key <= max(leaf) (keys never move left, so the hinted
  // leaf's low bound still covers `key`, and key <= max rules out
  // siblings) or the leaf is rightmost. The ambiguous gap between a
  // leaf's max and its sibling's min, and drained leaves with no keys to
  // compare, are stale.
  Leaf* leaf = static_cast<Leaf*>(const_cast<void*>(hint.node));
  while (true) {
    const uint64_t p = leaf->permutation;
    const int count = Permuter::Count(p);
    if (count == 0) return nullptr;
    if (key <= leaf->keys[Permuter::At(p, count - 1)]) return leaf;
    Leaf* next = leaf->next;
    if (next == nullptr) return leaf;
    const uint64_t np = next->permutation;
    arena_.ctx().ChargeSerialNodeRead(next);  // un-prefetched sibling
    if (Permuter::Count(np) == 0 || key < next->keys[Permuter::At(np, 0)]) {
      return nullptr;
    }
    leaf = next;
  }
}

bool Masstree::Apply(uint64_t key, uint64_t desired, const Cond& cond,
                     const LookupHint& hint, uint64_t* old) {
  FLATSTORE_DCHECK(key != kReservedKey);
  LockGuard<SharedMutex> g(rw_lock_);
  vt::Charge(vt::kCpuCas);  // leaf latch (fine grained in the original)
  bool held;
  if (hint.valid) {
    Leaf* leaf = HintedLeaf(key, hint);
    // A full leaf must split, which needs the inner path the hint lacks.
    if (leaf != nullptr &&
        ApplyInLeaf(leaf, key, desired, cond, old, &held)) {
      return held;
    }
  }
  // Invalid / stale / ambiguous / needs-split: the full serial descend.
  vt::ScopedOverlap serial(1);
  while (true) {
    Path path;
    Leaf* leaf = Descend(key, &path);
    if (ApplyInLeaf(leaf, key, desired, cond, old, &held)) return held;
    uint64_t up;
    Leaf* right = SplitLeaf(leaf, &up);
    InsertInner(up, right, path);
  }
}

bool Masstree::Get(uint64_t key, uint64_t* value) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  return LeafGet(Descend(key, nullptr), key, value);
}

void Masstree::Prefetch(uint64_t key, LookupHint* hint) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  const Leaf* leaf = Descend(key, nullptr);
  PrefetchLeaf(leaf);
  hint->node = leaf;
  hint->valid = true;
}

void Masstree::Rewarm(LookupHint* hint) const {
  // Leaves are never freed, so the hinted address is still a leaf (it
  // may have split or emptied since; phase B revalidates). Its lines
  // were read a persist ago and are charged as a fresh node read.
  const Leaf* leaf = static_cast<const Leaf*>(hint->node);
  arena_.ctx().ChargeNodeRead(leaf);
  PrefetchLeaf(leaf);
}

bool Masstree::GetWithHint(uint64_t key, LookupHint* hint,
                           uint64_t* value) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  if (!hint->valid) {
    // A lone probe: the plain Get at full latency, recording its leaf.
    vt::ScopedOverlap serial(1);
    const Leaf* leaf = Descend(key, nullptr);
    hint->node = leaf;
    hint->valid = true;
    return LeafGet(leaf, key, value);
  }
  const Leaf* leaf = static_cast<const Leaf*>(hint->node);
  // A split between the phases moves the upper half of the hinted leaf to
  // a fresh right sibling; keys never move left (no merges) and leaves are
  // never freed, so walking the sibling chain re-finds them. Each hop is
  // an un-prefetched line, charged at full serial price. The hint keeps
  // its leaf: a hop may land right of the key's own leaf (a key in the
  // gap between two leaves), where an insert must not go.
  while (true) {
    const uint64_t p = leaf->permutation;
    const int count = Permuter::Count(p);
    if (count > 0 && leaf->next != nullptr &&
        key > leaf->keys[Permuter::At(p, count - 1)]) {
      leaf = leaf->next;
      arena_.ctx().ChargeSerialNodeRead(leaf);
      continue;
    }
    break;
  }
  return LeafGet(leaf, key, value);
}

void Masstree::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  for (const Leaf* leaf = Descend(0, nullptr); leaf != nullptr;
       leaf = leaf->next) {
    const uint64_t p = leaf->permutation;
    for (int i = 0; i < Permuter::Count(p); i++) {
      int slot = Permuter::At(p, i);
      fn(leaf->keys[slot], leaf->values[slot]);
    }
  }
}

uint64_t Masstree::Scan(uint64_t start_key, uint64_t count,
                        std::vector<KvPair>* out) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  uint64_t n = 0;
  // Descend charges the first leaf; each later leaf is one more read.
  const Leaf* leaf = Descend(start_key, nullptr);
  bool found;
  int pos = LeafPosition(leaf, start_key, &found);
  while (leaf != nullptr && n < count) {
    const uint64_t p = leaf->permutation;
    for (; pos < Permuter::Count(p) && n < count; pos++) {
      int slot = Permuter::At(p, pos);
      out->push_back({leaf->keys[slot], leaf->values[slot]});
      n++;
      vt::Charge(vt::kCpuSlotProbe);
    }
    leaf = leaf->next;
    pos = 0;
    if (leaf != nullptr && n < count) arena_.ctx().ChargeSerialNodeRead(leaf);
  }
  return n;
}


}  // namespace index
}  // namespace flatstore
