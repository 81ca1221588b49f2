#include "index/fast_fair.h"

#include <cstring>

#include "common/cacheline.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace index {

FastFair::FastFair(const PmContext& ctx) : arena_(ctx) {
  root_ = NewNode(/*leaf=*/true);
}

FastFair::Node* FastFair::NewNode(bool leaf) {
  auto* n = static_cast<Node*>(arena_.Alloc(sizeof(Node)));
  n->is_leaf = leaf ? 1 : 0;
  n->count = 0;
  n->sibling = nullptr;
  n->leftmost = nullptr;
  return n;
}

int FastFair::LowerBound(const Node* n, uint64_t key) {
  // Linear scan, as in the original (sorted 512 B nodes are scanned, not
  // binary-searched, to stay cache friendly); one probe charge per entry.
  int i = 0;
  while (i < static_cast<int>(n->count) && n->entries[i].key < key) {
    vt::Charge(vt::kCpuSlotProbe);
    i++;
  }
  return i;
}

FastFair::Node* FastFair::FindLeaf(uint64_t key) const {
  // Every node lives in PM (FAST&FAIR's design): traversal pays media
  // reads in persistent mode.
  Node* n = root_;
  while (n->is_leaf == 0) {
    arena_.ctx().ChargeNodeRead(n);  // descend one level
    int i = LowerBound(n, key);
    if (i < static_cast<int>(n->count) && n->entries[i].key == key) {
      n = reinterpret_cast<Node*>(n->entries[i].value);
    } else if (i == 0) {
      n = n->leftmost;
    } else {
      n = reinterpret_cast<Node*>(n->entries[i - 1].value);
    }
  }
  arena_.ctx().ChargeNodeRead(n);  // leaf line
  return n;
}

void FastFair::InsertInNode(Node* n, uint64_t key, uint64_t value) {
  int pos = LowerBound(n, key);
  // FAST: shift entries right one by one with 8-byte stores. Every write
  // is real work (charged) and every touched cacheline is flushed.
  for (int i = static_cast<int>(n->count); i > pos; i--) {
    n->entries[i] = n->entries[i - 1];
    vt::Charge(2 * vt::kCpuSlotProbe);
  }
  n->entries[pos].key = key;
  n->entries[pos].value = value;
  n->count++;
  // Persist the disturbed region: from the insert position to the (new)
  // end, plus the header holding `count`.
  const char* from = reinterpret_cast<const char*>(&n->entries[pos]);
  const char* to = reinterpret_cast<const char*>(&n->entries[n->count]);
  arena_.ctx().Persist(from, static_cast<uint64_t>(to - from));
  arena_.ctx().Persist(n, 8);  // header line (count)
  arena_.ctx().Fence();
}

FastFair::Node* FastFair::SplitNode(Node* n, uint64_t* up_key) {
  Node* right = NewNode(n->is_leaf != 0);
  const int half = kCard / 2;
  const int moved = kCard - half;
  if (n->is_leaf != 0) {
    std::memcpy(right->entries, &n->entries[half],
                sizeof(Node::Entry) * static_cast<size_t>(moved));
    right->count = static_cast<uint32_t>(moved);
    *up_key = right->entries[0].key;
  } else {
    // Inner split: the middle key moves up; its child becomes the new
    // node's leftmost.
    *up_key = n->entries[half].key;
    right->leftmost = reinterpret_cast<Node*>(n->entries[half].value);
    std::memcpy(right->entries, &n->entries[half + 1],
                sizeof(Node::Entry) * static_cast<size_t>(moved - 1));
    right->count = static_cast<uint32_t>(moved - 1);
  }
  vt::Charge(vt::CostMemcpy(sizeof(Node::Entry) *
                            static_cast<uint64_t>(moved)));
  right->sibling = n->sibling;
  // Persist the new node first, then link it (FAIR ordering: readers that
  // race see either the old or the linked state).
  arena_.ctx().Persist(right, sizeof(Node));
  arena_.ctx().Fence();
  n->sibling = right;
  n->count = static_cast<uint32_t>(half);
  arena_.ctx().Persist(n, 16);  // header + sibling
  arena_.ctx().Fence();
  return right;
}

bool FastFair::ApplyInLeaf(Node* leaf, uint64_t key, uint64_t desired,
                           const Cond& cond, uint64_t* old, bool* held) {
  const int count = static_cast<int>(leaf->count);
  const int pos = LowerBound(leaf, key);
  const bool found = pos < count && leaf->entries[pos].key == key;
  *old = found ? leaf->entries[pos].value : kNoValue;
  *held = cond.Holds(*old, desired);
  if (!*held) return true;
  if (desired == kNoValue) {
    if (!found) return true;
    // FAST shift-left removal (no merging; see header).
    for (int i = pos; i + 1 < count; i++) {
      leaf->entries[i] = leaf->entries[i + 1];
      vt::Charge(2 * vt::kCpuSlotProbe);
    }
    leaf->count--;
    const char* from = reinterpret_cast<const char*>(&leaf->entries[pos]);
    const char* to =
        reinterpret_cast<const char*>(&leaf->entries[leaf->count]);
    if (to > from) {
      arena_.ctx().Persist(from, static_cast<uint64_t>(to - from));
    }
    arena_.ctx().Persist(leaf, 8);  // header line (count)
    arena_.ctx().Fence();
    size_--;
    return true;
  }
  if (found) {
    // In-place value overwrite: one flushed line, re-flushed for hot
    // keys under skew (paper §2.3).
    leaf->entries[pos].value = desired;
    arena_.ctx().PersistFence(&leaf->entries[pos].value, 8);
    return true;
  }
  if (count == kCard) return false;
  InsertInNode(leaf, key, desired);
  size_++;
  return true;
}

FastFair::SplitResult FastFair::ApplyRecursive(Node* n, uint64_t key,
                                               uint64_t desired,
                                               const Cond& cond,
                                               uint64_t* old, bool* held) {
  arena_.ctx().ChargeNodeRead(n);
  if (n->is_leaf != 0) {
    if (ApplyInLeaf(n, key, desired, cond, old, held)) return {};
    // A full leaf: split it and insert into the half that covers `key`.
    size_++;
    uint64_t up;
    Node* right = SplitNode(n, &up);
    InsertInNode(key < up ? n : right, key, desired);
    return {right, up};
  }

  // Inner node: descend.
  int i = LowerBound(n, key);
  Node* child;
  if (i < static_cast<int>(n->count) && n->entries[i].key == key) {
    child = reinterpret_cast<Node*>(n->entries[i].value);
  } else if (i == 0) {
    child = n->leftmost;
  } else {
    child = reinterpret_cast<Node*>(n->entries[i - 1].value);
  }
  SplitResult r = ApplyRecursive(child, key, desired, cond, old, held);
  if (r.right == nullptr) return {};

  // Child split: push the separator into this node.
  if (static_cast<int>(n->count) < kCard) {
    InsertInNode(n, r.up_key, reinterpret_cast<uint64_t>(r.right));
    return {};
  }
  uint64_t up;
  Node* right = SplitNode(n, &up);
  Node* target = r.up_key < up ? n : right;
  InsertInNode(target, r.up_key, reinterpret_cast<uint64_t>(r.right));
  return {right, up};
}

FastFair::Node* FastFair::HintedLeaf(uint64_t key,
                                     const LookupHint& hint) const {
  // Write-side FAIR repair, stricter than GetWithHint's: a write must
  // land in exactly the leaf a fresh descend would pick. Hop right only
  // when key >= min(sibling) proves the key is at or past the sibling's
  // separator; settle only when key <= max(leaf) (or the leaf is
  // rightmost) proves this leaf still covers it. Ambiguous gaps and
  // drained leaves are stale.
  Node* leaf = static_cast<Node*>(const_cast<void*>(hint.node));
  while (true) {
    const int count = static_cast<int>(leaf->count);
    if (count == 0) return nullptr;
    if (key <= leaf->entries[count - 1].key || leaf->sibling == nullptr) {
      return leaf;
    }
    Node* next = leaf->sibling;
    arena_.ctx().ChargeSerialNodeRead(next);  // un-prefetched sibling
    if (next->count == 0 || key < next->entries[0].key) return nullptr;
    leaf = next;
  }
}

bool FastFair::Apply(uint64_t key, uint64_t desired, const Cond& cond,
                     const LookupHint& hint, uint64_t* old) {
  FLATSTORE_DCHECK(key != kReservedKey);
  LockGuard<SharedMutex> g(rw_lock_);
  vt::Charge(vt::kCpuCas);  // writer latch
  bool held;
  if (hint.valid) {
    Node* leaf = HintedLeaf(key, hint);
    // A full leaf must split, which needs the root path the hint lacks.
    if (leaf != nullptr &&
        ApplyInLeaf(leaf, key, desired, cond, old, &held)) {
      return held;
    }
  }
  // Invalid / stale / ambiguous / needs-split: the full serial descend.
  vt::ScopedOverlap serial(1);
  SplitResult r = ApplyRecursive(root_, key, desired, cond, old, &held);
  if (r.right != nullptr) {
    // Root split: grow the tree by one level.
    Node* new_root = NewNode(/*leaf=*/false);
    new_root->leftmost = root_;
    new_root->entries[0].key = r.up_key;
    new_root->entries[0].value = reinterpret_cast<uint64_t>(r.right);
    new_root->count = 1;
    arena_.ctx().Persist(new_root, sizeof(Node));
    arena_.ctx().Fence();
    // The root pointer itself is DRAM bookkeeping here (the original
    // persists it; one 8-byte flush per tree-height increase is noise).
    root_ = new_root;
  }
  return held;
}

bool FastFair::LeafGet(const Node* leaf, uint64_t key, uint64_t* value) {
  const int i = LowerBound(leaf, key);
  if (i < static_cast<int>(leaf->count) && leaf->entries[i].key == key) {
    *value = leaf->entries[i].value;
    return true;
  }
  return false;
}

void FastFair::PrefetchNode(const Node* n) {
  const char* base = reinterpret_cast<const char*>(n);
  for (uint64_t off = 0; off < sizeof(Node); off += 64) {
    __builtin_prefetch(base + off, 0, 3);
  }
  vt::Charge((sizeof(Node) / 64) * vt::kPrefetchIssueCost);
}

bool FastFair::Get(uint64_t key, uint64_t* value) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  return LeafGet(FindLeaf(key), key, value);
}

void FastFair::Prefetch(uint64_t key, LookupHint* hint) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  const Node* leaf = FindLeaf(key);
  PrefetchNode(leaf);
  hint->node = leaf;
  hint->valid = true;
}

void FastFair::Rewarm(LookupHint* hint) const {
  // Nodes are never freed, so the hinted address is still a leaf (it may
  // have split or emptied since; phase B revalidates). Its lines were
  // read a persist ago and are charged as a fresh node read.
  const Node* leaf = static_cast<const Node*>(hint->node);
  arena_.ctx().ChargeNodeRead(leaf);
  PrefetchNode(leaf);
}

bool FastFair::GetWithHint(uint64_t key, LookupHint* hint,
                           uint64_t* value) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  if (!hint->valid) {
    // A lone probe: the plain Get at full latency, recording its leaf.
    vt::ScopedOverlap serial(1);
    const Node* leaf = FindLeaf(key);
    hint->node = leaf;
    hint->valid = true;
    return LeafGet(leaf, key, value);
  }
  const Node* leaf = static_cast<const Node*>(hint->node);
  // FAIR sibling links: a split between the phases moves the upper half
  // right, never left (no merges), and nodes are never freed — so a stale
  // hint is repaired by walking right. Each hop is an un-prefetched node.
  // The hint keeps its leaf: a hop may land right of the key's own leaf
  // (a key in the gap between two leaves), where an insert must not go.
  while (leaf->count > 0 && leaf->sibling != nullptr &&
         key > leaf->entries[leaf->count - 1].key) {
    leaf = leaf->sibling;
    arena_.ctx().ChargeSerialNodeRead(leaf);
  }
  return LeafGet(leaf, key, value);
}

uint64_t FastFair::Scan(uint64_t start_key, uint64_t count,
                        std::vector<KvPair>* out) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  uint64_t n = 0;
  // FindLeaf charges the first leaf; each later leaf is one more read.
  Node* leaf = FindLeaf(start_key);
  int i = LowerBound(leaf, start_key);
  while (leaf != nullptr && n < count) {
    for (; i < static_cast<int>(leaf->count) && n < count; i++) {
      out->push_back({leaf->entries[i].key, leaf->entries[i].value});
      n++;
      vt::Charge(vt::kCpuSlotProbe);
    }
    leaf = leaf->sibling;  // FAIR sibling walk
    i = 0;
    if (leaf != nullptr && n < count) arena_.ctx().ChargeSerialNodeRead(leaf);
  }
  return n;
}

void FastFair::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  SharedLockGuard<SharedMutex> g(rw_lock_);
  const Node* n = root_;
  while (n->is_leaf == 0) n = n->leftmost;
  for (; n != nullptr; n = n->sibling) {
    for (uint32_t i = 0; i < n->count; i++) {
      fn(n->entries[i].key, n->entries[i].value);
    }
  }
}

int FastFair::Height() const {
  int h = 1;
  const Node* n = root_;
  while (n->is_leaf == 0) {
    n = n->leftmost;
    h++;
  }
  return h;
}


}  // namespace index
}  // namespace flatstore
