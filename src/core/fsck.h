// Offline consistency checker for a FlatStore pool ("fsck").
//
// Walks the persistent structures without mutating them and
// cross-validates the invariants recovery depends on:
//
//   * superblock sanity (magic, core count, pool size);
//   * chunk registry: every record points at a chunk inside the allocator
//     region, owned by a valid core, with a monotone per-core sequence;
//   * every registered log chunk decodes cleanly up to its committed
//     length (used_final / tail), with no entry straddling the chunk end;
//   * tail records: rotating slots are internally consistent and the
//     winning tail lies inside a registered chunk of the right core;
//   * a dry-run replay: per-key version monotonicity is achievable (no
//     two entries of one key carry the same version at different
//     offsets unless byte-identical — the cleaner-duplicate case);
//   * transaction chains (§5.3): the walk uses the chain-aware reader,
//     so members only join the replay behind a valid commit record;
//     chains without one (torn or aborted transactions) are surfaced as
//     warnings — recovery legally drops them, but they flag how close a
//     crash came to the commit point;
//   * value blocks referenced by winning ptr-based entries lie inside
//     formatted chunks of a plausible size class and do not overlap;
//   * checkpoint chain (if armed): chunks readable, pair counts match;
//   * ordered tier (DESIGN.md §11, if rooted): the arena chain is
//     acyclic, in bounds, and disjoint from the log registry; the L0
//     list carries strictly ascending keys (open builds the DRAM
//     directory from it); every node's packed word decodes to a valid
//     log entry. A node naming a chunk that is not registered is fatal
//     (the cleaner frees a tiered chunk only after unlinking its nodes);
//     one naming a registered chunk without kChunkTiered is a warning
//     (a conversion cut before its commit, which Open unlinks). Nodes
//     naming tiered chunks join the dry-run replay exactly as recovery
//     duel-inserts them, while kChunkTiered chunks sit out the entry
//     walk (recovery skips them; the tier represents their live
//     entries). The tiered chunks' capacity splits into the bytes their
//     winning nodes name and the dead bytes the tier pins.
//
// Used by examples/fsck.cpp and by tests to validate pools after crash
// and GC storms.

#ifndef FLATSTORE_CORE_FSCK_H_
#define FLATSTORE_CORE_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pm/pm_pool.h"

namespace flatstore {
namespace core {

// One finding (error or warning).
struct FsckIssue {
  bool fatal;
  std::string what;
};

// Aggregate result of a check run.
struct FsckReport {
  bool ok = true;                 // no fatal issues
  std::vector<FsckIssue> issues;  // everything found
  // Statistics gathered while walking.
  uint64_t log_chunks = 0;
  uint64_t log_entries = 0;
  uint64_t tombstones = 0;
  uint64_t live_keys = 0;         // keys after dry-run replay
  uint64_t value_blocks = 0;      // winning out-of-log blocks
  uint64_t checkpoint_items = 0;
  uint64_t txn_commits = 0;       // valid transaction commit records
  uint64_t orphan_chains = 0;     // txn chains lacking a valid commit
  uint64_t orphan_entries = 0;    // entries dropped with those chains
  uint64_t tiered_chunks = 0;     // registered chunks with kChunkTiered
  uint64_t tier_arena_chunks = 0; // chunks in the tier's arena chain
  uint64_t tier_nodes = 0;        // nodes on the tier's L0 list
  uint64_t tiered_live_bytes = 0; // tiered-chunk entries winning nodes name
  uint64_t tiered_dead_bytes = 0; // the rest of the tiered chunks' capacity

  // Human-readable summary.
  std::string Summary() const;
};

// Checks the pool. Read-only; safe on a quiesced store or a crash image.
FsckReport FsckPool(const pm::PmPool& pool);

}  // namespace core
}  // namespace flatstore

#endif  // FLATSTORE_CORE_FSCK_H_
