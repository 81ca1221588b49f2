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
//   * checkpoint chain (if armed): chunks readable, pair counts match.
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

  // Human-readable summary.
  std::string Summary() const;
};

// Checks the pool. Read-only; safe on a quiesced store or a crash image.
FsckReport FsckPool(const pm::PmPool& pool);

}  // namespace core
}  // namespace flatstore

#endif  // FLATSTORE_CORE_FSCK_H_
