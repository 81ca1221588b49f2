// Deterministic crash-state exploration harness.
//
// A CrashExplorer takes a scripted workload, dry-runs it once to count the
// cacheline flushes it issues, then re-executes it once per (crash mode,
// flush index, seed) triple — cutting power at exactly that flush under
// that adversarial PmPool mode — and validates every resulting crash
// image with fsck, recovery, a durability oracle, and a post-recovery
// write probe. Instead of sampling a handful of random cut points, every
// flush of the workload becomes a crash point.
//
// Any failure produces a single deterministic repro line of the form
//
//   [crash-explorer] FAIL workload=gc mode=torn flush=137 seed=2
//       stage=oracle: key 42 expected "v1", got absent
//
// which RunPoint() can replay exactly. The harness is test-only but lives
// in its own library so every suite (and future PRs' durability claims)
// can build workloads on it.
//
// The seed list honours the FLATSTORE_CRASH_SEEDS environment variable
// ("1,2,3"): CI widens nightly coverage without code edits.

#ifndef FLATSTORE_TESTS_HARNESS_CRASH_EXPLORER_H_
#define FLATSTORE_TESTS_HARNESS_CRASH_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace testing {

// Tracks what a crashed store is REQUIRED to recover. Acknowledged ops
// must survive exactly; the (at most one) op in flight when power died may
// legally resolve to either its old or its new state — whichever the
// recovered store reports is folded back in so checking can continue
// across multiple crash cycles.
class DurabilityOracle {
 public:
  // Declare an op about to be issued (value = nullopt for a delete).
  void WillPut(uint64_t key, std::string value);
  void WillDelete(uint64_t key);
  // The op completed with power still on: it must now be durable.
  void Acked(uint64_t key);

  // Verifies `store` against the required state. Returns "" on success or
  // a one-line diagnosis of the first violation.
  std::string Check(core::FlatStore* store);

  size_t tracked_keys() const { return durable_.size(); }

 private:
  // nullopt = key required absent (deleted / never durably written).
  std::map<uint64_t, std::optional<std::string>> durable_;
  std::map<uint64_t, std::optional<std::string>> boundary_;
};

class CrashExplorer;

// Handle a scripted workload drives the store through. Put/Delete issue
// the op and keep the oracle in sync; both become no-ops once the
// simulated power cut has fired, so no post-mortem traffic is issued.
// Usable standalone (explorer == nullptr) by tests that script their own
// crash choreography but want the oracle bookkeeping.
struct WorkloadCtx {
  core::FlatStore* store = nullptr;
  pm::PmPool* pool = nullptr;
  DurabilityOracle* oracle = nullptr;

  void Put(uint64_t key, std::string value);
  void Delete(uint64_t key);
  bool PowerLost() const { return pool->PowerLost(); }

  // Opens the enumerable crash window here: flushes before Arm() are run
  // in the clean mode with no budget and are never crash points. Without
  // an explicit call the window opens when the workload starts. Lets a
  // workload stage expensive durable preconditions (fill chunks, make
  // garbage) and focus enumeration on the interesting phase (a GC pass, a
  // checkpoint).
  void Arm();

 private:
  friend class CrashExplorer;
  CrashExplorer* explorer_ = nullptr;
};

using Workload = std::function<void(WorkloadCtx&)>;

struct ExplorerOptions {
  uint64_t pool_size = 32ull << 20;
  core::FlatStoreOptions store;
  std::vector<pm::PmPool::CrashMode> modes = {
      pm::PmPool::CrashMode::kClean, pm::PmPool::CrashMode::kTorn,
      pm::PmPool::CrashMode::kUnordered, pm::PmPool::CrashMode::kEviction};
  // Seeds for the randomised modes (kClean draws no randomness and always
  // runs exactly once per flush index).
  std::vector<uint64_t> seeds = {1};
  // Enumerate every stride-th flush index (1 = exhaustive).
  uint64_t stride = 1;
  // Stop after this many failures (each is an independent repro line).
  size_t max_failures = 5;
};

struct ExplorerResult {
  uint64_t total_flushes = 0;  // size of the enumerable window (dry run)
  uint64_t points_run = 0;     // crash images built and validated
  std::vector<std::string> failures;  // one deterministic repro line each

  bool ok() const { return failures.empty(); }
  // Human-readable outcome (repro lines included on failure).
  std::string Summary() const;
};

// Parses FLATSTORE_CRASH_SEEDS ("7,9,13"); returns `fallback` when the
// variable is unset or empty.
std::vector<uint64_t> CrashSeedsFromEnv(std::vector<uint64_t> fallback);

// The seeds crash suites enumerate by default: {1, 7, 13}, unless
// FLATSTORE_CRASH_SEEDS overrides them.
std::vector<uint64_t> CrashSeeds();

class CrashExplorer {
 public:
  CrashExplorer(std::string workload_name, ExplorerOptions options);

  // Dry-runs the workload twice (flush-count determinism check), then
  // enumerates every (mode, flush index, seed) crash point.
  ExplorerResult Explore(const Workload& workload);

  // Replays one crash point (the triple printed in a repro line).
  // Returns "" when the image passes fsck + recovery + oracle + probe.
  std::string RunPoint(pm::PmPool::CrashMode mode, uint64_t flush_index,
                       uint64_t seed, const Workload& workload);

 private:
  friend struct WorkloadCtx;

  // Called from WorkloadCtx::Arm().
  void Armed();
  // Runs the workload against a fresh pool with no budget; returns the
  // number of flushes in the armed window (workload + store teardown).
  uint64_t DryRun(const Workload& workload);

  std::string name_;
  ExplorerOptions opts_;

  // State of the run currently executing.
  bool dry_ = false;
  bool armed_ = false;
  bool dry_done_ = false;       // a dry run has established workload_arms_
  bool workload_arms_ = false;  // learned in the first dry run
  pm::PmPool* cur_pool_ = nullptr;
  uint64_t arm_marker_ = 0;  // lines_flushed at Arm (dry runs)
  pm::PmPool::CrashMode arm_mode_ = pm::PmPool::CrashMode::kClean;
  uint64_t arm_seed_ = 0;
  int64_t arm_budget_ = -1;
};

}  // namespace testing
}  // namespace flatstore

#endif  // FLATSTORE_TESTS_HARNESS_CRASH_EXPLORER_H_
