// Exhaustive crash-state exploration of the engine's core workloads.
//
// Each test builds a small scripted workload and lets the CrashExplorer
// cut power at EVERY flush index it issues, under all four PmPool crash
// modes (clean, torn, unordered, eviction), validating each crash image
// with fsck + recovery + a durability oracle + a write probe. A failure
// prints one deterministic repro line; feed its (mode, flush, seed) back
// into CrashExplorer::RunPoint to replay it.
//
// Workloads are deliberately tiny (a few hundred flushes): the point is
// exhaustive enumeration, and the per-4MB-chunk heavy lifting (forced log
// rotation via SealActiveLogChunks) keeps GC reachable without megabytes
// of fill traffic.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "harness/crash_explorer.h"

namespace flatstore {
namespace testing {
namespace {

core::FlatStoreOptions SmallStore(int cores) {
  core::FlatStoreOptions o;
  o.num_cores = cores;
  o.group_size = cores;
  o.hash_initial_depth = 4;
  return o;
}

std::string Val(char fill, size_t n) { return std::string(n, fill); }

// Mixed-size puts with overwrites: inline values, the 256 B inline
// boundary, and out-of-log blocks (which take the two-fence l-persist
// path before the log append).
void PutWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 8; k++) {
    ctx.Put(k, Val('a' + static_cast<char>(k % 26), 8 + 13 * k));
  }
  ctx.Put(100, Val('x', 256));  // largest inline value
  ctx.Put(101, Val('y', 257));  // smallest out-of-log value
  ctx.Put(102, Val('z', 600));
  for (uint64_t k = 1; k <= 8; k += 2) {
    ctx.Put(k, Val('A' + static_cast<char>(k % 26), 24 * k));  // overwrite
  }
  ctx.Put(102, Val('w', 900));  // out-of-log overwrite
}

// Deletes crossed with re-puts: tombstones, delete-of-absent, and
// delete + re-insert version chains.
void DeleteWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 10; k++) {
    ctx.Put(k, Val('d', 32 + 7 * k));
  }
  for (uint64_t k = 1; k <= 10; k += 2) ctx.Delete(k);
  ctx.Delete(999);  // absent key
  ctx.Put(3, Val('r', 48));  // re-put after delete
  ctx.Put(5, Val('s', 300));
  ctx.Delete(5);
  ctx.Delete(2);
  ctx.Delete(4);
}

// Log cleaning: stage a mostly-dead sealed chunk before arming, then
// enumerate every flush of the cleaning pass itself — survivor copy,
// used_final commit, index swing, chunk unlink, and the registry journal
// commit (UnregisterChunk) in the deferred release all fall inside the
// window.
void GcWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 12; k++) {
    ctx.Put(k, Val('g', 64));
  }
  ctx.store->SealActiveLogChunks();  // chunk 1 sealed at 12 entries
  for (uint64_t k = 1; k <= 10; k++) {
    ctx.Put(k, Val('h', 72));  // supersede: chunk 1 drops to 2/12 live
  }
  ctx.Arm();
  ctx.store->RunCleanersOnce();  // relocates 2 survivors, retires chunk 1
  // The volatile counter proves cleaning really ran in every replay (it
  // works even after the simulated power cut, which only affects PM).
  EXPECT_GT(ctx.store->ChunksCleaned(), 0u);
  ctx.Put(50, Val('p', 40));
  ctx.Delete(2);
}

// Online checkpoints: the second CheckpointNow rewrites the first (the
// crash-hardened path: the stale checkpoint must be disarmed before its
// covered fields change), with live traffic in between and after.
void CheckpointWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 10; k++) {
    ctx.Put(k, Val('c', 40 + 3 * k));
  }
  ctx.Arm();
  ctx.Put(11, Val('c', 64));
  ctx.store->CheckpointNow();
  ctx.Put(12, Val('m', 90));
  ctx.Delete(3);
  ctx.store->CheckpointNow();
  ctx.Put(13, Val('n', 300));
}

// One op of a scripted MultiPutOnCore batch.
struct BatchOp {
  uint64_t key;
  std::string value;  // empty + tombstone set => delete
  bool tombstone;
};

// Issues `batch` as one fused MultiPutOnCore batch and keeps the oracle in
// sync. Each key's boundary is its LAST op in the batch, so the oracle
// accepts only the pre-batch or the final value of a repeated key: an
// absorbed intermediate value must never become durable.
void RunBatch(WorkloadCtx& ctx, const std::vector<BatchOp>& batch) {
  if (ctx.PowerLost()) return;
  core::WriteOp ops[core::kMaxWriteBatch];
  core::OpStatus statuses[core::kMaxWriteBatch];
  for (size_t i = 0; i < batch.size(); i++) {
    const BatchOp& op = batch[i];
    ops[i] = {op.key, op.value.data(), static_cast<uint32_t>(op.value.size()),
              op.tombstone};
    if (op.tombstone) {
      ctx.oracle->WillDelete(op.key);
    } else {
      ctx.oracle->WillPut(op.key, op.value);
    }
  }
  ctx.store->MultiPutOnCore(0, ops, batch.size(), statuses);
  if (ctx.PowerLost()) return;
  for (const BatchOp& op : batch) ctx.oracle->Acked(op.key);
}

// A batch in which every repeated key ends with a Put, so each earlier op
// on it is absorbed: put->put (inline and out-of-log), put->delete->put,
// delete->put of a present and of an absent key, and one key repeated 16
// times.
std::vector<BatchOp> DuplicateKeyBatch() {
  std::vector<BatchOp> b;
  b.push_back({1, Val('a', 30), false});
  b.push_back({2, std::string(), true});
  b.push_back({1, Val('b', 500), false});  // out-of-log, absorbed
  b.push_back({3, Val('c', 40), false});
  b.push_back({2, Val('d', 70), false});   // delete->put: present key
  b.push_back({3, std::string(), true});
  b.push_back({40, std::string(), true});  // absent: kNotFound
  b.push_back({40, Val('e', 300), false});  // then an out-of-log put
  b.push_back({1, Val('f', 52), false});   // final value of key 1
  b.push_back({3, Val('g', 36), false});   // put->delete->put
  for (int i = 0; i < 16; i++) {
    b.push_back({5, Val(static_cast<char>('h' + i), 20 + 17 * i), false});
  }
  return b;
}

// Fused batched writes (MultiPutOnCore): every flush inside the batch —
// the out-of-log l-persists sharing one trailing fence, the single fused
// AppendBatch (one reservation, one persist sweep, one tail record), and
// the batched drain's retirements — becomes a crash point. A torn fused
// persist may durably apply any prefix of the batch; the oracle accepts
// old-or-new independently per key, which the prefix satisfies. Repeated
// keys (batch 4) end with a Put, so their earlier ops are absorbed and
// never persist: old-or-final still holds for them.
void MultiPutWorkload(WorkloadCtx& ctx) {
  // Durable base: overwrite and delete targets for the batches below.
  for (uint64_t k = 1; k <= 8; k++) {
    ctx.Put(k, Val('m', 24 + 9 * k));
  }

  // Batch 1: fresh inserts, inline sizes plus one out-of-log value (the
  // l-persist + deferred-fence path ahead of the fused append).
  std::vector<BatchOp> b1;
  for (uint64_t k = 10; k <= 17; k++) {
    b1.push_back({k, Val('f', 16 + 11 * (k - 10)), false});
  }
  b1.push_back({18, Val('F', 300), false});
  RunBatch(ctx, b1);

  // Batch 2: overwrites, deletes of present and absent keys, and an
  // out-of-log overwrite — mixed kinds in one fused group.
  std::vector<BatchOp> b2;
  for (uint64_t k = 1; k <= 5; k++) {
    b2.push_back({k, Val('o', 40 + 5 * k), false});
  }
  b2.push_back({7, std::string(), true});
  b2.push_back({8, std::string(), true});
  b2.push_back({999, std::string(), true});  // absent: kNotFound, unstaged
  b2.push_back({18, Val('O', 600), false});
  RunBatch(ctx, b2);

  // Batch 3: cross-batch version chains onto batch 1's keys.
  RunBatch(ctx, {{10, Val('t', 52), false},
                 {11, std::string(), true},
                 {21, Val('t', 28), false}});

  // Batch 4: absorbed duplicates chaining onto batch 2's versions.
  RunBatch(ctx, DuplicateKeyBatch());
}

// Transactions (§5.3): committed, aborted (CAS-fail), CAS-success and
// repeated-key chains, with inline, out-of-log, RMW, and delete members. Every flush
// of the chain encode, the fused group persist, and the commit record
// becomes a crash point; the oracle folds each txn's keys in as a unit
// (all WillPut before the commit, all Acked after), so a recovered image
// must show every key old-or-new — and the all-or-nothing requirement on
// top of that is asserted directly by txn_crash_test.
void TxnWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 6; k++) {
    ctx.Put(k, Val('t', 20 + 9 * k));
  }

  auto commit = [&ctx](const std::vector<core::TxnOp>& ops,
                       core::TxnStatus want) {
    if (ctx.PowerLost()) return;
    for (const core::TxnOp& op : ops) {
      if (want != core::TxnStatus::kCommitted) continue;
      if (op.kind == core::TxnOpKind::kDelete) {
        ctx.oracle->WillDelete(op.key);
      } else if (op.kind != core::TxnOpKind::kRmw) {
        ctx.oracle->WillPut(
            op.key, std::string(static_cast<const char*>(op.value), op.len));
      }
    }
    EXPECT_EQ(ctx.store->CommitTxnOnCore(0, ops.data(), ops.size()), want);
    if (ctx.PowerLost()) return;
    if (want != core::TxnStatus::kCommitted) return;
    for (const core::TxnOp& op : ops) {
      if (op.kind != core::TxnOpKind::kRmw) ctx.oracle->Acked(op.key);
    }
  };
  auto put = [](uint64_t key, const std::string& v) {
    core::TxnOp op;
    op.kind = core::TxnOpKind::kPut;
    op.key = key;
    op.value = v.data();
    op.len = static_cast<uint32_t>(v.size());
    return op;
  };

  // Txn 1 commits: inline puts, an out-of-log put, a delete.
  const std::string t1a = Val('T', 24);
  const std::string t1b = Val('U', 400);
  core::TxnOp del;
  del.kind = core::TxnOpKind::kDelete;
  del.key = 3;
  commit({put(1, t1a), put(2, t1b), del}, core::TxnStatus::kCommitted);

  // Txn 2 aborts on a failing CAS (after an out-of-log member whose
  // value block is allocated, persisted, and freed): nothing staged.
  const std::string big = Val('V', 300);
  const std::string wrong = "never-this";
  core::TxnOp cas;
  cas.kind = core::TxnOpKind::kCas;
  cas.key = 4;
  cas.expected = wrong.data();
  cas.expected_len = static_cast<uint32_t>(wrong.size());
  cas.value = big.data();
  cas.len = static_cast<uint32_t>(big.size());
  commit({put(30, big), cas}, core::TxnStatus::kCasMismatch);

  // Txn 3 commits through a successful CAS on known state.
  const std::string t3 = Val('W', 48);
  core::TxnOp cas_ok;
  cas_ok.kind = core::TxnOpKind::kCas;
  cas_ok.key = 1;
  cas_ok.expected = t1a.data();
  cas_ok.expected_len = static_cast<uint32_t>(t1a.size());
  cas_ok.value = t3.data();
  cas_ok.len = static_cast<uint32_t>(t3.size());
  commit({cas_ok, put(5, t3)}, core::TxnStatus::kCommitted);

  // Txn 4 repeats a key: its CAS compares against the Put staged before
  // it in the same txn and swaps in an out-of-log value, so the chain
  // carries two versions of key 6 around a fresh value block.
  const std::string t4a = Val('X', 36);
  const std::string t4b = Val('Y', 320);
  core::TxnOp cas_own;
  cas_own.kind = core::TxnOpKind::kCas;
  cas_own.key = 6;
  cas_own.expected = t4a.data();
  cas_own.expected_len = static_cast<uint32_t>(t4a.size());
  cas_own.value = t4b.data();
  cas_own.len = static_cast<uint32_t>(t4b.size());
  commit({put(6, t4a), cas_own, put(2, t4a)}, core::TxnStatus::kCommitted);
}

// Parked cleaning (§3.4): one pass picks two half-dead sealed chunks —
// A, holding an out-of-log value and a tombstone's target, and B — and a
// small byte budget (the case's gc_quantum_bytes) parks both relocation
// jobs after each scan slice or sub-batch, so they resume over several
// passes. Every flush of the interleaved pipeline — survivor copies and
// their used_final commits, the victims' unlinks and deferred releases —
// becomes a crash point. Live traffic follows: a key new to the index
// (it joins the key tree), a delete and an overwrite, then more passes
// over the chunk they sealed.
void CleanParkedWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 1; k <= 12; k++) {
    ctx.Put(k, Val('t', 40 + 5 * k));
  }
  ctx.Put(13, Val('T', 300));  // out-of-log value: a relocated survivor
  ctx.store->SealActiveLogChunks();  // chunk A
  for (uint64_t k = 20; k <= 27; k++) {
    ctx.Put(k, Val('r', 48));
  }
  ctx.store->SealActiveLogChunks();  // chunk B
  for (uint64_t k = 20; k <= 25; k++) {
    ctx.Put(k, Val('s', 52));  // B drops to 2/8 live
  }
  for (uint64_t k = 1; k <= 5; k++) {
    ctx.Put(k, Val('u', 64));  // A drops under the cap
  }
  ctx.Delete(6);  // a tombstone covering A
  ctx.Arm();
  int passes = 0;
  while (passes < 64 && ctx.store->ChunksCleaned() < 2) {
    ctx.store->RunCleanersOnce();
    passes++;
  }
  // Volatile counters: prove both jobs really ran, and were parked by
  // the budget, in every replay.
  EXPECT_EQ(ctx.store->ChunksCleaned(), 2u);
  EXPECT_GT(passes, 2);
  ctx.Put(50, Val('v', 40));  // a new key: it joins the key tree
  ctx.Delete(8);
  ctx.Put(9, Val('w', 72));
  for (uint64_t k = 7; k <= 12; k++) ctx.Put(k, Val('x', 40));
  ctx.store->SealActiveLogChunks();
  ctx.Put(60, Val('y', 40));  // the tail leaves the sealed chunk
  for (int pass = 0; pass < 16; pass++) ctx.store->RunCleanersOnce();
}

// Reclaiming victims (§3.4). Before arming, two chunks are sealed: A
// (the even keys 2..32) and B (the even keys 34..64: 58..62 with the
// largest inline values, so each spans several lines, the rest
// out-of-log); then every key of A is overwritten into the serving
// chunk, which stays active. The first pass frees A with no survivors:
// its unlink and the deferred release that clears its registry record.
// Then B's keys below 58 are overwritten and the second pass relocates
// its four survivors into a fresh cleaner chunk — the survivor copies,
// the fence before the used_final commit, the commit itself, the index
// swings — and frees B. A cut at the commit with that fence missing
// leaves a copy torn across its lines inside the committed extent,
// which the unordered mode shows at the default seeds 7 and 13. Live
// traffic follows.
void CleanReclaimWorkload(WorkloadCtx& ctx) {
  for (uint64_t k = 2; k <= 32; k += 2) ctx.Put(k, Val('a', 40 + k));
  ctx.store->SealActiveLogChunks();  // chunk A
  for (uint64_t k = 34; k <= 64; k += 2) {
    ctx.Put(k, Val('b', k >= 58 && k < 64 ? 250 : 300));
  }
  ctx.store->SealActiveLogChunks();  // chunk B
  ctx.Put(100, Val('c', 40));  // the tail leaves B
  for (uint64_t k = 2; k <= 32; k += 2) ctx.Put(k, Val('A', 44));
  const uint64_t cleaned = ctx.store->ChunksCleaned();
  ctx.Arm();
  ctx.store->RunCleanersOnce();  // frees A
  // Volatile counters: prove each pass really cleaned one chunk.
  EXPECT_EQ(ctx.store->ChunksCleaned(), cleaned + 1);
  for (uint64_t k = 34; k <= 56; k += 2) ctx.Put(k, Val('B', 52));
  ctx.store->RunCleanersOnce();  // relocates 58..64, frees B
  // (Puts after the power cut are skipped, so B may not have decayed.)
  if (!ctx.PowerLost()) {
    EXPECT_EQ(ctx.store->ChunksCleaned(), cleaned + 2);
  }
  ctx.Put(70, Val('v', 40));
  ctx.Delete(4);
  ctx.Put(62, Val('w', 72));
}

struct MatrixCase {
  const char* name;
  int cores;
  Workload workload;
  bool key_ordered = false;  // the store keeps key order (tier_enabled)
  uint64_t gc_quantum_bytes = 0;  // per-pass cleaning budget (0 = none)
};

class CrashMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

// The tentpole acceptance test: every flush index x every crash mode for
// put / delete / GC / checkpoint workloads.
TEST_P(CrashMatrixTest, EveryFlushIndexEveryMode) {
  const MatrixCase& c = GetParam();
  ExplorerOptions opts;
  opts.store = SmallStore(c.cores);
  opts.store.tier_enabled = c.key_ordered;
  opts.store.gc_quantum_bytes = c.gc_quantum_bytes;
  opts.seeds = CrashSeeds();
  CrashExplorer explorer(c.name, opts);
  ExplorerResult res = explorer.Explore(c.workload);
  std::printf("[crash-matrix] workload=%s total_flushes=%" PRIu64
              " points_run=%" PRIu64 "\n",
              c.name, res.total_flushes, res.points_run);
  EXPECT_GT(res.total_flushes, 0u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrashMatrixTest,
    ::testing::Values(MatrixCase{"put", 2, PutWorkload},
                      MatrixCase{"delete", 2, DeleteWorkload},
                      MatrixCase{"gc", 1, GcWorkload},
                      MatrixCase{"checkpoint", 1, CheckpointWorkload},
                      MatrixCase{"multiput", 1, MultiPutWorkload},
                      MatrixCase{"txn", 1, TxnWorkload},
                      MatrixCase{"clean_parked", 1, CleanParkedWorkload,
                                 /*key_ordered=*/true,
                                 /*gc_quantum_bytes=*/256},
                      MatrixCase{"clean_reclaim", 1, CleanReclaimWorkload}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.name);
    });

// Prefix-atomicity of one fused commit, asserted directly (the oracle in
// the matrix test above only checks old-or-new per key, not ordering):
// for EVERY flush budget inside a fused MultiPut batch, under every
// crash mode, the recovered store must expose a *prefix* of the batch —
// no entry visible while a predecessor in the same fused chain is
// missing. This is what makes a torn fused persist safe: the log scan
// stops at the first non-durable entry, so later entries whose lines
// happened to commit (unordered/eviction modes) are never replayed.
TEST(MultiPutCrash, FusedCommitIsPrefixAtomic) {
  constexpr uint64_t kBatch = 12;
  const auto options = SmallStore(1);
  auto old_val = [](uint64_t i) { return Val('o', 20 + 3 * i); };
  auto new_val = [](uint64_t i) { return Val('n', 33 + 5 * i); };

  // The scripted scenario: preload old values durably, then one fused
  // batch overwriting all of them (inline sizes plus one out-of-log
  // value so the l-persist flushes are inside the window too).
  auto make_pool = [] {
    pm::PmPool::Options po;
    po.size = 32ull << 20;
    po.crash_tracking = true;
    return std::make_unique<pm::PmPool>(po);
  };
  auto run_batch = [&](core::FlatStore* store) {
    std::string vals[kBatch];
    core::WriteOp ops[kBatch];
    core::OpStatus statuses[kBatch];
    for (uint64_t i = 0; i < kBatch; i++) {
      vals[i] = new_val(i);
      if (i == kBatch / 2) vals[i] = Val('n', 400);  // out-of-log
      ops[i] = {i + 1, vals[i].data(),
                static_cast<uint32_t>(vals[i].size()), false};
    }
    store->MultiPutOnCore(0, ops, kBatch, statuses);
  };

  // Dry run: count the line flushes the batch issues.
  uint64_t total = 0;
  {
    auto pool = make_pool();
    auto store = core::FlatStore::Create(pool.get(), options);
    for (uint64_t i = 0; i < kBatch; i++) store->Put(i + 1, old_val(i));
    const uint64_t start = pool->stats().Get().lines_flushed;
    run_batch(store.get());
    total = pool->stats().Get().lines_flushed - start;
  }
  ASSERT_GT(total, 0u);

  const std::vector<uint64_t> seeds = CrashSeeds();
  uint64_t points = 0;
  for (pm::PmPool::CrashMode mode :
       {pm::PmPool::CrashMode::kClean, pm::PmPool::CrashMode::kTorn,
        pm::PmPool::CrashMode::kUnordered,
        pm::PmPool::CrashMode::kEviction}) {
    const size_t nseeds =
        mode == pm::PmPool::CrashMode::kClean ? 1 : seeds.size();
    for (size_t s = 0; s < nseeds; s++) {
      for (uint64_t budget = 1; budget <= total; budget++) {
        auto pool = make_pool();
        auto store = core::FlatStore::Create(pool.get(), options);
        for (uint64_t i = 0; i < kBatch; i++) store->Put(i + 1, old_val(i));
        pool->SetCrashMode(mode, seeds[s]);
        pool->SetFlushBudget(static_cast<int64_t>(budget));
        run_batch(store.get());
        store.reset();  // post-cut teardown: flushes no longer persist
        pool->SimulateCrash();

        auto rec = core::FlatStore::Open(pool.get(), options);
        bool missing_predecessor = false;
        for (uint64_t i = 0; i < kBatch; i++) {
          const std::string want_new =
              i == kBatch / 2 ? Val('n', 400) : new_val(i);
          std::string got;
          ASSERT_TRUE(rec->Get(i + 1, &got))
              << pm::PmPool::CrashModeName(mode) << " flush " << budget
              << " seed " << seeds[s] << ": preloaded key " << i + 1
              << " vanished";
          if (got == want_new) {
            EXPECT_FALSE(missing_predecessor)
                << pm::PmPool::CrashModeName(mode) << " flush " << budget
                << " seed " << seeds[s] << ": batch entry " << i
                << " visible after a missing predecessor";
          } else {
            ASSERT_EQ(got, old_val(i))
                << pm::PmPool::CrashModeName(mode) << " flush " << budget
                << " seed " << seeds[s] << ": key " << i + 1
                << " is neither old nor new";
            missing_predecessor = true;
          }
        }
        points++;
      }
    }
  }
  EXPECT_GT(points, 0u);
}

// Absorption under power loss: one duplicate-key batch (DuplicateKeyBatch)
// on a durable base, cut at every flush in all four crash modes. Each key
// must recover to its pre-batch value or its final value — never to a
// value an absorbed op carried, which no log entry holds.
TEST(MultiPutCrash, DuplicateKeyBatchRecoversOldOrFinal) {
  ExplorerOptions opts;
  opts.store = SmallStore(1);
  opts.seeds = CrashSeeds();
  Workload w = [](WorkloadCtx& ctx) {
    for (uint64_t k = 1; k <= 5; k++) ctx.Put(k, Val('p', 20 + 11 * k));
    ctx.Arm();
    RunBatch(ctx, DuplicateKeyBatch());
  };
  CrashExplorer explorer("multiput-dup", opts);
  ExplorerResult res = explorer.Explore(w);
  EXPECT_GT(res.points_run, 0u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

// Crash between the cleaner's chunk unlink and the registry journal
// commit, deterministically: every entry of the victim is dead, so the
// armed window is dominated by the retire sequence (index swing,
// BeginRetire, epoch-deferred UnregisterChunk + free). Enumerating every
// flush index necessarily includes the cut points on both sides of the
// journal commit — the scenario the random fuzzer only hit by seed luck.
TEST(CrashExplorerTest, GcRetireJournalWindow) {
  ExplorerOptions opts;
  opts.store = SmallStore(1);
  opts.seeds = CrashSeeds();
  Workload w = [](WorkloadCtx& ctx) {
    for (uint64_t k = 1; k <= 8; k++) ctx.Put(k, Val('j', 80));
    ctx.store->SealActiveLogChunks();
    for (uint64_t k = 1; k <= 8; k++) ctx.Put(k, Val('k', 80));
    ctx.Arm();  // window: exactly the cleaning pass + teardown
    ctx.store->RunCleanersOnce();
    EXPECT_GT(ctx.store->ChunksCleaned(), 0u);
  };
  CrashExplorer explorer("gc-retire", opts);
  ExplorerResult res = explorer.Explore(w);
  EXPECT_GT(res.total_flushes, 0u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

// Pipelined cleaning under a tiny per-pass quantum: the scan, relocate,
// and retire stages of ONE victim spread across many RunCleanersOnce
// calls, so the flush enumeration cuts power at every stage boundary —
// mid-scan (no PM writes yet), after a survivor copy but before its
// used_final commit, after the commit but before the victim retires.
TEST(CrashExplorerTest, GcStagedQuantumBoundaries) {
  ExplorerOptions opts;
  opts.store = SmallStore(1);
  opts.store.gc_quantum_bytes = 256;  // ~6 scan slices per 12-entry chunk
  opts.seeds = CrashSeeds();
  Workload w = [](WorkloadCtx& ctx) {
    for (uint64_t k = 1; k <= 12; k++) ctx.Put(k, Val('q', 64));
    ctx.store->SealActiveLogChunks();
    for (uint64_t k = 1; k <= 10; k++) ctx.Put(k, Val('r', 72));
    ctx.Arm();
    // Fixed pass count (flush-deterministic); far more than the ~8 the
    // pipeline needs, so cleaning always completes inside the window.
    for (int i = 0; i < 15; i++) ctx.store->RunCleanersOnce();
    EXPECT_GT(ctx.store->ChunksCleaned(), 0u);
    ctx.Put(60, Val('s', 40));
  };
  CrashExplorer explorer("gc-staged-quantum", opts);
  ExplorerResult res = explorer.Explore(w);
  EXPECT_GT(res.total_flushes, 0u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

// Relocation split across sub-batches: 33 survivors force two
// CleanerAppendBatch commits (32 + 1), so the enumeration includes the
// half-relocated-victim states between the first sub-batch's used_final
// commit and the second's — the window fsck's duplicate-version rule
// (byte-identical + cleaner-flagged chunk) exists for.
TEST(CrashExplorerTest, GcStagedRelocSubBatches) {
  ExplorerOptions opts;
  opts.store = SmallStore(1);
  opts.store.gc_quantum_bytes = 512;
  opts.seeds = CrashSeeds();
  Workload w = [](WorkloadCtx& ctx) {
    for (uint64_t k = 1; k <= 67; k++) ctx.Put(k, Val('u', 24));
    ctx.store->SealActiveLogChunks();
    // Supersede 34 of 67: live ratio 0.49 < 0.6 cap, 33 survivors.
    for (uint64_t k = 1; k <= 34; k++) ctx.Put(k, Val('v', 24));
    ctx.Arm();
    for (int i = 0; i < 25; i++) ctx.store->RunCleanersOnce();
    EXPECT_GT(ctx.store->ChunksCleaned(), 0u);
    ctx.Delete(40);
  };
  CrashExplorer explorer("gc-staged-reloc", opts);
  ExplorerResult res = explorer.Explore(w);
  EXPECT_GT(res.total_flushes, 0u);
  EXPECT_TRUE(res.ok()) << res.Summary();
}

// A repro line's (mode, flush, seed) triple must replay to the same
// verdict — spot-check a few points both ways.
TEST(CrashExplorerTest, RunPointIsDeterministic) {
  ExplorerOptions opts;
  opts.store = SmallStore(2);
  CrashExplorer explorer("put", opts);
  for (uint64_t f : {1u, 17u, 40u}) {
    const std::string a =
        explorer.RunPoint(pm::PmPool::CrashMode::kTorn, f, 3, PutWorkload);
    const std::string b =
        explorer.RunPoint(pm::PmPool::CrashMode::kTorn, f, 3, PutWorkload);
    EXPECT_EQ(a, b) << "flush " << f;
  }
}

TEST(CrashExplorerTest, SeedsFromEnvParses) {
  ASSERT_EQ(setenv("FLATSTORE_CRASH_SEEDS", "3,11,0x20", 1), 0);
  EXPECT_EQ(CrashSeedsFromEnv({1}),
            (std::vector<uint64_t>{3, 11, 0x20}));
  ASSERT_EQ(setenv("FLATSTORE_CRASH_SEEDS", "", 1), 0);
  EXPECT_EQ(CrashSeedsFromEnv({1, 2}), (std::vector<uint64_t>{1, 2}));
  ASSERT_EQ(unsetenv("FLATSTORE_CRASH_SEEDS"), 0);
  EXPECT_EQ(CrashSeedsFromEnv({5}), (std::vector<uint64_t>{5}));
}

// The explorer must refuse nondeterministic workloads instead of emitting
// repro lines that would not replay.
TEST(CrashExplorerTest, RejectsNondeterministicWorkloads) {
  ExplorerOptions opts;
  opts.store = SmallStore(1);
  int calls = 0;
  Workload w = [&calls](WorkloadCtx& ctx) {
    ctx.Put(1, Val('n', 32));
    if (++calls % 2 == 0) ctx.Put(2, Val('n', 500));  // extra flushes
  };
  CrashExplorer explorer("flaky", opts);
  ExplorerResult res = explorer.Explore(w);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(res.failures[0].find("nondeterministic"), std::string::npos);
  EXPECT_EQ(res.points_run, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace flatstore
