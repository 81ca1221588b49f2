// All-or-nothing crash atomicity of transactions, asserted directly.
//
// The matrix case in crash_explorer_test validates txn crash images with
// the old-or-new-per-key oracle; this suite enforces the stronger §5.3
// guarantee: for EVERY flush budget inside a committing transaction,
// under every PmPool crash mode and seed, the recovered store exposes
// either every member's effect or none of them — a torn commit record
// means "nothing happened". A second test pins the abort path: a txn that
// fails its CAS stages nothing, so every cut recovers to the old state
// with no trace of the aborted members.

#include <gtest/gtest.h>

#include <string>

#include "core/flatstore.h"
#include "harness/crash_explorer.h"

namespace flatstore {
namespace testing {
namespace {

core::FlatStoreOptions SmallStore() {
  core::FlatStoreOptions o;
  o.num_cores = 1;
  o.group_size = 1;
  o.hash_initial_depth = 4;
  return o;
}

std::string Val(char fill, size_t n) { return std::string(n, fill); }

std::unique_ptr<pm::PmPool> MakePool() {
  pm::PmPool::Options po;
  po.size = 32ull << 20;
  po.crash_tracking = true;
  return std::make_unique<pm::PmPool>(po);
}

uint32_t AppendBang(void*, const void* cur, uint32_t cur_len, uint8_t* out,
                    uint32_t cap) {
  EXPECT_NE(cur, nullptr);
  EXPECT_LT(cur_len, cap);
  std::memcpy(out, cur, cur_len);
  out[cur_len] = '!';
  return cur_len + 1;
}

// One transaction touching keys 1..5 through every member shape: inline
// put, out-of-log put, CAS on the preloaded value, RMW appending a byte,
// and a delete.
constexpr uint64_t kTxnKeys = 5;

std::string OldVal(uint64_t i) { return Val('o', 20 + 3 * i); }

// Expected post-commit value of key i+1 (empty = deleted).
std::string NewVal(uint64_t i) {
  switch (i) {
    case 0:
      return Val('n', 40);
    case 1:
      return Val('n', 400);  // out-of-log member
    case 2:
      return Val('c', 64);   // CAS result
    case 3:
      return OldVal(3) + "!";  // RMW result
    default:
      return std::string();  // deleted
  }
}

core::TxnStatus RunCommitTxn(core::FlatStore* store) {
  const std::string v0 = NewVal(0);
  const std::string v1 = NewVal(1);
  const std::string v2 = NewVal(2);
  const std::string expected = OldVal(2);
  core::TxnOp ops[kTxnKeys];
  ops[0].kind = core::TxnOpKind::kPut;
  ops[0].key = 1;
  ops[0].value = v0.data();
  ops[0].len = static_cast<uint32_t>(v0.size());
  ops[1].kind = core::TxnOpKind::kPut;
  ops[1].key = 2;
  ops[1].value = v1.data();
  ops[1].len = static_cast<uint32_t>(v1.size());
  ops[2].kind = core::TxnOpKind::kCas;
  ops[2].key = 3;
  ops[2].expected = expected.data();
  ops[2].expected_len = static_cast<uint32_t>(expected.size());
  ops[2].value = v2.data();
  ops[2].len = static_cast<uint32_t>(v2.size());
  ops[3].kind = core::TxnOpKind::kRmw;
  ops[3].key = 4;
  ops[3].rmw = &AppendBang;
  ops[4].kind = core::TxnOpKind::kDelete;
  ops[4].key = 5;
  return store->CommitTxnOnCore(0, ops, kTxnKeys);
}

void Preload(core::FlatStore* store) {
  for (uint64_t i = 0; i < kTxnKeys; i++) {
    store->Put(i + 1, OldVal(i));
  }
}

// Classifies the recovered state of key i+1: +1 new, -1 old, 0 neither.
int KeyState(core::FlatStore* store, uint64_t i) {
  std::string got;
  const bool present = store->Get(i + 1, &got);
  const std::string want_new = NewVal(i);
  if (want_new.empty()) {  // deleted member
    if (!present) return 1;
    return got == OldVal(i) ? -1 : 0;
  }
  if (!present) return 0;
  if (got == want_new) return 1;
  return got == OldVal(i) ? -1 : 0;
}

TEST(TxnCrash, CommitIsAllOrNothing) {
  const auto options = SmallStore();

  // Dry run: count the line flushes the transaction issues.
  uint64_t total = 0;
  {
    auto pool = MakePool();
    auto store = core::FlatStore::Create(pool.get(), options);
    Preload(store.get());
    const uint64_t start = pool->stats().Get().lines_flushed;
    ASSERT_EQ(RunCommitTxn(store.get()), core::TxnStatus::kCommitted);
    total = pool->stats().Get().lines_flushed - start;
  }
  ASSERT_GT(total, 0u);

  const std::vector<uint64_t> seeds = CrashSeeds();
  uint64_t points = 0;
  uint64_t committed_points = 0;
  for (pm::PmPool::CrashMode mode :
       {pm::PmPool::CrashMode::kClean, pm::PmPool::CrashMode::kTorn,
        pm::PmPool::CrashMode::kUnordered,
        pm::PmPool::CrashMode::kEviction}) {
    const size_t nseeds =
        mode == pm::PmPool::CrashMode::kClean ? 1 : seeds.size();
    for (size_t s = 0; s < nseeds; s++) {
      for (uint64_t budget = 1; budget <= total; budget++) {
        auto pool = MakePool();
        auto store = core::FlatStore::Create(pool.get(), options);
        Preload(store.get());
        pool->SetCrashMode(mode, seeds[s]);
        pool->SetFlushBudget(static_cast<int64_t>(budget));
        RunCommitTxn(store.get());
        store.reset();  // post-cut teardown: flushes no longer persist
        pool->SimulateCrash();

        auto rec = core::FlatStore::Open(pool.get(), options);
        int verdict = 0;  // 0 = undecided, +1 = all new, -1 = all old
        for (uint64_t i = 0; i < kTxnKeys; i++) {
          const int st = KeyState(rec.get(), i);
          ASSERT_NE(st, 0)
              << pm::PmPool::CrashModeName(mode) << " flush " << budget
              << " seed " << seeds[s] << ": key " << i + 1
              << " is neither old nor new";
          if (verdict == 0) verdict = st;
          ASSERT_EQ(st, verdict)
              << pm::PmPool::CrashModeName(mode) << " flush " << budget
              << " seed " << seeds[s] << ": key " << i + 1
              << " breaks all-or-nothing (partial txn recovered)";
        }
        if (verdict > 0) committed_points++;
        points++;
      }
    }
  }
  EXPECT_GT(points, 0u);
  // The full budget cuts after the commit is durable, so both outcomes
  // occur across the matrix.
  EXPECT_GT(committed_points, 0u);
  EXPECT_LT(committed_points, points);
}

TEST(TxnCrash, FailedCasRecoversToOldAtEveryCut) {
  const auto options = SmallStore();

  // The txn stages an out-of-log put (its value block is allocated and
  // l-persisted before the CAS resolves), then fails the CAS: the abort
  // frees the block and stages nothing. Key 9 exists only inside the
  // aborted txn and must never surface.
  auto run_aborting_txn = [](core::FlatStore* store) {
    const std::string big = Val('x', 500);
    const std::string wrong = "mismatch";
    core::TxnOp ops[2];
    ops[0].kind = core::TxnOpKind::kPut;
    ops[0].key = 9;
    ops[0].value = big.data();
    ops[0].len = static_cast<uint32_t>(big.size());
    ops[1].kind = core::TxnOpKind::kCas;
    ops[1].key = 1;
    ops[1].expected = wrong.data();
    ops[1].expected_len = static_cast<uint32_t>(wrong.size());
    ops[1].value = big.data();
    ops[1].len = static_cast<uint32_t>(big.size());
    size_t failed = 99;
    EXPECT_EQ(store->CommitTxnOnCore(0, ops, 2, &failed),
              core::TxnStatus::kCasMismatch);
    EXPECT_EQ(failed, 1u);
  };

  uint64_t total = 0;
  {
    auto pool = MakePool();
    auto store = core::FlatStore::Create(pool.get(), options);
    Preload(store.get());
    const uint64_t start = pool->stats().Get().lines_flushed;
    run_aborting_txn(store.get());
    // The aborted value block's l-persist flushes make the window
    // non-empty even though nothing reaches the log.
    total = pool->stats().Get().lines_flushed - start;
  }
  ASSERT_GT(total, 0u);

  const std::vector<uint64_t> seeds = CrashSeeds();
  for (pm::PmPool::CrashMode mode :
       {pm::PmPool::CrashMode::kClean, pm::PmPool::CrashMode::kTorn,
        pm::PmPool::CrashMode::kUnordered,
        pm::PmPool::CrashMode::kEviction}) {
    const size_t nseeds =
        mode == pm::PmPool::CrashMode::kClean ? 1 : seeds.size();
    for (size_t s = 0; s < nseeds; s++) {
      for (uint64_t budget = 1; budget <= total; budget++) {
        auto pool = MakePool();
        auto store = core::FlatStore::Create(pool.get(), options);
        Preload(store.get());
        pool->SetCrashMode(mode, seeds[s]);
        pool->SetFlushBudget(static_cast<int64_t>(budget));
        run_aborting_txn(store.get());
        store.reset();
        pool->SimulateCrash();

        auto rec = core::FlatStore::Open(pool.get(), options);
        std::string got;
        for (uint64_t i = 0; i < kTxnKeys; i++) {
          ASSERT_TRUE(rec->Get(i + 1, &got))
              << pm::PmPool::CrashModeName(mode) << " flush " << budget
              << " seed " << seeds[s] << ": preloaded key " << i + 1
              << " vanished";
          ASSERT_EQ(got, OldVal(i))
              << pm::PmPool::CrashModeName(mode) << " flush " << budget
              << " seed " << seeds[s] << ": aborted txn mutated key "
              << i + 1;
        }
        ASSERT_FALSE(rec->Get(9, &got))
            << pm::PmPool::CrashModeName(mode) << " flush " << budget
            << " seed " << seeds[s] << ": aborted txn's key surfaced";
      }
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace flatstore
