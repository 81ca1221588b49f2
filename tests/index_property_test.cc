// Property-style tests of the index contract the engine relies on: the
// one conditional write (Apply) against a model — its three conditions,
// old-value reporting, erases, and hints made stale by splits between a
// probe and its write — conditional writes racing the owner's writes,
// concurrent version duels, scan consistency against a model, and
// ForEach completeness. Parameterized across all five structures (TEST_P
// sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/fptree.h"
#include "index/kv_index.h"
#include "index/level_hashing.h"
#include "index/masstree.h"

namespace flatstore {
namespace index {
namespace {

using Factory = std::unique_ptr<KvIndex> (*)();

struct Case {
  const char* name;
  Factory make;
};

std::unique_ptr<KvIndex> MakeCceh() {
  return std::make_unique<Cceh>(PmContext{}, 2);
}
std::unique_ptr<KvIndex> MakeLevel() {
  return std::make_unique<LevelHashing>(PmContext{}, 4);
}
std::unique_ptr<KvIndex> MakeFastFair() {
  return std::make_unique<FastFair>(PmContext{});
}
std::unique_ptr<KvIndex> MakeFpTree() {
  return std::make_unique<FpTree>(PmContext{});
}
std::unique_ptr<KvIndex> MakeMasstree() {
  return std::make_unique<Masstree>();
}

const Case kCases[] = {
    {"CCEH", MakeCceh},         {"LevelHashing", MakeLevel},
    {"FastFair", MakeFastFair}, {"FPTree", MakeFpTree},
    {"Masstree", MakeMasstree},
};

class IndexPropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<KvIndex> Make() { return GetParam().make(); }
};

TEST_P(IndexPropertyTest, UpsertReportsOldValue) {
  auto idx = Make();
  uint64_t old = 0;
  EXPECT_FALSE(idx->Upsert(1, 100, &old));  // fresh: no old value
  EXPECT_TRUE(idx->Upsert(1, 200, &old));
  EXPECT_EQ(old, 100u);
  EXPECT_TRUE(idx->Upsert(1, 300, &old));
  EXPECT_EQ(old, 200u);
}

TEST_P(IndexPropertyTest, EraseReportsOldValue) {
  auto idx = Make();
  idx->Insert(5, 55);
  uint64_t old = 0;
  EXPECT_TRUE(idx->Erase(5, &old));
  EXPECT_EQ(old, 55u);
  EXPECT_FALSE(idx->Erase(5, &old));
}

TEST_P(IndexPropertyTest, ConditionalEraseSemantics) {
  auto idx = Make();
  idx->Insert(9, 90);
  uint64_t old = 0;
  // Wrong expected: no-op, the current value reported.
  EXPECT_FALSE(idx->Apply(9, kNoValue, Cond::Equals(91), {}, &old));
  EXPECT_EQ(old, 90u);
  uint64_t v;
  EXPECT_TRUE(idx->Get(9, &v));
  EXPECT_TRUE(idx->Apply(9, kNoValue, Cond::Equals(90), {}, &old));
  EXPECT_FALSE(idx->Get(9, &v));
  // Absent key.
  EXPECT_FALSE(idx->Apply(9, kNoValue, Cond::Equals(90), {}, &old));
  EXPECT_EQ(old, kNoValue);
  EXPECT_EQ(idx->Size(), 0u);
}

// Cond::Newer's order for these tests: the larger value is newer.
bool Greater(uint64_t a, uint64_t b) { return a > b; }

TEST_P(IndexPropertyTest, NewerInstallsOnlyNewerValues) {
  auto idx = Make();
  uint64_t old = 0;
  EXPECT_TRUE(idx->Apply(4, 40, Cond::Newer(Greater), {}, &old));  // absent
  EXPECT_EQ(old, kNoValue);
  EXPECT_FALSE(idx->Apply(4, 30, Cond::Newer(Greater), {}, &old));
  EXPECT_EQ(old, 40u);
  EXPECT_FALSE(idx->Apply(4, 40, Cond::Newer(Greater), {}, &old));  // equal
  EXPECT_TRUE(idx->Apply(4, 50, Cond::Newer(Greater), {}, &old));
  EXPECT_EQ(old, 40u);
  uint64_t v = 0;
  ASSERT_TRUE(idx->Get(4, &v));
  EXPECT_EQ(v, 50u);
  EXPECT_EQ(idx->Size(), 1u);
}

// One random Apply of `key` on `idx` and on `model`, through `hint`:
// unconditional sets and erases, kEquals sets and erases with a 50/50
// right/wrong expectation, and kNewer sets. Return values, reported old
// values and the model must agree.
void ApplyRandomOp(KvIndex* idx, std::map<uint64_t, uint64_t>* model,
                   Rng* rng, uint64_t key, const LookupHint& hint) {
  auto it = model->find(key);
  const uint64_t cur = it == model->end() ? kNoValue : it->second;
  uint64_t desired = rng->Next() >> 1;
  Cond cond;
  switch (rng->Uniform(7)) {
    case 0:
    case 1:
      break;  // unconditional set
    case 2:
      desired = kNoValue;  // unconditional erase
      break;
    case 3:
      desired = kNoValue;
      [[fallthrough]];
    case 4:
      cond = Cond::Equals(it != model->end() && rng->Uniform(2) == 0
                              ? cur
                              : rng->Next() >> 1);
      break;
    case 5:
    case 6:
      cond = Cond::Newer(Greater);
      break;
  }
  const bool holds = cond.Holds(cur, desired);
  uint64_t old = 0;
  ASSERT_EQ(idx->Apply(key, desired, cond, hint, &old), holds)
      << "key " << key << " cond " << int{cond.kind};
  ASSERT_EQ(old, cur) << "key " << key;
  if (!holds) return;
  if (desired == kNoValue) {
    if (it != model->end()) model->erase(it);
  } else {
    (*model)[key] = desired;
  }
}

TEST_P(IndexPropertyTest, RandomizedUpsertEraseModelCheck) {
  auto idx = Make();
  std::map<uint64_t, uint64_t> model;
  Rng rng(99);
  for (int i = 0; i < 40000; i++) {
    ApplyRandomOp(idx.get(), &model, &rng, rng.Uniform(2000), LookupHint{});
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(idx->Size(), model.size());
  idx->ForEach([&](uint64_t k, uint64_t v) {
    auto it = model.find(k);
    ASSERT_NE(it, model.end()) << "key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
  });
}

// Hints taken by a probe, then made stale by splits, resizes and erases
// between the probe and the write (as a write batch's admission hints
// are by other batches): every hinted Apply must still match the model.
TEST_P(IndexPropertyTest, HintedApplyMatchesModelAfterSplits) {
  auto idx = Make();
  std::map<uint64_t, uint64_t> model;
  Rng rng(5);
  constexpr int kHinted = 64;
  for (int round = 0; round < 8; round++) {
    uint64_t keys[kHinted];
    LookupHint hints[kHinted];
    for (int i = 0; i < kHinted; i++) {
      keys[i] = rng.Uniform(20000);
      idx->Prefetch(keys[i], &hints[i]);
      uint64_t v = 0;
      auto it = model.find(keys[i]);
      ASSERT_EQ(idx->GetWithHint(keys[i], &hints[i], &v), it != model.end())
          << "key " << keys[i];
      if (it != model.end()) {
        ASSERT_EQ(v, it->second) << "key " << keys[i];
      }
    }
    // Reshape between the phases: fresh keys split leaves, segments and
    // levels; erases drain some leaves.
    for (int j = 0; j < 2000; j++) {
      const uint64_t k = rng.Uniform(20000);
      if (rng.Uniform(8) == 0) {
        idx->Delete(k);
        model.erase(k);
      } else {
        idx->Insert(k, k);
        model[k] = k;
      }
    }
    for (int i = 0; i < kHinted; i++) {
      ApplyRandomOp(idx.get(), &model, &rng, keys[i], hints[i]);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(idx->Size(), model.size());
  idx->ForEach([&](uint64_t k, uint64_t v) {
    auto it = model.find(k);
    ASSERT_NE(it, model.end()) << "key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
  });
}

// Recovery's version duel without a model of the interleaving: 4 threads
// released together install distinct versions of the same keys, each
// thread its own shuffled share, each version through one kNewer Apply,
// racing inserts of absent keys, replacements and (in the hash indexes)
// splits. Half the installs carry a hint their thread located outside
// the write lock, as DuelInsert's do, which other threads' writes may
// make stale. Whatever the interleaving, every key ends at its maximum.
TEST_P(IndexPropertyTest, NewerWinsUnderConcurrentInstalls) {
  auto idx = Make();
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 4096;
  constexpr uint64_t kVersions = 16;  // per key: 1..16, dealt over threads
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&idx, &ready, t] {
      Rng rng(1000 + t);
      std::vector<uint64_t> mine;
      for (uint64_t v = 1 + t; v <= kVersions; v += kThreads) {
        mine.push_back(v);
      }
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (uint64_t key = 0; key < kKeys; key++) {
        for (size_t i = mine.size(); i > 1; i--) {
          std::swap(mine[i - 1], mine[rng.Uniform(i)]);
        }
        for (uint64_t v : mine) {
          LookupHint hint;
          if (v % 2 == 0) idx->Prefetch(key, &hint);
          uint64_t old;
          idx->Apply(key, v, Cond::Newer(Greater), hint, &old);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx->Size(), kKeys);
  for (uint64_t key = 0; key < kKeys; key++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->Get(key, &v)) << "key " << key;
    EXPECT_EQ(v, kVersions) << "key " << key;
  }
}

TEST_P(IndexPropertyTest, ForEachVisitsExactlyLiveEntries) {
  auto idx = Make();
  std::map<uint64_t, uint64_t> model;
  Rng rng(7);
  for (int i = 0; i < 5000; i++) {
    uint64_t k = rng.Uniform(4000);
    idx->Insert(k, k * 2 + 1);
    model[k] = k * 2 + 1;
  }
  for (uint64_t k = 0; k < 4000; k += 3) {
    if (idx->Delete(k)) model.erase(k);
  }
  std::map<uint64_t, uint64_t> seen;
  idx->ForEach([&](uint64_t k, uint64_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate visit " << k;
  });
  EXPECT_EQ(seen, model);
}

TEST_P(IndexPropertyTest, CasRacesWithWriterStaySane) {
  // The cleaner CASes values while the owner upserts — no torn values,
  // final state must be one of the written values. Like a relocation, a
  // CAS moves a written value once: a bumped value is never bumped again,
  // or the loop could stack several bumps on the last write before it
  // sees `stop`.
  auto idx = Make();
  constexpr uint64_t kKey = 77;
  idx->Insert(kKey, 1);
  std::atomic<bool> stop{false};
  std::thread cleaner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t v;
      if (idx->Get(kKey, &v) && v < 1000000) {
        uint64_t old;
        idx->Apply(kKey, v + 1000000, Cond::Equals(v), {}, &old);
      }
    }
  });
  for (uint64_t i = 2; i < 3000; i++) {
    uint64_t old;
    idx->Apply(kKey, i, Cond{}, {}, &old);
  }
  stop.store(true);
  cleaner.join();
  uint64_t final = 0;
  ASSERT_TRUE(idx->Get(kKey, &final));
  // Final value is either the last write or a CAS bump of it.
  EXPECT_TRUE(final == 2999 || final == 2999 + 1000000) << final;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexPropertyTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

// Ordered-only: scans agree with a sorted model after heavy churn.
class OrderedPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(OrderedPropertyTest, ScanMatchesModelAfterChurn) {
  auto base = GetParam().make();
  auto* idx = dynamic_cast<OrderedKvIndex*>(base.get());
  if (idx == nullptr) GTEST_SKIP() << "hash index";
  std::map<uint64_t, uint64_t> model;
  Rng rng(11);
  for (int i = 0; i < 30000; i++) {
    uint64_t k = rng.Uniform(10000);
    if (rng.Uniform(4) == 0) {
      idx->Delete(k);
      model.erase(k);
    } else {
      idx->Insert(k, i);
      model[k] = static_cast<uint64_t>(i);
    }
  }
  for (uint64_t start : {0ull, 123ull, 5000ull, 9990ull}) {
    std::vector<KvPair> got;
    idx->Scan(start, 50, &got);
    auto it = model.lower_bound(start);
    for (const KvPair& p : got) {
      ASSERT_NE(it, model.end());
      ASSERT_EQ(p.key, it->first);
      ASSERT_EQ(p.value, it->second);
      ++it;
    }
    size_t expected =
        std::min<size_t>(50, static_cast<size_t>(std::distance(
                                 model.lower_bound(start), model.end())));
    ASSERT_EQ(got.size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Ordered, OrderedPropertyTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace index
}  // namespace flatstore
