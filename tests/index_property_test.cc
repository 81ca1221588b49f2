// Property-style tests of the index contract extensions the engine relies
// on: Upsert old-value reporting, EraseIfEqual, CAS-vs-writer races, scan
// consistency against a model, and ForEach completeness. Parameterized
// across all five structures (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

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

TEST_P(IndexPropertyTest, EraseIfEqualSemantics) {
  auto idx = Make();
  idx->Insert(9, 90);
  EXPECT_FALSE(idx->EraseIfEqual(9, 91));  // wrong expected: no-op
  uint64_t v;
  EXPECT_TRUE(idx->Get(9, &v));
  EXPECT_TRUE(idx->EraseIfEqual(9, 90));
  EXPECT_FALSE(idx->Get(9, &v));
  EXPECT_FALSE(idx->EraseIfEqual(9, 90));  // absent key
  EXPECT_EQ(idx->Size(), 0u);
}

TEST_P(IndexPropertyTest, RandomizedUpsertEraseModelCheck) {
  auto idx = Make();
  std::map<uint64_t, uint64_t> model;
  Rng rng(99);
  for (int i = 0; i < 40000; i++) {
    uint64_t key = rng.Uniform(2000);
    switch (rng.Uniform(5)) {
      case 0:
      case 1:
      case 2: {
        uint64_t val = rng.Next() >> 1;
        uint64_t old = 0;
        bool had = idx->Upsert(key, val, &old);
        auto it = model.find(key);
        ASSERT_EQ(had, it != model.end());
        if (had) {
          ASSERT_EQ(old, it->second);
        }
        model[key] = val;
        break;
      }
      case 3: {
        uint64_t old = 0;
        bool had = idx->Erase(key, &old);
        auto it = model.find(key);
        ASSERT_EQ(had, it != model.end());
        if (had) {
          ASSERT_EQ(old, it->second);
          model.erase(it);
        }
        break;
      }
      case 4: {
        // EraseIfEqual with a 50/50 right/wrong expectation.
        auto it = model.find(key);
        uint64_t expected =
            (it != model.end() && rng.Uniform(2) == 0) ? it->second
                                                       : rng.Next();
        bool erased = idx->EraseIfEqual(key, expected);
        ASSERT_EQ(erased, it != model.end() && expected == it->second);
        if (erased) model.erase(it);
        break;
      }
    }
  }
  EXPECT_EQ(idx->Size(), model.size());
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
        idx->CompareExchange(kKey, v, v + 1000000);
      }
    }
  });
  for (uint64_t i = 2; i < 3000; i++) {
    uint64_t old;
    idx->Upsert(kKey, i, &old);
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
