#include "core/baseline.h"

#include "common/hash.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/fptree.h"
#include "index/level_hashing.h"
#include "log/log_entry.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {

namespace {
constexpr uint64_t kRoutingSeed = 0xC04E;  // same routing as FlatStore
}

const char* BaselineKindName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kCceh:
      return "CCEH";
    case BaselineKind::kLevelHashing:
      return "Level-Hashing";
    case BaselineKind::kFpTree:
      return "FPTree";
    case BaselineKind::kFastFair:
      return "FAST&FAIR";
  }
  return "?";
}

BaselineStore::BaselineStore(pm::PmPool* pool, const Options& options)
    : pool_(pool), options_(options) {
  FLATSTORE_CHECK_GE(options_.num_cores, 1);
  alloc_ = std::make_unique<alloc::LazyAllocator>(
      pool, alloc::kChunkSize, pool->size() - alloc::kChunkSize,
      options_.num_cores);
  switch (options_.kind) {
    case BaselineKind::kCceh:
      for (int c = 0; c < options_.num_cores; c++) {
        indexes_.push_back(std::make_unique<index::Cceh>(
            index::PmContext{pool_, alloc_.get(), c},
            options_.cceh_initial_depth));
      }
      break;
    case BaselineKind::kLevelHashing:
      for (int c = 0; c < options_.num_cores; c++) {
        indexes_.push_back(std::make_unique<index::LevelHashing>(
            index::PmContext{pool_, alloc_.get(), c},
            options_.level_initial_bits));
      }
      break;
    case BaselineKind::kFpTree:
      indexes_.push_back(std::make_unique<index::FpTree>(
          index::PmContext{pool_, alloc_.get(), 0}));
      break;
    case BaselineKind::kFastFair:
      indexes_.push_back(std::make_unique<index::FastFair>(
          index::PmContext{pool_, alloc_.get(), 0}));
      break;
  }
}

std::unique_ptr<BaselineStore> BaselineStore::Create(pm::PmPool* pool,
                                                     const Options& options) {
  return std::unique_ptr<BaselineStore>(new BaselineStore(pool, options));
}

int BaselineStore::CoreForKey(uint64_t key) const {
  return static_cast<int>(HashKey(key, kRoutingSeed) %
                          static_cast<uint64_t>(options_.num_cores));
}

index::KvIndex* BaselineStore::IndexForCore(int core) const {
  return sharded() ? indexes_[core].get() : indexes_[0].get();
}

void BaselineStore::PutOnCore(int core, uint64_t key, const void* value,
                              uint32_t len) {
  // ① store + persist the record out of index (v_len, value).
  uint64_t block = alloc_->Alloc(core, log::ValueBlockSize(len));
  FLATSTORE_CHECK_NE(block, 0u) << "PM exhausted";
  void* dst = pool_->At(block);
  log::EncodeValueBlock(dst, value, len);
  vt::Charge(vt::CostMemcpy(len));
  pool_->Persist(dst, log::ValueBlockSize(len));
  pool_->Fence();

  // ③ update the persistent index (its own flushes happen inside).
  uint64_t old = 0;
  if (IndexForCore(core)->Upsert(key, block, &old)) {
    // Out-of-place update for crash consistency (§3.2); the old block is
    // freed after the insert completes.
    alloc_->Free(old);
  }
}

bool BaselineStore::GetOnCore(int core, uint64_t key,
                              std::string* value) const {
  uint64_t block;
  if (!IndexForCore(core)->Get(key, &block)) return false;
  const void* src = pool_->At(block);
  const uint64_t len = log::ValueBlockLen(src);
  pool_->ChargeRead(src, log::ValueBlockSize(len));
  vt::Charge(vt::CostMemcpy(len));
  value->assign(log::ValueBlockData(src), len);
  return true;
}

bool BaselineStore::DeleteOnCore(int core, uint64_t key) {
  uint64_t old = 0;
  if (!IndexForCore(core)->Erase(key, &old)) return false;
  alloc_->Free(old);
  return true;
}

uint64_t BaselineStore::Scan(
    uint64_t start_key, uint64_t count,
    std::vector<std::pair<uint64_t, std::string>>* out) const {
  auto* ordered = dynamic_cast<index::OrderedKvIndex*>(indexes_[0].get());
  FLATSTORE_CHECK(ordered != nullptr) << "Scan requires a tree baseline";
  std::vector<index::KvPair> pairs;
  ordered->Scan(start_key, count, &pairs);
  for (const auto& p : pairs) {
    const void* src = pool_->At(p.value);
    const uint64_t len = log::ValueBlockLen(src);
    pool_->ChargeRead(src, log::ValueBlockSize(len));
    vt::Charge(vt::CostMemcpy(len));
    out->emplace_back(p.key, std::string(log::ValueBlockData(src), len));
  }
  return pairs.size();
}

uint64_t BaselineStore::Size() const {
  uint64_t n = 0;
  for (const auto& idx : indexes_) n += idx->Size();
  return n;
}

}  // namespace core
}  // namespace flatstore
