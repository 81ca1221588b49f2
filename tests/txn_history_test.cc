// Linearizability of concurrent transactions.
//
// N threads issue CAS / RMW / multi-put transactions and reads over a
// shared store (two cores, two threads per core; per-core mutexes
// serialize the engine's single-writer-per-core contract while the
// horizontal-batching group persists both cores' entries together).
// Every operation records an invocation timestamp BEFORE acquiring its
// core's lock and a response timestamp after the call returns, so
// intervals genuinely overlap; a Wing & Gong backtracking checker then
// searches for a serial order consistent with the real-time partial
// order in which every observed result matches a sequential store model.
//
// Runs are seeded and the generator is deterministic per (seed, thread);
// a failure prints the seed and the full history for replay. The checker
// itself is validated against a handcrafted non-linearizable history.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/flatstore.h"

namespace flatstore {
namespace core {
namespace {

// ---- history model ---------------------------------------------------------

struct HistoryOp {
  enum Kind { kTxnPut, kCas, kRmw, kRead } kind;
  uint64_t invoke = 0;
  uint64_t response = 0;
  int thread = 0;
  std::vector<std::pair<uint64_t, std::string>> writes;  // kTxnPut
  uint64_t key = 0;                      // kCas / kRmw / kRead
  std::optional<std::string> expected;   // kCas (nullopt = expect absent)
  std::string value;                     // kCas new value / kRmw marker
  bool cas_committed = false;            // kCas observed outcome
  std::optional<std::string> observed;   // kRead (nullopt = absent)
};

// The sequential RMW rule, mirrored exactly by the store-side callback:
// append the marker, resetting first if the value has grown past 200 B
// (keeps every value inside the 256 B inline bound).
std::string RmwApply(const std::optional<std::string>& cur,
                     const std::string& marker) {
  if (!cur.has_value() || cur->size() > 200) return marker;
  return *cur + marker;
}

using Model = std::map<uint64_t, std::string>;

// Tries to linearize `op` next against `model`. On success applies its
// effect and returns true; `undo` receives the keys to restore.
bool ApplyOp(const HistoryOp& op, Model* model,
             std::vector<std::pair<uint64_t, std::optional<std::string>>>*
                 undo) {
  auto save = [&](uint64_t key) {
    auto it = model->find(key);
    undo->push_back({key, it == model->end()
                              ? std::nullopt
                              : std::optional<std::string>(it->second)});
  };
  switch (op.kind) {
    case HistoryOp::kTxnPut:
      for (const auto& [k, v] : op.writes) {
        save(k);
        (*model)[k] = v;
      }
      return true;
    case HistoryOp::kCas: {
      const auto it = model->find(op.key);
      const bool match = !op.expected.has_value()
                             ? it == model->end()
                             : (it != model->end() &&
                                it->second == *op.expected);
      if (match != op.cas_committed) return false;
      if (match) {
        save(op.key);
        (*model)[op.key] = op.value;
      }
      return true;
    }
    case HistoryOp::kRmw: {
      const auto it = model->find(op.key);
      const std::optional<std::string> cur =
          it == model->end() ? std::nullopt
                             : std::optional<std::string>(it->second);
      save(op.key);
      (*model)[op.key] = RmwApply(cur, op.value);
      return true;
    }
    case HistoryOp::kRead: {
      const auto it = model->find(op.key);
      if (!op.observed.has_value()) return it == model->end();
      return it != model->end() && it->second == *op.observed;
    }
  }
  return false;
}

// Wing & Gong: depth-first search over linearization orders. An op may go
// next only if no other pending op's response precedes its invocation.
class LinearizabilityChecker {
 public:
  explicit LinearizabilityChecker(const std::vector<HistoryOp>& ops)
      : ops_(ops), done_(ops.size(), false) {}

  bool Check() { return Search(ops_.size()); }

 private:
  bool Search(size_t remaining) {
    if (remaining == 0) return true;
    uint64_t min_response = UINT64_MAX;
    for (size_t i = 0; i < ops_.size(); i++) {
      if (!done_[i]) min_response = std::min(min_response, ops_[i].response);
    }
    for (size_t i = 0; i < ops_.size(); i++) {
      if (done_[i] || ops_[i].invoke > min_response) continue;
      std::vector<std::pair<uint64_t, std::optional<std::string>>> undo;
      if (!ApplyOp(ops_[i], &model_, &undo)) continue;
      done_[i] = true;
      if (Search(remaining - 1)) return true;
      done_[i] = false;
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        if (it->second.has_value()) {
          model_[it->first] = *it->second;
        } else {
          model_.erase(it->first);
        }
      }
    }
    return false;
  }

  const std::vector<HistoryOp>& ops_;
  std::vector<bool> done_;
  Model model_;
};

std::string DumpHistory(const std::vector<HistoryOp>& ops) {
  std::ostringstream out;
  for (const HistoryOp& op : ops) {
    out << "[" << op.invoke << "," << op.response << "] t" << op.thread
        << " ";
    switch (op.kind) {
      case HistoryOp::kTxnPut:
        out << "txn-put";
        for (const auto& [k, v] : op.writes) out << " " << k << "=" << v;
        break;
      case HistoryOp::kCas:
        out << "cas " << op.key << " exp="
            << (op.expected.has_value() ? *op.expected : "<absent>")
            << " new=" << op.value
            << (op.cas_committed ? " committed" : " mismatch");
        break;
      case HistoryOp::kRmw:
        out << "rmw " << op.key << " marker=" << op.value;
        break;
      case HistoryOp::kRead:
        out << "read " << op.key << " -> "
            << (op.observed.has_value() ? *op.observed : "<absent>");
        break;
    }
    out << "\n";
  }
  return out.str();
}

// ---- concurrent driver -----------------------------------------------------

struct RmwCtx {
  const char* marker;
  uint32_t marker_len;
};

uint32_t RmwCallback(void* ctx, const void* cur, uint32_t cur_len,
                     uint8_t* out, uint32_t cap) {
  const auto* c = static_cast<const RmwCtx*>(ctx);
  if (cur == nullptr || cur_len > 200) {
    std::memcpy(out, c->marker, c->marker_len);
    return c->marker_len;
  }
  EXPECT_LE(cur_len + c->marker_len, cap);
  std::memcpy(out, cur, cur_len);
  std::memcpy(out + cur_len, c->marker, c->marker_len);
  return cur_len + c->marker_len;
}

// xorshift64: deterministic per (seed, thread).
struct Rng {
  uint64_t s;
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
};

std::vector<HistoryOp> RunConcurrentHistory(uint64_t seed, int ops_per_thread) {
  pm::PmPool::Options po;
  po.size = 128ull << 20;
  pm::PmPool pool(po);
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  auto store = FlatStore::Create(&pool, fo);

  // Three keys per core, probed from the routing function.
  constexpr int kCores = 2;
  constexpr size_t kKeysPerCore = 3;
  std::vector<uint64_t> keys[kCores];
  for (uint64_t k = 0; keys[0].size() < kKeysPerCore ||
                       keys[1].size() < kKeysPerCore;
       k++) {
    const int c = store->CoreForKey(k);
    if (keys[c].size() < kKeysPerCore) keys[c].push_back(k);
  }

  std::mutex core_mu[kCores];
  std::atomic<uint64_t> clock{0};
  constexpr int kThreads = 4;
  std::vector<HistoryOp> per_thread[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      const int core = t % kCores;
      const std::vector<uint64_t>& my_keys = keys[core];
      Rng rng{seed * 1000003 + static_cast<uint64_t>(t) * 7919 + 1};
      // The thread's last read observation per key seeds its CAS
      // expectations (so mismatches and commits both occur).
      std::map<uint64_t, std::optional<std::string>> last_seen;
      for (int i = 0; i < ops_per_thread; i++) {
        HistoryOp op;
        op.thread = t;
        const uint64_t kind = rng.Uniform(4);
        const uint64_t key = my_keys[rng.Uniform(my_keys.size())];
        std::string marker = "t" + std::to_string(t) + "." +
                             std::to_string(i) + ";";
        op.invoke = clock.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(core_mu[core]);
        switch (kind) {
          case 0: {  // multi-put txn over 2 keys
            op.kind = HistoryOp::kTxnPut;
            const uint64_t k2 = my_keys[rng.Uniform(my_keys.size())];
            op.writes.push_back({key, marker + "a"});
            if (k2 != key) op.writes.push_back({k2, marker + "b"});
            TxnOp ops[2];
            for (size_t w = 0; w < op.writes.size(); w++) {
              ops[w].kind = TxnOpKind::kPut;
              ops[w].key = op.writes[w].first;
              ops[w].value = op.writes[w].second.data();
              ops[w].len =
                  static_cast<uint32_t>(op.writes[w].second.size());
            }
            EXPECT_EQ(store->CommitTxnOnCore(core, ops, op.writes.size()),
                      TxnStatus::kCommitted);
            break;
          }
          case 1: {  // CAS keyed on the thread's last observation
            op.kind = HistoryOp::kCas;
            op.key = key;
            const auto it = last_seen.find(key);
            op.expected =
                it == last_seen.end() ? std::nullopt : it->second;
            op.value = marker + "c";
            TxnOp cas;
            cas.kind = TxnOpKind::kCas;
            cas.key = key;
            if (op.expected.has_value()) {
              cas.expected = op.expected->data();
              cas.expected_len =
                  static_cast<uint32_t>(op.expected->size());
            }
            cas.value = op.value.data();
            cas.len = static_cast<uint32_t>(op.value.size());
            const TxnStatus st = store->CommitTxnOnCore(core, &cas, 1);
            EXPECT_TRUE(st == TxnStatus::kCommitted ||
                        st == TxnStatus::kCasMismatch);
            op.cas_committed = st == TxnStatus::kCommitted;
            break;
          }
          case 2: {  // RMW append
            op.kind = HistoryOp::kRmw;
            op.key = key;
            op.value = marker;
            RmwCtx ctx{marker.data(),
                       static_cast<uint32_t>(marker.size())};
            TxnOp rmw;
            rmw.kind = TxnOpKind::kRmw;
            rmw.key = key;
            rmw.rmw = &RmwCallback;
            rmw.rmw_ctx = &ctx;
            EXPECT_EQ(store->CommitTxnOnCore(core, &rmw, 1),
                      TxnStatus::kCommitted);
            break;
          }
          default: {  // read
            op.kind = HistoryOp::kRead;
            op.key = key;
            std::string got;
            if (store->Get(key, &got)) {
              op.observed = got;
            }
            last_seen[key] = op.observed;
            break;
          }
        }
        op.response = clock.fetch_add(1, std::memory_order_relaxed);
        per_thread[t].push_back(op);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<HistoryOp> history;
  for (int t = 0; t < kThreads; t++) {
    history.insert(history.end(), per_thread[t].begin(),
                   per_thread[t].end());
  }
  return history;
}

// ---- tests -----------------------------------------------------------------

TEST(TxnHistory, CheckerAcceptsSequentialHistory) {
  std::vector<HistoryOp> h(3);
  h[0] = {HistoryOp::kTxnPut, 0, 1, 0, {{1, "a"}}, 0, {}, "", false, {}};
  h[1] = {HistoryOp::kRead, 2, 3, 0, {}, 1, {}, "", false, {"a"}};
  h[2] = {HistoryOp::kCas, 4, 5, 0, {}, 1, {"a"}, "b", true, {}};
  EXPECT_TRUE(LinearizabilityChecker(h).Check());
}

TEST(TxnHistory, CheckerRejectsNonLinearizableHistory) {
  // The read observes "b" strictly BEFORE the only write of "b" is
  // invoked: no serial order can explain it.
  std::vector<HistoryOp> h(2);
  h[0] = {HistoryOp::kRead, 0, 1, 0, {}, 1, {}, "", false, {"b"}};
  h[1] = {HistoryOp::kTxnPut, 2, 3, 1, {{1, "b"}}, 0, {}, "", false, {}};
  EXPECT_FALSE(LinearizabilityChecker(h).Check());

  // A CAS that claims commit against a value nobody ever wrote.
  std::vector<HistoryOp> h2(1);
  h2[0] = {HistoryOp::kCas, 0, 1, 0, {}, 1, {"ghost"}, "x", true, {}};
  EXPECT_FALSE(LinearizabilityChecker(h2).Check());
}

TEST(TxnHistory, CheckerAcceptsOverlappingCasRace) {
  // Two expect-absent CAS ops on one key overlap; exactly one committed.
  // Linearizable: the winner first, the loser second.
  std::vector<HistoryOp> h(2);
  h[0] = {HistoryOp::kCas, 0, 3, 0, {}, 1, std::nullopt, "x", true, {}};
  h[1] = {HistoryOp::kCas, 1, 2, 1, {}, 1, std::nullopt, "y", false, {}};
  EXPECT_TRUE(LinearizabilityChecker(h).Check());
  // Both claiming commit is impossible.
  h[1].cas_committed = true;
  EXPECT_FALSE(LinearizabilityChecker(h).Check());
}

TEST(TxnHistory, ConcurrentTxnsAreLinearizable) {
  for (uint64_t seed : {11ull, 42ull, 1337ull}) {
    std::vector<HistoryOp> history = RunConcurrentHistory(seed, 30);
    ASSERT_EQ(history.size(), 4u * 30u);
    EXPECT_TRUE(LinearizabilityChecker(history).Check())
        << "seed " << seed
        << ": no serial order explains this history:\n"
        << DumpHistory(history);
  }
}

}  // namespace
}  // namespace core
}  // namespace flatstore
