// End-to-end tests of the server runtime: simulated clients drive engines
// over FlatRPC; completion counts, data integrity, latency sanity, mixed
// workloads, engine interchangeability under the identical setup, and the
// serving loop's per-quantum rules (chained read responses, which ops a
// full write batch holds back).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/fsck.h"
#include "core/server.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {
namespace {

struct Harness {
  explicit Harness(IndexKind kind = IndexKind::kHash, int cores = 4,
                   size_t pool_mb = 512) {
    pm::PmPool::Options o;
    o.size = pool_mb << 20;
    pool = std::make_unique<pm::PmPool>(o);
    FlatStoreOptions fo;
    fo.num_cores = cores;
    fo.group_size = cores;
    fo.index = kind;
    store = FlatStore::Create(pool.get(), fo);
    adapter = std::make_unique<FlatStoreAdapter>(store.get());
  }
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
  std::unique_ptr<FlatStoreAdapter> adapter;
};

TEST(Server, AllOpsCompleteAndLand) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 4096;
  cfg.workload.value_len = 64;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_GT(r.sim_ns, 0u);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_EQ(r.latency.count(), 8000u);
  // All puts landed: every key that was put is readable with 64 B.
  EXPECT_GT(h.store->Size(), 1000u);
  EXPECT_LE(h.store->Size(), 4096u);
}

TEST(Server, LatencyIsAtLeastOneRoundTrip) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 1;
  cfg.client_window = 1;
  cfg.ops_per_conn = 500;
  cfg.workload.key_space = 1024;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_GE(r.latency.min(), 2 * vt::kNetOneWay);
  EXPECT_LT(r.latency.Percentile(99), 100000u) << "latency blew up";
}

TEST(Server, OpenLoopConservesOpsAndRespectsOfferedLoad) {
  // Poisson arrivals at a fixed aggregate rate: every issued op still
  // completes, and the achieved rate cannot beat the offered one by more
  // than schedule jitter (requests are admitted no earlier than their
  // scheduled arrival).
  Harness h(IndexKind::kHash, /*cores=*/4, /*pool_mb=*/256);
  ServerConfig cfg;
  cfg.num_conns = 12;
  cfg.ops_per_conn = 500;
  cfg.workload.key_space = 1 << 12;
  cfg.workload.value_len = 64;
  cfg.workload.get_ratio = 0.3;
  cfg.seed = 7;
  cfg.open_loop = true;
  cfg.offered_mops = 1.0;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 12u * 500u);
  EXPECT_EQ(r.latency.count(), 12u * 500u);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_LT(r.mops, cfg.offered_mops * 1.1);
}

TEST(Server, MixedWorkloadWithGetsAndDeletes) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2500;
  cfg.workload.key_space = 2048;
  cfg.workload.get_ratio = 0.5;
  cfg.workload.delete_ratio = 0.05;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 10000u);
}

TEST(Server, EtcWorkloadRuns) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 1 << 16;
  cfg.workload.etc_values = true;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.get_ratio = 0.5;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 8000u);
}

TEST(Server, MasstreeEngineWorksToo) {
  Harness h(IndexKind::kMasstree, 2);
  ServerConfig cfg;
  cfg.num_conns = 2;
  cfg.ops_per_conn = 1500;
  cfg.workload.key_space = 2048;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 3000u);
  EXPECT_GT(h.store->Size(), 500u);
}

TEST(Server, BaselineEngineUnderSameHarness) {
  pm::PmPool::Options o;
  o.size = 512ull << 20;
  pm::PmPool pool(o);
  BaselineStore::Options bo;
  bo.num_cores = 4;
  bo.kind = BaselineKind::kCceh;
  auto store = BaselineStore::Create(&pool, bo);
  BaselineAdapter adapter(store.get());
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 4096;
  ServerResult r = RunServer(&adapter, cfg);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_GT(r.mops, 0.0);
}

TEST(Server, PipelinedHbBeatsNoBatchingInSimTime) {
  // The core performance claim, end to end: with many connections posting
  // concurrently, pipelined HB yields higher simulated throughput than
  // per-request persists (kNone).
  auto run = [](batch::BatchMode mode) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pm::PmDevice device;
    o.device = &device;
    pm::PmPool pool(o);
    FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    fo.batch_mode = mode;
    auto store = FlatStore::Create(&pool, fo);
    FlatStoreAdapter adapter(store.get());
    ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 3000;
    cfg.workload.key_space = 1 << 16;
    cfg.workload.value_len = 64;
    return RunServer(&adapter, cfg).mops;
  };
  double pipelined = run(batch::BatchMode::kPipelinedHB);
  double none = run(batch::BatchMode::kNone);
  EXPECT_GT(pipelined, none * 1.2)
      << "pipelined=" << pipelined << " none=" << none;
}

TEST(Server, GetAfterPutSameKeySeesTheWrite) {
  // The conflict queue's purpose (paper 3.3 Discussion): a Get posted
  // after a Put on the same key must not be reordered ahead of it. With a
  // single connection and one hot key, every Get must observe the
  // preceding Put (responses are FIFO per connection).
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 1;
  cfg.client_window = 8;  // Put and Get in flight together
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 1;  // a single, maximally hot key
  cfg.workload.value_len = 32;
  cfg.workload.get_ratio = 0.5;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 2000u);
  // After the run the key must hold the last Put's value (32 bytes).
  std::string v;
  ASSERT_TRUE(h.store->Get(0, &v));
  EXPECT_EQ(v.size(), 32u);
}

TEST(Server, DeterministicAcrossRuns) {
  // The co-simulation must be bit-for-bit repeatable for a given seed.
  auto run = [] {
    Harness h;
    ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 1500;
    cfg.workload.key_space = 4096;
    cfg.workload.dist = workload::KeyDist::kZipfian;
    return RunServer(h.adapter.get(), cfg);
  };
  ServerResult a = run();
  ServerResult b = run();
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.latency.Percentile(99), b.latency.Percentile(99));
}

TEST(Server, IdleTimeIsDeterministicAndAShareOfCoreTime) {
  // idle_ns sums the clock jumps of cores waiting for a request to
  // arrive: the same for a given seed, and a proper part of core time
  // (cores wait for round trips, but they also serve).
  auto run = [] {
    Harness h(IndexKind::kMasstree);
    ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 1500;
    cfg.workload.key_space = 4096;
    cfg.workload.get_ratio = 0.95;
    cfg.seed = 3;
    return RunServer(h.adapter.get(), cfg);
  };
  ServerResult a = run();
  ServerResult b = run();
  EXPECT_EQ(a.idle_ns, b.idle_ns);
  EXPECT_EQ(a.core_ns, b.core_ns);
  uint64_t core_sum = 0;
  for (uint64_t ns : a.core_ns) core_sum += ns;
  EXPECT_GT(a.idle_ns, 0u);
  EXPECT_LT(a.idle_ns, core_sum);
}

// A FlatStore-H store whose CCEH partitions start at depth 0 (one segment
// each) preloads and serves; its tables grow through splits.
TEST(Server, HashStoreWithDepthZeroTablesServes) {
  pm::PmPool::Options o;
  o.size = 256ull << 20;
  pm::PmPool pool(o);
  FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 0;
  auto store = FlatStore::Create(&pool, fo);
  FlatStoreAdapter adapter(store.get());
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 20000;
  cfg.workload.value_len = 64;
  cfg.workload.get_ratio = 0.5;
  Preload(&adapter, cfg.workload, cfg.workload.key_space);
  EXPECT_EQ(store->Size(), 20000u);
  EXPECT_EQ(RunServer(&adapter, cfg).ops, 8000u);
  std::string v;
  for (uint64_t k = 0; k < 20000; k += 7) {
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v.size(), 64u);
  }
}

// Idle cores lead only while a run binds the core clocks: synchronous
// writes after it lead their own batches (deferring to a core marked idle
// that no longer pumps would spin forever).
TEST(Server, SyncWritesAfterARunLeadThemselves) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 1000;
  cfg.workload.key_space = 4096;
  cfg.workload.value_len = 64;
  ASSERT_EQ(RunServer(h.adapter.get(), cfg).ops, 4000u);
  EXPECT_FALSE(vt::CoreIdle(0));
  const std::string value(48, 'x');
  for (uint64_t k = 0; k < 64; k++) h.store->Put(k, value);
  std::string v;
  for (uint64_t k = 0; k < 64; k++) {
    ASSERT_TRUE(h.store->Get(k, &v));
    EXPECT_EQ(v, value);
  }
}

// Forwards every call to a FlatStoreAdapter and logs, in call order, the
// serving core's vt instant at the calls the per-quantum tests inspect.
// Calls of the single-op forms (SubmitPut, SubmitDelete, Get, KeyBusy)
// are only counted: the serving loop must never make them.
class RecordingAdapter final : public EngineAdapter {
 public:
  enum class Call { kMultiGet, kScan, kWriteBatch, kPump };
  struct Event {
    Call call;
    int core;
    uint64_t at;   // core clock at the call (MultiGet, WriteBatch: return)
    size_t count;  // MultiGet: keys served; WriteBatch: ops submitted
  };

  explicit RecordingAdapter(FlatStoreAdapter* inner) : inner_(inner) {}

  int num_cores() const override { return inner_->num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return inner_->CoreForKey(key);
  }
  const char* Name() const override { return inner_->Name(); }
  Submit SubmitPut(int core, uint64_t key, const void* value, uint32_t len,
                   uint64_t tag) override {
    single_op_calls++;
    return inner_->SubmitPut(core, key, value, len, tag);
  }
  Submit SubmitDelete(int core, uint64_t key, uint64_t tag) override {
    single_op_calls++;
    return inner_->SubmitDelete(core, key, tag);
  }
  bool Get(int core, uint64_t key, std::string* value) override {
    single_op_calls++;
    return inner_->Get(core, key, value);
  }
  bool KeyBusy(int core, uint64_t key) const override {
    single_op_calls++;
    return inner_->KeyBusy(core, key);
  }
  bool Scan(int core, uint64_t start_key, uint64_t count,
            uint64_t* found) override {
    events.push_back({Call::kScan, core, vt::Now(), 0});
    return inner_->Scan(core, start_key, count, found);
  }
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  ReadResult* results) override {
    const size_t served = inner_->MultiGet(core, keys, n, results);
    events.push_back({Call::kMultiGet, core, vt::Now(), served});
    return served;
  }
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override {
    const size_t pending = inner_->SubmitWriteBatch(core, reqs, n, out);
    events.push_back({Call::kWriteBatch, core, vt::Now(), n});
    return pending;
  }
  size_t Pump(int core) override {
    events.push_back({Call::kPump, core, vt::Now(), 0});
    return inner_->Pump(core);
  }
  size_t Drain(int core, std::vector<Done>* done) override {
    return inner_->Drain(core, done);
  }

  std::vector<Event> events;
  mutable uint64_t single_op_calls = 0;

 private:
  FlatStoreAdapter* inner_;
};

// The serving loop and Preload call only the batched entry points, at
// every batch size. At batch 1 (the per-request schedule) each write goes
// out as a one-op SubmitWriteBatch and each Get as a one-key MultiGet; a
// Get of a key with a write in flight comes back deferred and is retried.
TEST(Server, CallsOnlyBatchedEntryPoints) {
  for (int batch : {1, 16}) {
    Harness h(IndexKind::kHash, /*cores=*/2);
    RecordingAdapter rec(h.adapter.get());
    ServerConfig cfg;
    cfg.num_conns = 4;
    cfg.ops_per_conn = 500;
    cfg.read_batch = batch;
    cfg.write_batch = batch;
    cfg.workload.key_space = 256;
    cfg.workload.value_len = 64;
    cfg.workload.get_ratio = 0.5;
    cfg.workload.delete_ratio = 0.05;
    cfg.workload.dist = workload::KeyDist::kZipfian;
    Preload(&rec, cfg.workload, cfg.workload.key_space);
    // The event assertions below are about the serving loop alone:
    // Preload submits whole per-core batches.
    rec.events.clear();
    ASSERT_EQ(RunServer(&rec, cfg).ops, 2000u) << "batch " << batch;
    EXPECT_EQ(rec.single_op_calls, 0u) << "batch " << batch;
    size_t write_batches = 0, write_ops = 0, deferred_reads = 0;
    for (const auto& e : rec.events) {
      if (e.call == RecordingAdapter::Call::kWriteBatch) {
        write_batches++;
        write_ops += e.count;
        if (batch == 1) EXPECT_EQ(e.count, 1u);
      } else if (e.call == RecordingAdapter::Call::kMultiGet &&
                 e.count == 0) {
        deferred_reads++;
      }
    }
    EXPECT_GT(write_ops, cfg.workload.key_space) << "batch " << batch;
    if (batch == 16) {
      EXPECT_LT(write_batches, write_ops) << "no write batch held two ops";
    }
    if (batch == 1) {
      EXPECT_GT(deferred_reads, 0u) << "no Get met a write in flight";
    }
  }
}

// A quantum's read-batch responses ride one doorbell chain: the head pays
// the agent core's MMIO (core 0) or the delegation handoff (other cores),
// each later response only the chained WQE build. The serving loop goes
// straight from posting them to the persist step's Pump, so the core's
// clock between MultiGet returning and that Pump is exactly the posting
// cost.
TEST(Server, ReadBatchResponsesRideOneDoorbellChain) {
  Harness h(IndexKind::kHash, /*cores=*/2);
  RecordingAdapter rec(h.adapter.get());
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 400;
  cfg.workload.key_space = 1024;
  cfg.workload.value_len = 64;
  cfg.workload.get_ratio = 1.0;
  Preload(&rec, cfg.workload, cfg.workload.key_space);
  ServerResult r = RunServer(&rec, cfg);
  ASSERT_EQ(r.ops, 1600u);

  size_t chained_batches = 0;
  std::vector<const RecordingAdapter::Event*> last_get(2, nullptr);
  for (const auto& e : rec.events) {
    if (e.call == RecordingAdapter::Call::kMultiGet) {
      last_get[e.core] = &e;
      continue;
    }
    const RecordingAdapter::Event* get = last_get[e.core];
    last_get[e.core] = nullptr;
    if (get == nullptr) continue;
    ASSERT_EQ(e.call, RecordingAdapter::Call::kPump)
        << "a MultiGet must be followed by its core's persist step";
    ASSERT_GT(get->count, 0u) << "Get-only: nothing is ever deferred";
    const uint64_t head =
        e.core == 0 ? vt::kMmioPostCost : vt::kDelegateHandoffCost;
    EXPECT_EQ(e.at - get->at, head + (get->count - 1) * vt::kDoorbellChainCost)
        << "core " << e.core << ", " << get->count << " responses";
    if (get->count > 1) chained_batches++;
  }
  EXPECT_GT(chained_batches, 0u) << "no batch had more than one response";
}

// Only Puts and Deletes join the write batch, so only they wait when it is
// full: a Scan polled behind a full batch is served in the same quantum,
// before the batch is submitted. One connection posts three ops into one
// core's ring; across seeds the Scan lands at every ring position, and
// the instant it is served (its arrival plus parsing) tells which.
TEST(Server, FullWriteBatchDoesNotHoldBackScans) {
  std::set<uint64_t> scan_positions;
  for (uint64_t seed = 1; seed <= 64 && scan_positions.size() < 3; seed++) {
    Harness h(IndexKind::kMasstree, /*cores=*/1, /*pool_mb=*/64);
    RecordingAdapter rec(h.adapter.get());
    ServerConfig cfg;
    cfg.num_conns = 1;
    cfg.ops_per_conn = 3;
    cfg.write_batch = 2;
    cfg.seed = seed;
    cfg.workload.key_space = 256;
    cfg.workload.scan_ratio = 0.5;
    cfg.workload.scan_len_max = 4;
    ASSERT_EQ(RunServer(&rec, cfg).ops, 3u);
    const RecordingAdapter::Event* first_scan = nullptr;
    const RecordingAdapter::Event* batch = nullptr;
    size_t scans = 0;
    for (const auto& e : rec.events) {
      if (e.call == RecordingAdapter::Call::kScan) {
        if (first_scan == nullptr) first_scan = &e;
        scans++;
      } else if (e.call == RecordingAdapter::Call::kWriteBatch &&
                 batch == nullptr) {
        batch = &e;
      }
    }
    if (scans != 1 || batch == nullptr || batch->count != 2) continue;
    scan_positions.insert(first_scan->at);
    EXPECT_LT(first_scan - rec.events.data(), batch - rec.events.data())
        << "seed " << seed << ": the Scan waited for the full write batch";
  }
  EXPECT_EQ(scan_positions.size(), 3u)
      << "the Scan did not take every ring position behind two Puts";
}

TEST(Server, PreloadPopulatesKeys) {
  Harness h;
  workload::Config w;
  w.key_space = 1000;
  w.value_len = 32;
  Preload(h.adapter.get(), w, 0);
  EXPECT_EQ(h.store->Size(), 0u);
  Preload(h.adapter.get(), w, 1000);
  EXPECT_EQ(h.store->Size(), 1000u);
  std::string v;
  EXPECT_TRUE(h.store->Get(999, &v));
  EXPECT_EQ(v.size(), 32u);
}

// Preload fuses its writes: keys go out in per-core batches, HB leaders
// fuse several staged groups into one log append, and the result reads,
// scans and recovers like any other write history. A synchronous
// baseline takes the same path and answers every op at once.
TEST(Server, PreloadFusesBatchesAndRecovers) {
  constexpr uint64_t kKeys = 1 << 14;
  workload::Config w;
  w.key_space = kKeys;
  w.etc_values = true;
  struct Variant {
    const char* name;
    IndexKind index;
    bool key_order;
  };
  for (const Variant& v : {Variant{"FlatStore-H", IndexKind::kHash, false},
                           Variant{"FlatStore-M", IndexKind::kMasstree, false},
                           Variant{"FlatStore-H ordered", IndexKind::kHash,
                                   true}}) {
    SCOPED_TRACE(v.name);
    pm::PmPool::Options po;
    po.size = 512ull << 20;
    po.crash_tracking = true;
    auto pool = std::make_unique<pm::PmPool>(po);
    FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    fo.index = v.index;
    fo.tier_enabled = v.key_order;
    auto store = FlatStore::Create(pool.get(), fo);
    FlatStoreAdapter adapter(store.get());
    Preload(&adapter, w, kKeys);

    EXPECT_EQ(store->Size(), kKeys);
    const batch::HbEngine& hb = *store->hb();
    EXPECT_GT(hb.fused_entries(), hb.fused_groups())
        << "Preload staged one-op groups";
    EXPECT_LE(hb.batches(), kKeys / 8) << "HB leaders did not fuse groups";
    std::string value;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &value)) << "key " << k;
      ASSERT_EQ(value.size(), workload::Generator::EtcValueLen(k, kKeys))
          << "key " << k;
    }
    if (store->CanScan()) {
      std::vector<std::pair<uint64_t, std::string>> rows;
      ASSERT_EQ(store->Scan(0, kKeys, &rows), kKeys);
      for (uint64_t k = 0; k < kKeys; k++) ASSERT_EQ(rows[k].first, k);
    } else {
      EXPECT_FALSE(v.key_order) << "a key-ordered store cannot scan";
    }

    store.reset();
    pool->SimulateCrash();
    FsckReport fsck = FsckPool(*pool);
    EXPECT_TRUE(fsck.ok) << fsck.Summary();
    EXPECT_EQ(fsck.live_keys, kKeys);
    store = FlatStore::Open(pool.get(), fo);
    EXPECT_EQ(store->Size(), kKeys);
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(store->Get(k, &value)) << "key " << k << " lost";
      ASSERT_EQ(value.size(), workload::Generator::EtcValueLen(k, kKeys));
    }
  }

  pm::PmPool::Options po;
  po.size = 512ull << 20;
  pm::PmPool pool(po);
  BaselineStore::Options bo;
  bo.num_cores = 4;
  auto baseline = BaselineStore::Create(&pool, bo);
  BaselineAdapter adapter(baseline.get());
  Preload(&adapter, w, kKeys);
  std::string value;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(baseline->Get(k, &value)) << "baseline key " << k;
    ASSERT_EQ(value.size(), workload::Generator::EtcValueLen(k, kKeys));
  }
}

}  // namespace
}  // namespace core
}  // namespace flatstore
