// Multi-core server runtime + simulated clients.
//
// Reproduces the paper's experimental setup: clients post requests
// asynchronously over FlatRPC to key-hash-selected server cores
// ("default client batchsize is 8", §5); each server core runs a poll →
// process → g-persist → respond loop on its own virtual clock; the
// pipelined-HB follower path keeps polling new requests while waiting for
// leaders. Throughput is total completed operations over the maximum
// simulated core time; latency is measured at the (simulated) client.
//
// The runtime drives any engine through EngineAdapter, so FlatStore
// variants and the persistent-index baselines run under the *identical*
// request stream and network model — exactly what the paper's comparison
// requires.

#ifndef FLATSTORE_CORE_SERVER_H_
#define FLATSTORE_CORE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/baseline.h"
#include "core/flatstore.h"
#include "net/flatrpc.h"
#include "workload/workload.h"

namespace flatstore {
namespace core {

// Per-core asynchronous engine interface the server loop drives.
class EngineAdapter {
 public:
  enum class Submit {
    kPending,
    kDoneNow,
    kNotFound,
    kBusy,
    kBackpressure,
    kCasMismatch,   // txn only: a compare failed; nothing was applied
    kUnsupported,   // txn only: engine has no transaction support
  };

  virtual ~EngineAdapter() = default;

  virtual int num_cores() const = 0;
  virtual int CoreForKey(uint64_t key) const = 0;
  // Socket `core`'s serving thread is bound to; the runtime stamps each
  // core clock's socket from this, which is what makes remote-socket
  // surcharges bite. Default: everything on socket 0.
  virtual int SocketForCore(int core) const {
    (void)core;
    return 0;
  }
  virtual const char* Name() const = 0;

  // Batched write admission: fills `out[i]` with each op's Submit status
  // (kPending, kDoneNow, kNotFound or kBackpressure). kPending ops
  // complete through Drain with their `tag`. Engines with a fused write
  // pipeline stage the whole batch as one group (one log reservation, one
  // fence pair); synchronous engines apply the ops one by one. Requires
  // n <= kMaxWriteBatch. Returns the number admitted as kPending.
  struct WriteReq {
    uint64_t key;
    const void* value;
    uint32_t len;
    bool tombstone;
    uint64_t tag;
  };
  virtual size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                                  Submit* out) = 0;

  // Batched immediate read: fills results[i] for keys[i]; keys with an
  // in-flight write come back GetResult::kDeferred and must be retried
  // after a drain. Returns the number of keys served (non-deferred).
  // Requires n <= kMaxReadBatch.
  virtual size_t MultiGet(int core, const uint64_t* keys, size_t n,
                          ReadResult* results) = 0;

  // Single-op forms: a one-op SubmitWriteBatch and a one-key MultiGet.
  // The server calls only the batched entry points; these stay virtual so
  // wrapping adapters can forward them.
  virtual Submit SubmitPut(int core, uint64_t key, const void* value,
                           uint32_t len, uint64_t tag) {
    const WriteReq req{key, value, len, /*tombstone=*/false, tag};
    Submit st;
    SubmitWriteBatch(core, &req, 1, &st);
    return st;
  }
  virtual Submit SubmitDelete(int core, uint64_t key, uint64_t tag) {
    const WriteReq req{key, nullptr, 0, /*tombstone=*/true, tag};
    Submit st;
    SubmitWriteBatch(core, &req, 1, &st);
    return st;
  }
  // False when the key is absent or deferred (a write is in flight).
  virtual bool Get(int core, uint64_t key, std::string* value) {
    ReadResult r;
    r.value.swap(*value);
    MultiGet(core, &key, 1, &r);
    value->swap(r.value);
    return r.status == GetResult::kFound;
  }

  // True while a write on `key` is still in flight on `core` (a read of
  // it is deferred — the conflict queue). Default: engines that complete
  // writes synchronously never have one in flight.
  virtual bool KeyBusy(int core, uint64_t key) const {
    (void)core;
    (void)key;
    return false;
  }

  // Immediate range read: up to `count` live pairs with key >= start_key,
  // served on `core`. Returns false if the engine has no ordered access
  // path (the server answers kUnsupported); engines that do set *found.
  virtual bool Scan(int core, uint64_t start_key, uint64_t count,
                    uint64_t* found) {
    (void)core;
    (void)start_key;
    (void)count;
    (void)found;
    return false;
  }

  // Submits an atomic multi-op transaction (§5.3) on `core`. A kPending
  // txn surfaces through Drain as ONE completion with this `tag` once the
  // whole chain is durable; kDoneNow means the txn committed with no
  // effect (all ops were no-ops). kCasMismatch / kBusy / kBackpressure
  // stage nothing. Engines without txn support return kUnsupported.
  // Every member routes to `core` (CoreForKey); the server answers a txn
  // that spans cores kUnsupported without submitting it.
  virtual Submit SubmitTxn(int core, const TxnOp* ops, size_t n,
                           uint64_t tag) {
    (void)core;
    (void)ops;
    (void)n;
    (void)tag;
    return Submit::kUnsupported;
  }

  // One g-persist attempt (no-op for synchronous engines). Returns the
  // number of entries persisted by this call. Under RunServer every
  // core's clock carries its idle mark (vt::CoreIdle), which FlatStore's
  // HB leader election reads.
  virtual size_t Pump(int core) = 0;

  // A completed pending op: its tag and the simulated instant its persist
  // finished (responses must not precede it).
  struct Done {
    uint64_t tag;
    uint64_t done_time;
  };

  // Appends newly completed pending ops.
  virtual size_t Drain(int core, std::vector<Done>* done) = 0;
};

// Adapter over FlatStore's async protocol.
class FlatStoreAdapter final : public EngineAdapter {
 public:
  explicit FlatStoreAdapter(FlatStore* store) : store_(store) {}
  int num_cores() const override { return store_->options().num_cores; }
  int CoreForKey(uint64_t key) const override {
    return store_->CoreForKey(key);
  }
  int SocketForCore(int core) const override {
    return store_->SocketForCore(core);
  }
  const char* Name() const override {
    return IndexKindName(store_->options().index);
  }
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override;
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  ReadResult* results) override {
    return store_->MultiGetOnCore(core, keys, n, results);
  }
  bool KeyBusy(int core, uint64_t key) const override {
    return store_->KeyBusy(core, key);
  }
  bool Scan(int core, uint64_t start_key, uint64_t count,
            uint64_t* found) override;
  Submit SubmitTxn(int core, const TxnOp* ops, size_t n,
                   uint64_t tag) override;
  size_t Pump(int core) override { return store_->Pump(core); }
  size_t Drain(int core, std::vector<Done>* done) override;

 private:
  struct PendingTag {
    FlatStore::OpHandle handle;
    uint64_t tag;
  };
  // FIFO ring of in-flight tags per core. Population is bounded like the
  // engine's pending ring (BeginWriteBatch admits a batch only if all its
  // ops fit), so a fixed ring replaces a vector with O(n) front-erase.
  struct TagRing {
    std::unique_ptr<PendingTag[]> slots{
        new PendingTag[batch::HbEngine::kPoolSlots]};
    size_t head = 0;
    size_t count = 0;

    void Push(const PendingTag& t) {
      FLATSTORE_DCHECK(count < batch::HbEngine::kPoolSlots);
      slots[(head + count) % batch::HbEngine::kPoolSlots] = t;
      count++;
    }
    const PendingTag& At(size_t i) const {
      FLATSTORE_DCHECK(i < count);
      return slots[(head + i) % batch::HbEngine::kPoolSlots];
    }
    void PopN(size_t n) {
      FLATSTORE_DCHECK(n <= count);
      head = (head + n) % batch::HbEngine::kPoolSlots;
      count -= n;
    }
  };
  FlatStore* store_;
  std::vector<TagRing> pending_ = std::vector<TagRing>(log::kMaxCores);
  // Per-core completion scratch, reused across Drain calls so the serving
  // loop stops heap-allocating a vector per drain (steady state: zero
  // allocations once each core's vector reached its high-water capacity).
  std::vector<std::vector<FlatStore::Completion>> completions_ =
      std::vector<std::vector<FlatStore::Completion>>(log::kMaxCores);
};

// Adapter over the synchronous baseline engines.
class BaselineAdapter final : public EngineAdapter {
 public:
  explicit BaselineAdapter(BaselineStore* store) : store_(store) {}
  int num_cores() const override { return store_->num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return store_->CoreForKey(key);
  }
  const char* Name() const override { return store_->Name(); }
  // Per-op loops: a synchronous engine has no batched pipeline, so it
  // stays correct (and measurably serial) under the batched server loop.
  // Every write completes at once and no read is ever deferred.
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override {
    for (size_t i = 0; i < n; i++) {
      if (reqs[i].tombstone) {
        out[i] = store_->DeleteOnCore(core, reqs[i].key) ? Submit::kDoneNow
                                                         : Submit::kNotFound;
      } else {
        store_->PutOnCore(core, reqs[i].key, reqs[i].value, reqs[i].len);
        out[i] = Submit::kDoneNow;
      }
    }
    return 0;
  }
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  ReadResult* results) override {
    for (size_t i = 0; i < n; i++) {
      results[i].value.clear();
      results[i].status = store_->GetOnCore(core, keys[i], &results[i].value)
                              ? GetResult::kFound
                              : GetResult::kAbsent;
    }
    return n;
  }
  size_t Pump(int) override { return 0; }
  size_t Drain(int, std::vector<Done>*) override { return 0; }

 private:
  BaselineStore* store_;
};

// Benchmark-run configuration.
struct ServerConfig {
  int num_conns = 8;          // simulated client connections
  int client_window = 8;      // async requests in flight per connection
  uint64_t ops_per_conn = 10000;
  // Gets polled by a core in one quantum are served as a single MultiGet
  // batch of (up to) this size and their responses are posted as one
  // doorbell chain. <= 1 selects the paper's per-request schedule: each
  // Get is served as a one-key MultiGet as it is polled. Clamped to
  // kMaxReadBatch.
  int read_batch = 16;
  // Puts/Deletes polled by a core in one quantum are admitted as one
  // fused write batch of (up to) this size (EngineAdapter::
  // SubmitWriteBatch) and their responses are posted as one doorbell
  // chain. <= 1 selects the paper's per-request schedule: each write is
  // staged as a one-op batch as it is polled, so HB leaders can steal it
  // while the core keeps polling. Clamped to kMaxWriteBatch.
  int write_batch = 16;
  // When > 0, every txn_every-th write a connection issues goes out as a
  // kTxn request instead: an atomic batch of txn_size puts on same-core
  // keys (scanned upward from the workload key; member values capped at
  // 128 B so the encoded txn fits the message buffer). 0 disables
  // transactions. Engines without txn support answer kUnsupported, which
  // the client counts as completed.
  int txn_every = 0;
  int txn_size = 4;
  workload::Config workload;
  bool all_to_all_qps = false;
  uint64_t seed = 1;
  // Open-loop arrival process (offered-load sweeps): each connection
  // draws exponential inter-arrival gaps so the fleet offers
  // `offered_mops` million ops/s in aggregate, independent of service
  // progress. Requests are stamped with their *scheduled* arrival
  // instant and latency is measured from it, so driving the server past
  // saturation shows up as unbounded queueing delay instead of silently
  // throttling the offered load (the closed-loop default's behaviour).
  // The client window still bounds in-flight requests per connection;
  // window-full time counts as queueing latency.
  bool open_loop = false;
  double offered_mops = 1.0;  // aggregate across all connections
};

// Aggregated result of one run.
struct ServerResult {
  uint64_t ops = 0;
  uint64_t sim_ns = 0;    // max simulated core time
  double mops = 0;        // ops / sim time
  Histogram latency;      // client-observed, simulated ns
  std::vector<uint64_t> core_ns;  // per-core simulated time
  // Simulated time the cores spent waiting, summed over cores (a share
  // of the sum of core_ns): for a request to arrive, and as idle HB
  // leaders for an entry to be staged (vt::Clock::idle_ns).
  uint64_t idle_ns = 0;
};

// Runs the full client/server simulation until every connection finishes
// its quota; returns aggregate metrics.
ServerResult RunServer(EngineAdapter* engine, const ServerConfig& config);

// Bulk-loads `keys` sequential keys before a measured run (the paper
// preloads the key range). Values use the workload's sizing rule. Keys
// are routed into per-core batches of up to kMaxWriteBatch; when one
// fills, every core's batch is submitted as one fused SubmitWriteBatch
// and all cores are pumped and drained until nothing is in flight, so HB
// leaders fuse the staged groups into few log appends. Synchronous
// engines answer kDoneNow and need no pumping.
void Preload(EngineAdapter* engine, const workload::Config& workload,
             uint64_t keys);

}  // namespace core
}  // namespace flatstore

#endif  // FLATSTORE_CORE_SERVER_H_
