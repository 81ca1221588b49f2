// FlatStore — the key-value storage engine (the paper's contribution).
//
// Composition (paper Fig. 2): per-core compacted OpLogs over an emulated
// PM pool, the lazy-persist allocator for out-of-log values, pipelined
// horizontal batching for the g-persist phase, a volatile index (per-core
// CCEH for FlatStore-H, a global Masstree for FlatStore-M, or a volatile
// FAST&FAIR for the FlatStore-FF ablation), per-core conflict queues, log
// cleaning, and crash/clean-shutdown recovery.
//
// Two API levels:
//
//  * Synchronous convenience (Put/Get/Delete/Scan): runs the asynchronous
//    protocol inline on the calling thread as batches of one. Used by
//    examples, tests, and single-threaded tools.
//
//  * Asynchronous per-core protocol, used by the server runtime
//    (core/server.h) to reproduce the paper's pipelined processing. Every
//    call takes a batch; a single op is a batch of one, which skips the
//    batch-only work (deduplication, prefetching) and so costs what a
//    dedicated single-op path would:
//
//      BeginWriteBatch  -> l-persist + stage in the request pool
//      Pump             -> one g-persist attempt (leader election)
//      Drain            -> completed ops: volatile-index update,
//                          old-entry retirement, conflict release
//      MultiGetOnCore   -> immediate reads through the volatile index
//
//    Keys are partitioned across cores by key hash (CoreForKey). The
//    per-core conflict queue (paper §3.3 Discussion) prevents pipelined-HB
//    *reordering*: same-key writes pipeline freely (FIFO drains keep them
//    ordered; versions chain through the in-flight table), but a read of
//    a key with in-flight writes is deferred (GetResult::kDeferred) so it
//    cannot miss a preceding Put.

#ifndef FLATSTORE_CORE_FLATSTORE_H_
#define FLATSTORE_CORE_FLATSTORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/hb_engine.h"
#include "common/epoch.h"
#include "common/logging.h"
#include "common/open_table.h"
#include "common/spin_lock.h"
#include "index/kv_index.h"
#include "log/layout.h"
#include "log/log_cleaner.h"
#include "log/oplog.h"

namespace flatstore {
namespace core {

// Which volatile index backs the store (paper §4.1/§4.2/§5.1).
enum class IndexKind {
  kHash,              // FlatStore-H: one CCEH partition per core
  kMasstree,          // FlatStore-M: global ordered index
  kFastFairVolatile,  // FlatStore-FF: global volatile FAST&FAIR
};

const char* IndexKindName(IndexKind kind);

// Engine configuration.
struct FlatStoreOptions {
  int num_cores = 4;
  // Horizontal-batching group size (the paper groups cores by socket).
  int group_size = 4;
  batch::BatchMode batch_mode = batch::BatchMode::kPipelinedHB;
  IndexKind index = IndexKind::kHash;
  // log2 of each per-core CCEH partition's initial segment count.
  uint32_t hash_initial_depth = 6;
  // Pad log batches to cachelines (§3.2); ablation toggle.
  bool pad_batches = true;
  // Log cleaning (§3.4). See log::LogCleaner::Options for semantics.
  double gc_live_ratio = 0.9;
  uint64_t gc_quantum_bytes = 0;         // 0 = unbounded passes
  size_t gc_max_victims = 4;             // in-flight cleaning jobs per core
  bool gc_segregate = true;              // hot/cold survivor lanes
  uint64_t gc_cold_age = 512;            // write-clock ticks
  // Arms allocator backpressure: at this many free chunks the cleaner's
  // quantum budget is boosted; at a quarter of it, unbounded. 0 = off.
  uint64_t gc_backpressure_watermark = 0;
  // NUMA placement (multi-socket pools only; single-socket stores are
  // unaffected either way). On: each core's log segments and value blocks
  // come from its own socket's chunk pool (the allocator's default), HB
  // groups never straddle a socket boundary (a leader always persists to
  // DIMMs on its own socket), and the volatile indexes are homed
  // per-socket — per-core CCEH partitions carry their core's socket, the
  // tree indexes become a NUMA-braided per-socket forest. Off: PM chunks
  // are dealt round-robin across sockets (interleaved first-touch — about
  // half of every core's persists cross the link), indexes are built
  // socket-interleaved (every node miss pays half the remote surcharge),
  // and group alignment is not enforced — the placement-off arm of the
  // scaling A/B.
  bool socket_local_placement = true;
  // Keep key order for Scan (DESIGN.md §11): a FlatStore-H store keeps a
  // sorted DRAM run of its keys, so Scan needs no full index iteration.
  // Ordered indexes keep their own order and ignore it. The name is kept
  // for perfbench, which sets it; rename it to key_ordered with the next
  // benchmark change.
  bool tier_enabled = false;
};

// Per-op result of BeginWriteBatch / MultiPutOnCore.
enum class OpStatus {
  kOk,            // staged (or absorbed by a later Put of its batch)
  kBackpressure,  // request pool full — Pump + Drain, then retry
  kNotFound,      // delete of an absent key (completed immediately)
  kNoSpace,       // PM exhausted
};

// Per-key outcome of a MultiGet batch.
enum class GetResult : uint8_t {
  kFound,     // value filled
  kAbsent,    // no live version (missing key or tombstone)
  kDeferred,  // write in flight on this key — retry after the next drain
};

struct ReadResult {
  GetResult status = GetResult::kAbsent;
  std::string value;
};

// Upper bound on one MultiGet batch, fixed so all per-batch state (hints,
// packed values, read completions) lives on the stack.
inline constexpr size_t kMaxReadBatch = 64;

// Capacity of a hash store's new-key buffer (DESIGN.md §11): the keys
// its index gained since the last fold into the sorted key run. A full
// buffer folds at once; every RunCleanersOnce folds what is left.
inline constexpr size_t kKeyBufferCap = 4096;

// Merges the `m` sorted, distinct `keys` into the sorted, distinct
// `buf[0, n)`, which has room for n + m, in one backward pass; keys `buf`
// already holds are skipped (`keys` is compacted in place to the rest).
// Returns the new count and sets `*moved` to the `buf` keys it shifted.
size_t MergeNewKeys(uint64_t* buf, size_t n, uint64_t* keys, size_t m,
                    size_t* moved);

// Upper bound on one MultiPut batch. Must fit in one fused HB group
// (batch::HbEngine::kMaxBatch) so the whole client batch persists through
// a single OpLog::AppendBatch; sized below it so a leader batch can still
// merge a fused group with neighbouring singles.
inline constexpr size_t kMaxWriteBatch = 32;

// One write of a MultiPut batch: an upsert of `len` value bytes, or —
// when `tombstone` is set — a delete (`value`/`len` ignored).
struct WriteOp {
  uint64_t key = 0;
  const void* value = nullptr;
  uint32_t len = 0;
  bool tombstone = false;
};

// ---- transactions (§5.3) ----

// Upper bound on ops per transaction. The whole chain plus its commit
// record must fit in one fused HB group so the txn persists through one
// log reservation, one persist sweep, and two fences.
inline constexpr size_t kMaxTxnOps = 24;

enum class TxnOpKind : uint8_t {
  kPut,     // unconditional upsert
  kDelete,  // tombstone (skipped if the key is absent)
  kCas,     // compare-and-swap: commit iff current value == expected
  kRmw,     // read-modify-write through a callback
};

// Read-modify-write callback: `cur` is the key's current value (nullptr
// if absent), `out` has `cap` = log::kMaxInlineValue bytes of room; the
// function writes the new value and returns its length (1..cap).
using TxnRmwFn = uint32_t (*)(void* ctx, const void* cur, uint32_t cur_len,
                              uint8_t* out, uint32_t cap);

// One transaction operation. For kCas, `expected == nullptr` means
// "expect the key absent"; otherwise `expected/expected_len` is compared
// byte-wise against the current value.
struct TxnOp {
  TxnOpKind kind = TxnOpKind::kPut;
  uint64_t key = 0;
  const void* value = nullptr;  // kPut / kCas: the new value
  uint32_t len = 0;
  const void* expected = nullptr;  // kCas only
  uint32_t expected_len = 0;
  TxnRmwFn rmw = nullptr;  // kRmw only
  void* rmw_ctx = nullptr;
};

// Outcome of a transaction commit attempt.
enum class TxnStatus : uint8_t {
  kCommitted,     // staged atomically (or trivially empty)
  kCasMismatch,   // a kCas op failed its compare — nothing staged
  kBusy,          // a txn key has in-flight writes — pump/drain, retry
  kBackpressure,  // request pool lacked room for the group — retry
  kNoSpace,       // PM exhausted — nothing staged
};

const char* TxnStatusName(TxnStatus status);

// The engine.
class FlatStore {
 public:
  using OpHandle = uint64_t;

  // A finished asynchronous op.
  struct Completion {
    OpHandle handle;
    uint64_t key;
    uint64_t done_time;  // simulated completion timestamp
  };

  // Creates a fresh store: formats the pool's root area and allocator
  // region. The pool must be at least a few chunks big.
  static std::unique_ptr<FlatStore> Create(pm::PmPool* pool,
                                           const FlatStoreOptions& options);

  // Opens an existing pool: after a clean shutdown, loads the index
  // checkpoint; after a crash, replays the OpLogs (paper §3.5). The
  // options must use the same num_cores the pool was created with.
  static std::unique_ptr<FlatStore> Open(pm::PmPool* pool,
                                         const FlatStoreOptions& options);

  ~FlatStore();
  FlatStore(const FlatStore&) = delete;
  FlatStore& operator=(const FlatStore&) = delete;

  // Server core responsible for `key`.
  int CoreForKey(uint64_t key) const;

  // ---- synchronous convenience API ----

  // Inserts/updates (a one-op MultiPutOnCore). `value` must be non-empty
  // and at most 4 MB - 4 KB.
  void Put(uint64_t key, std::string_view value);
  // Reads into `*value` (a one-key MultiGetOnCore; a write in flight on
  // the key is pumped and drained first); false, with `*value` cleared,
  // if absent.
  bool Get(uint64_t key, std::string* value);
  // Removes (a one-op MultiPutOnCore); false if absent.
  bool Delete(uint64_t key);
  // Ordered scan: up to `count` pairs with key >= start_key. Served by
  // the ordered index (kMasstree / kFastFairVolatile), or — for kHash
  // stores that keep key order — by a merge of the store's sorted key
  // run with its new-key buffer (DESIGN.md §11).
  uint64_t Scan(uint64_t start_key, uint64_t count,
                std::vector<std::pair<uint64_t, std::string>>* out);
  // True when Scan has an ordered access path (ordered index or key
  // order).
  bool CanScan() const;
  // Baseline range scan for hash stores WITHOUT key order: enumerates
  // every index entry on every core, sorts the survivors, reads values.
  // This is the only range query a pure hash index supports; bench_scan
  // quotes it as the key-ordered merge's comparison arm.
  uint64_t ScanFullIteration(
      uint64_t start_key, uint64_t count,
      std::vector<std::pair<uint64_t, std::string>>* out);

  // ---- asynchronous per-core protocol ----

  // One g-persist attempt (leader election / self-batch). Returns the
  // number of entries persisted by this call.
  size_t Pump(int core);
  // Completes up to `max` finished ops in FIFO order: updates the
  // volatile index, retires superseded entries, releases conflict-queue
  // slots. Appends to `*out` if non-null.
  size_t Drain(int core, size_t max, std::vector<Completion>* out);
  // Number of staged-but-incomplete ops on `core`.
  size_t Inflight(int core) const;
  // True while a write on `key` is in flight on its core. Reads of busy
  // keys are deferred (conflict queue, §3.3 Discussion).
  bool KeyBusy(int core, uint64_t key) const;
  // Batched read on the owning core: one epoch pin per batch (none when
  // every key is deferred), then a prefetch-interleaved pipeline — phase
  // A hashes/routes every key and issues software prefetches
  // (index::KvIndex::PrefetchGet), phase B completes the probes on warm
  // lines, phase C issues all log-entry header reads back-to-back and
  // consumes them in order, phase D does the same for out-of-log value
  // blocks. Duplicate keys are coalesced:
  // only a key's first occurrence runs the pipeline, and each repeat
  // copies its status and value. Independent misses are amortized by
  // min(probing keys, vt::kMemParallelism). A one-key read pays no dedup
  // probe and a lone probe no prefetch, so it costs one plain index
  // probe plus one entry read. Keys with in-flight writes come back
  // kDeferred in every copy and must be retried after a drain.
  // Requires n <= kMaxReadBatch. Returns the number of keys served (i.e.
  // with status != kDeferred), counting every copy.
  size_t MultiGetOnCore(int core, const uint64_t* keys, size_t n,
                        ReadResult* results);
  // Batched write admission on the owning core (the write-side analogue
  // of MultiGetOnCore): phase A issues every version-resolution index
  // probe with software prefetches (index::KvIndex::PrefetchGet), phase B
  // completes them on warm lines under one overlap window, phase C
  // encodes all entries and l-persists every out-of-log value with a
  // SINGLE trailing fence, phase D stages the whole batch as ONE fused HB
  // group (batch::HbEngine::StageBatch) so the leader persists it through
  // one log reservation and one fence pair. Duplicate keys are absorbed:
  // only a key's first occurrence probes the index, and an op followed
  // later in the batch by a Put of its key stages nothing — it completes
  // with that Put, whose handle it carries (DESIGN.md §5.2). Same-key
  // writes that do stage chain versions within the batch and behind any
  // in-flight ops; a key with a write in flight skips the index probe
  // unless the batch holds a tombstone for it. Only batches holding a
  // tombstone take an epoch pin (before probing). A batch of one pays no
  // dedup probe and a lone probe no prefetch (DESIGN.md §5.1). `core`
  // must equal CoreForKey of every key. Per-op `statuses[i]`: kOk
  // (accepted — staged or absorbed; `handles[i]` valid), kNotFound
  // (tombstone for an absent key; nothing staged), kBackpressure (the
  // pending ring or the HB pool lacked room for the whole batch —
  // admission is all-or-nothing), or kNoSpace (PM exhausted; batch
  // aborted). Requires n <= kMaxWriteBatch.
  // Returns the number accepted (ops with status kOk), absorbed ones
  // included — not the number of staged log entries.
  size_t BeginWriteBatch(int core, const WriteOp* ops, size_t n,
                         OpHandle* handles, OpStatus* statuses);
  // Synchronous batched write: BeginWriteBatch + Pump/Drain to
  // completion, retrying on backpressure. Returns the number applied
  // (ops with status kOk, absorbed ones included).
  size_t MultiPutOnCore(int core, const WriteOp* ops, size_t n,
                        OpStatus* statuses);

  // ---- transactions (§5.3) ----

  // Sentinel handle for a trivially committed (empty-effect) transaction.
  static constexpr OpHandle kNoOpHandle = UINT64_MAX;

  // Stages `ops` as one atomic transaction: a write batch with the chain
  // flag (StageWrites, DESIGN.md §5.3). Members are marked and encode
  // back-to-back, and a commit record (count, byte length, XXH64
  // checksum) joins the same fused group — one reservation, one persist
  // sweep, two fences. All keys must route to `core`; a key with in-flight
  // writes fails the whole txn with kBusy (so kCas/kRmw read stable
  // committed state). Ops resolve in order with read-your-writes inside
  // the txn, under the write batch's rules: one index probe per distinct
  // key, an epoch pin only when some op is a kDelete, kCas or kRmw, and a
  // kDelete of a key known absent stages nothing (a no-op member); unlike
  // a write batch, no member is absorbed. On kCommitted, `*commit_handle`
  // is the commit record's handle — ONE Completion per txn surfaces
  // through Drain, carrying it (members complete silently) — or
  // kNoOpHandle when no member staged. Any failure stages nothing
  // (`*failed_op` = the offending op for kBusy/kCasMismatch). Crash
  // semantics: a torn commit recovers to "nothing happened"; a durable
  // commit recovers every op.
  TxnStatus BeginTxn(int core, const TxnOp* ops, size_t n,
                     OpHandle* commit_handle, size_t* failed_op = nullptr);
  // Synchronous wrapper: BeginTxn + Pump/Drain to completion, retrying
  // kBusy/kBackpressure.
  TxnStatus CommitTxnOnCore(int core, const TxnOp* ops, size_t n,
                            size_t* failed_op = nullptr);

  // Convenience transaction builder over owned values; all keys must
  // route to one core (checked at Commit).
  class Txn;

  // ---- lifecycle ----

  // Starts one background log cleaner per HB group (§3.4).
  void StartCleaners();
  void StopCleaners();
  // Runs one synchronous maintenance pass on every group (deterministic
  // benchmarks drive GC this way instead of via background threads):
  // victims are relocated, and a key-ordered store's new-key buffer is
  // folded into its key run. Returns the amount of work finished
  // (victims unlinked plus epoch-deferred frees executed). With
  // unbounded passes 0 means nothing is left to do; with
  // gc_quantum_bytes set, a pass that only advanced parked jobs also
  // returns 0.
  size_t RunCleanersOnce();

  // Forces log rotation on every core (OpLog::SealActiveChunk): partially
  // filled serving chunks become sealed and thus GC-eligible. Crash tests
  // use this to stage deterministic cleaning scenarios cheaply.
  void SealActiveLogChunks();

  // perfbench calls it; remove with the next benchmark change. Forwards
  // to RunCleanersOnce.
  size_t RunTieringOnce();
  // perfbench reads it; remove with the next benchmark change. Always 0.
  uint64_t ChunksTiered() const { return 0; }

  // Per-phase host timings of the last Open's recovery (bench_recovery,
  // perfbench).
  struct RecoveryStats {
    // perfbench reads it; remove with the next benchmark change. Always 0.
    uint64_t tier_load_ns = 0;
    // Pass 1: the per-core log walk.
    uint64_t replay_ns = 0;
    // Pass 2: the index walk giving chunks their live counters and
    // marking live blocks, then the allocator's rebuild.
    uint64_t usage_ns = 0;
    uint64_t chunks_replayed = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // Normal shutdown (§3.5): checkpoints the volatile index to PM, flushes
  // allocator bitmaps, sets the shutdown flag. The store must be idle.
  void Shutdown();

  // Online checkpoint (§3.5 extension: "checkpoint the volatile index
  // into PMs periodically when the CPU is not busy"): records the current
  // index + per-core log positions so a later crash replays only the log
  // suffix written since. The store must be momentarily idle (no in-
  // flight ops); serving may resume immediately afterwards. Cleaners are
  // paused during the checkpoint (a chunk freed after the checkpoint
  // invalidates it — OpLog::ReleaseChunk clears the flag).
  void CheckpointNow();

  // ---- introspection ----
  index::KvIndex* IndexForCore(int core) const;
  // Socket `core`'s serving thread is bound to (contiguous layout over
  // the pool's sockets, mirroring the allocator's chunk-pool preference).
  // The server runtime sets each core clock's socket from this.
  int SocketForCore(int core) const {
    return alloc_->SocketForCore(core);
  }
  log::OpLog* LogForCore(int core) { return logs_[core].get(); }
  batch::HbEngine* hb() { return hb_.get(); }
  alloc::LazyAllocator* allocator() { return alloc_.get(); }
  log::RootArea* root() { return root_.get(); }
  // Epoch manager guarding log-entry dereferences (tests pin guest slots
  // through it to hold reclamation off).
  common::EpochManager* epochs() { return epochs_.get(); }
  const FlatStoreOptions& options() const { return options_; }
  uint64_t Size() const;
  // Total chunks cleaned by all cleaners (Fig. 13).
  uint64_t ChunksCleaned() const;

 private:
  FlatStore(pm::PmPool* pool, const FlatStoreOptions& options);

  void BuildIndexes();
  void EnsureCleaners();
  // Whether the store keeps a key order (DESIGN.md §11): a hash store,
  // whose index cannot enumerate keys in order, with tier_enabled set.
  bool KeyOrdered() const {
    return options_.index == IndexKind::kHash && options_.tier_enabled;
  }
  // Scan served by a merge of the key run with the new-key buffer — the
  // ordered path of FlatStore-H.
  uint64_t ScanMerged(uint64_t start_key, uint64_t count,
                      std::vector<std::pair<uint64_t, std::string>>* out);
  // Adds `n` keys that a Drain round inserted into the index afresh to
  // the new-key buffer: sorts them (in place) and merges them in with
  // MergeNewKeys, folding the buffer whenever it fills.
  void NoteNewKeys(uint64_t* keys, size_t n);
  // If the buffer holds max(`min_keys`, 1) keys or more, merges them
  // into a fresh run (charged CostMemcpy of the run) outside
  // key_buf_lock_, then publishes the run, retires the old one and drops
  // the folded keys from the buffer under it. Returns the epoch-deferred
  // frees it ran afterwards.
  size_t FoldKeys(size_t min_keys);
  // Replaces the run with every key the index holds (end of Recover).
  void BuildKeyRun();
  // Crash-recovery replay / usage rebuild (also used after clean open to
  // rebuild allocator bitmaps + chunk usage): one per-core pass walks the
  // log, one walk of the recovered index gives chunk liveness (DESIGN.md
  // §3.5). `rebuild_index` is false when the checkpoint already
  // provided the index.
  void Recover(bool rebuild_index);
  void LoadCheckpoint();
  void WriteCheckpoint();

  // One in-flight op's bookkeeping.
  struct PendingOp {
    OpHandle handle;
    uint64_t key;
    uint32_t version;
    // Transaction roles: a member drains like a normal op but emits no
    // Completion (the txn completes as a unit); the commit record does
    // no index/in-flight work, retires itself (born dead), and emits the
    // txn's single Completion.
    bool txn_member = false;
    bool txn_commit = false;
    // Superseded within its write batch by a later Put of the same key
    // (DESIGN.md §5.2): `handle` is that Put's, so the op completes with
    // it; it does no index insert, retire or slot release of its own.
    bool absorbed = false;
  };

  // In-flight same-key write chain: count of pending ops and the version
  // of the newest one (the next op continues the chain).
  struct InflightKey {
    uint32_t count = 0;
    uint32_t last_version = 0;
  };

  // Per-core serving state. All containers are allocation-free in steady
  // state: `pending` is a fixed FIFO ring (BeginWriteBatch admits a batch
  // only if all its ops fit, since absorbed ops take no HB pool slot) and
  // `inflight_keys` is an open-addressed table pre-sized for that same
  // bound.
  struct alignas(64) CoreState {
    CoreState()
        : pending(new PendingOp[batch::HbEngine::kPoolSlots]),
          inflight_keys(2 * batch::HbEngine::kPoolSlots) {}

    std::unique_ptr<PendingOp[]> pending;
    size_t pend_head = 0;   // ring index of the oldest pending op
    size_t pend_count = 0;
    common::OpenTable<InflightKey> inflight_keys;
    // StageWrites' committed-value reads for CAS/RMW, by first-occurrence
    // position; the strings keep their capacity across batches.
    ReadResult reads[kMaxWriteBatch];

    PendingOp& Front() { return pending[pend_head]; }
    void Push(const PendingOp& op) {
      FLATSTORE_DCHECK(pend_count < batch::HbEngine::kPoolSlots);
      pending[(pend_head + pend_count) % batch::HbEngine::kPoolSlots] = op;
      pend_count++;
    }
    void Pop() {
      FLATSTORE_DCHECK(pend_count > 0);
      pend_head = (pend_head + 1) % batch::HbEngine::kPoolSlots;
      pend_count--;
    }
  };

  // Retires the superseded entry `old_packed` of `key` (caller holds an
  // epoch pin so the entry's chunk cannot be freed mid-decode).
  void RetireOld(uint64_t old_packed);

  // The one write-staging routine (DESIGN.md §5.2, §5.3) behind
  // BeginWriteBatch, MultiPutOnCore and BeginTxn. `txn` is the chain
  // flag: members are marked (log::MarkTxnMember), nothing is absorbed,
  // CAS/RMW ops are allowed, a checksummed commit record joins the fused
  // group and handles[n] receives its handle (kNoOpHandle when nothing
  // staged). Returns kCommitted when the ops are staged or resolved to
  // not-found deletes (per-op `statuses`), else the failure: nothing is
  // then staged and `*failed_op` (if non-null) names a mismatching CAS.
  // Requires n <= kMaxWriteBatch (kMaxTxnOps for a txn).
  TxnStatus StageWrites(int core, const TxnOp* ops, size_t n, bool txn,
                        OpHandle* handles, OpStatus* statuses,
                        size_t* failed_op);
  // The synchronous write calls' retry-then-drain loop around `stage`
  // (MultiPutOnCore, CommitTxnOnCore).
  template <typename Stage>
  TxnStatus StageToCompletion(int core, Stage stage);

  // The one read-resolution path (DESIGN.md §5.1), shared by point reads
  // and every scan. ProbeBatch is phases A and B: key i probes idx[i],
  // all probes under one overlap window of min(n, kMemParallelism) ways,
  // prefetched first when there are two or more; found[i] and packed[i]
  // receive the outcome. FetchBatch is phases C and D for every
  // results[i] whose status is kFound on entry: one overlapped wave of
  // charged entry-header reads, one of out-of-log value blocks, then the
  // copies into results[i]->value; a tombstone turns kFound into kAbsent.
  // Both require n <= kMaxReadBatch and an epoch pin held by the caller.
  void ProbeBatch(index::KvIndex* const* idx, const uint64_t* keys, size_t n,
                  bool* found, uint64_t* packed) const;
  void FetchBatch(const uint64_t* packed, size_t n,
                  ReadResult* const* results) const;
  // One scan window: fetches keys[i] (found[i], or every key when `found`
  // is null) through FetchBatch and appends the live pairs to `out` in
  // order. Returns how many it appended.
  uint64_t FetchWindow(
      const uint64_t* keys, const bool* found, const uint64_t* packed,
      size_t n, std::vector<std::pair<uint64_t, std::string>>* out) const;

  pm::PmPool* pool_;
  FlatStoreOptions options_;
  std::unique_ptr<log::RootArea> root_;
  std::unique_ptr<alloc::LazyAllocator> alloc_;
  std::vector<std::unique_ptr<log::OpLog>> logs_;
  std::unique_ptr<batch::HbEngine> hb_;
  std::vector<std::unique_ptr<index::KvIndex>> indexes_;  // 1 or per-core
  std::vector<std::unique_ptr<CoreState>> cores_;
  std::unique_ptr<common::EpochManager> epochs_;
  std::vector<std::unique_ptr<log::LogCleaner>> cleaners_;
  // Whether StartCleaners' background threads are live (RunCleanersOnce
  // instantiates cleaner objects without starting threads).
  bool cleaners_running_ = false;

  // Key order of a KeyOrdered() store (DESIGN.md §11), DRAM soft state:
  // an immutable sorted run of every key the index held at the last fold
  // (retired through EpochManager::Defer), and a sorted buffer of the
  // keys it gained since. fold_lock_ lets one fold at a time merge; it
  // swaps the run and drops the folded keys from the buffer under
  // key_buf_lock_, under which scans load the run and read the buffer.
  using KeyRun = std::vector<uint64_t>;
  std::atomic<const KeyRun*> key_run_{new KeyRun()};
  // The last run a fold retired that no scan holds any more; the next
  // fold reuses its memory.
  std::atomic<KeyRun*> spare_run_{nullptr};
  SpinLock fold_lock_;  // taken before key_buf_lock_
  uint64_t fold_keys_[kKeyBufferCap] GUARDED_BY(fold_lock_);
  SpinLock key_buf_lock_;
  size_t key_buf_n_ GUARDED_BY(key_buf_lock_) = 0;
  uint64_t key_buf_[kKeyBufferCap] GUARDED_BY(key_buf_lock_);
  RecoveryStats recovery_stats_;
};

// Transaction builder: accumulates ops (values copied), then Commit()
// runs them through CommitTxnOnCore. Convenience layer for tests and
// callers off the hot path — it owns std::string copies and std::function
// callbacks, so the raw TxnOp API remains the allocation-free route.
class FlatStore::Txn {
 public:
  explicit Txn(FlatStore* store) : store_(store) {}

  Txn& Put(uint64_t key, std::string_view value);
  Txn& Delete(uint64_t key);
  // expected == nullopt expects the key absent.
  Txn& Cas(uint64_t key, std::optional<std::string> expected,
           std::string_view value);
  // fn(current, present) -> new value (1..log::kMaxInlineValue bytes).
  Txn& Rmw(uint64_t key,
           std::function<std::string(std::string_view, bool)> fn);

  // Read-your-writes preview: the value `key` would have if the staged
  // ops committed now (kCas assumed to succeed). Falls through to the
  // committed state for untouched keys.
  bool Get(uint64_t key, std::string* value);

  // Ops staged so far.
  size_t size() const { return ops_.size(); }

  // Commits atomically; all keys must route to one core (CHECKed).
  // The builder may be reused after Commit returns.
  TxnStatus Commit(size_t* failed_op = nullptr);

 private:
  struct Staged {
    TxnOpKind kind;
    uint64_t key;
    std::string value;
    std::string expected;
    bool expect_absent = false;
    std::function<std::string(std::string_view, bool)> rmw;
  };
  static uint32_t RmwTrampoline(void* ctx, const void* cur, uint32_t cur_len,
                                uint8_t* out, uint32_t cap);

  FlatStore* store_;
  std::vector<Staged> ops_;
};

}  // namespace core
}  // namespace flatstore

#endif  // FLATSTORE_CORE_FLATSTORE_H_
