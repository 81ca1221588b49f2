#include "core/flatstore.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/hash.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/masstree.h"
#include "log/log_reader.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {

namespace {

// Key-routing hash seed: independent of the hashes used inside the index
// structures so routing does not correlate with bucket choice.
constexpr uint64_t kRoutingSeed = 0xC04E;

// Runs fn(i) for every i in [0, n), each on its own host thread (inline
// when n == 1), and returns once all are done.
template <typename Fn>
void RunOnEach(size_t n, const Fn& fn) {
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; i++) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

// Entries route to the owning partition of their *key*, so replay
// threads may duel one key at once: a loop over Get + CompareExchange, or
// Upsert when the key is absent, keeps the newest version.
void DuelInsert(index::KvIndex* idx, uint64_t key, uint64_t packed) {
  while (true) {
    uint64_t cur = 0;
    if (!idx->Get(key, &cur)) {
      if (!idx->Upsert(key, packed, &cur)) return;  // inserted
      // Raced with another replayer: the Upsert displaced its version
      // `cur`. If that one is newer, it must win: duel it in our place.
      if (!log::VersionNewer(log::UnpackVersion(cur),
                             log::UnpackVersion(packed))) {
        return;
      }
      packed = cur;
      continue;
    }
    if (!log::VersionNewer(log::UnpackVersion(packed),
                           log::UnpackVersion(cur))) {
      return;
    }
    if (idx->CompareExchange(key, cur, packed)) return;
    // CAS lost; re-read and retry.
  }
}

const char* TxnStatusName(TxnStatus status) {
  switch (status) {
    case TxnStatus::kCommitted:
      return "committed";
    case TxnStatus::kCasMismatch:
      return "cas-mismatch";
    case TxnStatus::kBusy:
      return "busy";
    case TxnStatus::kBackpressure:
      return "backpressure";
    case TxnStatus::kNoSpace:
      return "no-space";
  }
  return "?";
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHash:
      return "FlatStore-H";
    case IndexKind::kMasstree:
      return "FlatStore-M";
    case IndexKind::kFastFairVolatile:
      return "FlatStore-FF";
  }
  return "?";
}

FlatStore::FlatStore(pm::PmPool* pool, const FlatStoreOptions& options)
    : pool_(pool), options_(options) {
  FLATSTORE_CHECK(options_.num_cores >= 1 &&
                  options_.num_cores <= log::kMaxCores);
  FLATSTORE_CHECK_GE(options_.group_size, 1);
  root_ = std::make_unique<log::RootArea>(pool);
  alloc_ = std::make_unique<alloc::LazyAllocator>(
      pool, alloc::kChunkSize, pool->size() - alloc::kChunkSize,
      options_.num_cores);
  if (options_.gc_backpressure_watermark > 0) {
    alloc_->SetFreeChunkLowWatermark(options_.gc_backpressure_watermark);
  }
  if (!options_.socket_local_placement) {
    // Placement-off A/B arm: chunks (log segments + value blocks) are
    // dealt round-robin across sockets instead of core-locally.
    alloc_->SetSocketInterleave(true);
  }
  if (options_.socket_local_placement && pool_->num_sockets() > 1) {
    // An HB leader appends follower entries to its *own* OpLog, whose
    // segments sit on the leader's socket — a batching group straddling a
    // socket boundary would persist half its entries over the link every
    // batch. Shrink the group size until each group's cores share a
    // socket (the paper groups by socket for exactly this reason).
    auto aligned = [this](int gs) {
      for (int first = 0; first < options_.num_cores; first += gs) {
        const int last = std::min(first + gs, options_.num_cores) - 1;
        if (alloc_->SocketForCore(first) != alloc_->SocketForCore(last)) {
          return false;
        }
      }
      return true;
    };
    while (options_.group_size > 1 && !aligned(options_.group_size)) {
      options_.group_size--;
    }
  }
  log::OpLog::Options log_opts;
  log_opts.pad_batches = options_.pad_batches;
  std::vector<log::OpLog*> raw_logs;
  for (int c = 0; c < options_.num_cores; c++) {
    logs_.push_back(std::make_unique<log::OpLog>(root_.get(), alloc_.get(),
                                                 c, log_opts));
    raw_logs.push_back(logs_.back().get());
    cores_.push_back(std::make_unique<CoreState>());
  }
  hb_ = std::make_unique<batch::HbEngine>(std::move(raw_logs),
                                          options_.group_size,
                                          options_.batch_mode);
  // One owned epoch slot per serving core; Scan/Size and foreign threads
  // use guest slots. Reclamation counters mirror into the pool's stats.
  epochs_ = std::make_unique<common::EpochManager>(
      options_.num_cores, /*guest_slots=*/16, &pool_->stats());
  BuildIndexes();
}

FlatStore::~FlatStore() { StopCleaners(); }

void FlatStore::BuildIndexes() {
  indexes_.clear();
  const int sockets = pool_->num_sockets();
  const bool place = options_.socket_local_placement && sockets > 1;
  // Volatile nodes no socket owns (the one tree, and every index with
  // placement off): socket-agnostic on single-socket pools (zero
  // surcharge), page-interleaved on multi-socket pools (half the remote
  // surcharge on every node miss).
  const int spread_home =
      sockets > 1 ? vt::kSocketInterleaved : vt::kSocketNone;
  switch (options_.index) {
    case IndexKind::kHash:
      // Per-core CCEH partitions: with placement on, each partition is
      // homed on its core's socket, so the serving core's probes are
      // always local.
      for (int c = 0; c < options_.num_cores; c++) {
        index::PmContext ctx;
        ctx.home_socket = place ? SocketForCore(c) : spread_home;
        indexes_.push_back(std::make_unique<index::Cceh>(
            ctx, options_.hash_initial_depth));
      }
      break;
    case IndexKind::kMasstree:
    case IndexKind::kFastFairVolatile: {
      // One global tree (paper §4.2) serves every core.
      index::PmContext ctx;
      ctx.home_socket = spread_home;
      if (options_.index == IndexKind::kMasstree) {
        indexes_.push_back(std::make_unique<index::Masstree>(ctx));
      } else {
        indexes_.push_back(std::make_unique<index::FastFair>(ctx));
      }
      break;
    }
  }
  scan_order_ = dynamic_cast<index::OrderedKvIndex*>(indexes_[0].get());
  if (KeyOrdered()) {
    // A hash index has no order: a tree of its keys keeps it, built like
    // the one tree of a tree store.
    index::PmContext ctx;
    ctx.home_socket = spread_home;
    key_tree_ = std::make_unique<index::Masstree>(ctx);
    scan_order_ = key_tree_.get();
  }
}

index::KvIndex* FlatStore::IndexForCore(int core) const {
  return options_.index == IndexKind::kHash ? indexes_[core].get()
                                            : indexes_[0].get();
}

int FlatStore::CoreForKey(uint64_t key) const {
  return static_cast<int>(HashKey(key, kRoutingSeed) %
                          static_cast<uint64_t>(options_.num_cores));
}

std::unique_ptr<FlatStore> FlatStore::Create(pm::PmPool* pool,
                                             const FlatStoreOptions& options) {
  log::RootArea root(pool);
  root.Format(options.num_cores);
  return std::unique_ptr<FlatStore>(new FlatStore(pool, options));
}

std::unique_ptr<FlatStore> FlatStore::Open(pm::PmPool* pool,
                                           const FlatStoreOptions& options) {
  {
    log::RootArea probe(pool);
    FLATSTORE_CHECK(probe.IsFormatted()) << "pool has no FlatStore";
    FLATSTORE_CHECK_EQ(probe.superblock()->num_cores,
                       static_cast<uint32_t>(options.num_cores))
        << "num_cores mismatch with the on-PM superblock";
  }
  std::unique_ptr<FlatStore> store(new FlatStore(pool, options));
  log::Superblock* sb = store->root_->superblock();
  const bool clean = sb->clean_shutdown != 0;
  // Reset the flag first (paper §3.5: "checks and reset the state").
  sb->clean_shutdown = 0;
  pool->PersistFence(&sb->clean_shutdown, 4);
  if (clean) {
    store->LoadCheckpoint();
    store->Recover(/*rebuild_index=*/false);
  } else {
    store->Recover(/*rebuild_index=*/true);
  }
  return store;
}

// ---- asynchronous protocol ---------------------------------------------

size_t FlatStore::Pump(int core) { return hb_->TryPersist(core); }

// fs-lint: epoch-held(called from Drain under the per-round epoch guard)
// The decoded entry cannot be retired while that guard is held.
void FlatStore::RetireOld(uint64_t old_packed) {
  const uint64_t old_off = log::UnpackOffset(old_packed);
  const uint64_t chunk = AlignDown(old_off, alloc::kChunkSize);
  log::DecodedEntry e;
  const bool decoded =
      log::DecodeEntry(static_cast<const uint8_t*>(pool_->At(old_off)),
                       log::kMaxEntrySize, &e);
  int owner;
  uint32_t seq;
  if (root_->ChunkInfo(chunk, &owner, &seq)) {
    // Decode-before-NoteDead hands the entry length down so the chunk's
    // live-byte counter (cost-benefit victim selection) stays exact
    // without a second in-place decode.
    logs_[owner]->NoteDead(old_off, decoded ? e.entry_len : 0);
  }
  if (decoded && e.op == log::OpType::kPut && !e.embedded) {
    // "The freed data block can be reused immediately" (§3.2): the
    // conflict queue serializes same-key ops, so no reader still needs it.
    alloc_->Free(e.ptr);
  }
}

size_t FlatStore::Drain(int core, size_t max, std::vector<Completion>* out) {
  CoreState& cs = *cores_[core];
  index::KvIndex* idx = IndexForCore(core);
  size_t n = 0;
  while (n < max && cs.pend_count > 0) {
    // Gather the completed FIFO prefix for one round, up to a leader
    // batch's worth, so the index updates below can run as a two-phase
    // prefetch-interleaved wave instead of a probe-per-op random walk.
    uint64_t offs[batch::HbEngine::kMaxBatch];
    uint64_t dones[batch::HbEngine::kMaxBatch];
    const size_t cap = std::min(max - n, batch::HbEngine::kMaxBatch);
    size_t round = 0;
    size_t inserts = 0;  // commit records and absorbed ops index nothing
    while (round < cap && round < cs.pend_count) {
      const PendingOp& op =
          cs.pending[(cs.pend_head + round) % batch::HbEngine::kPoolSlots];
      if (!hb_->IsDone(core, op.handle, &offs[round], &dones[round])) break;
      if (!op.txn_commit && !op.absorbed) inserts++;
      round++;
    }
    if (round == 0) break;
    uint64_t fresh[batch::HbEngine::kMaxBatch];  // keys new to the index
    size_t fresh_n = 0;
    // Follower semantics differ by mode (paper Fig. 4): under *naive* HB
    // the followers wait synchronously for the leader's persist, so their
    // clocks jump to the batch completion; under *pipelined* HB the
    // follower's CPU stayed free (it kept polling new requests), so its
    // clock does NOT jump — only the response (sent by the caller) must
    // not precede `done` (carried in the Completion).
    if (options_.batch_mode == batch::BatchMode::kNaiveHB) {
      if (vt::Clock* clock = vt::CurrentClock()) {
        for (size_t r = 0; r < round; r++) clock->AdvanceTo(dones[r]);
      }
    }

    {
      // One pin covers the round's index updates and retirements.
      common::EpochManager::Guard g(epochs_.get(), core);
      vt::Charge(vt::kEpochPinCost);
      // Tombstones stay in the index (pointing at the delete entry) so
      // per-key versions remain monotonic across delete + re-put; reads
      // treat them as absent. The cleaner retires them (§3.4).
      uint64_t olds[batch::HbEngine::kMaxBatch];
      bool retire[batch::HbEngine::kMaxBatch];
      {
        // Only the inserting ops overlap their misses.
        vt::ScopedOverlap overlap(static_cast<int>(std::clamp<size_t>(
            inserts, 1, static_cast<size_t>(vt::kMemParallelism))));
        // Phase A: re-warm what each op's admission probe located, held
        // across the persist, or locate + prefetch a key that did not
        // probe (a write of it was in flight at admission). Other batches
        // may have split or emptied a hinted node since, and FIFO order
        // below applies a duplicate key oldest-first, so an earlier insert
        // may reshape a later op's node; InsertWithHint revalidates every
        // hint and falls back (same discipline as GetWithHint).
        for (size_t r = 0; r < round; r++) {
          PendingOp& op =
              cs.pending[(cs.pend_head + r) % batch::HbEngine::kPoolSlots];
          if (op.txn_commit || op.absorbed) continue;
          if (op.hint.valid) {
            idx->Rewarm(&op.hint);
          } else {
            idx->Prefetch(op.key, &op.hint);
          }
        }
        // Phase B: complete the inserts on warm lines.
        for (size_t r = 0; r < round; r++) {
          const PendingOp& op =
              cs.pending[(cs.pend_head + r) % batch::HbEngine::kPoolSlots];
          olds[r] = 0;
          if (op.txn_commit || op.absorbed) {
            retire[r] = false;
            continue;
          }
          retire[r] = idx->InsertWithHint(
              op.key, log::PackIndexValue(offs[r], op.version), &olds[r],
              op.hint);
          // A key the index did not hold joins the key order.
          if (!retire[r] && key_tree_ != nullptr) fresh[fresh_n++] = op.key;
        }
      }
      for (size_t r = 0; r < round; r++) {
        const PendingOp& op =
            cs.pending[(cs.pend_head + r) % batch::HbEngine::kPoolSlots];
        if (op.txn_commit) {
          // A commit record is born dead: nothing ever points at it, so
          // account it to its chunk's dead bytes immediately (it still
          // guards the chain's replay until the cleaner relocates or
          // retires the chunk).
          RetireOld(log::PackIndexValue(offs[r], 0));
        } else if (retire[r]) {
          RetireOld(olds[r]);
        }
      }
    }
    if (fresh_n > 0) {
      // The round's fresh keys join the key order after their index
      // inserts, as one prefetched wave like those (a lone key is the
      // plain insert).
      vt::ScopedOverlap overlap(static_cast<int>(std::min<size_t>(
          fresh_n, static_cast<size_t>(vt::kMemParallelism))));
      index::LookupHint hints[batch::HbEngine::kMaxBatch];
      if (fresh_n > 1) {
        for (size_t i = 0; i < fresh_n; i++) {
          key_tree_->Prefetch(fresh[i], &hints[i]);
        }
      }
      for (size_t i = 0; i < fresh_n; i++) {
        uint64_t old;
        key_tree_->InsertWithHint(fresh[i], 0, &old, hints[i]);
      }
    }
    for (size_t r = 0; r < round; r++) {
      const PendingOp& op = cs.Front();
      // A txn surfaces exactly one Completion — the commit record's —
      // once the whole fused group is durable; members complete silently.
      if (out != nullptr && !op.txn_member) {
        out->push_back({op.handle, op.key, dones[r]});
      }
      // An absorbed op shares its absorber's slot, which the absorber
      // (later in the FIFO) releases.
      if (!op.absorbed) hb_->Release(core, op.handle);
      if (!op.txn_commit) {
        InflightKey* fly = cs.inflight_keys.Find(op.key);
        FLATSTORE_DCHECK(fly != nullptr);
        if (--fly->count == 0) cs.inflight_keys.Erase(op.key);
      }
      cs.Pop();
      n++;
    }
  }
  return n;
}

size_t FlatStore::Inflight(int core) const {
  return cores_[core]->pend_count;
}

bool FlatStore::KeyBusy(int core, uint64_t key) const {
  return cores_[core]->inflight_keys.Contains(key);
}

// fs-lint: epoch-held(MultiGetOnCore and every scan pin before fetching)
void FlatStore::FetchBatch(const uint64_t* packed, size_t n,
                           ReadResult* const* results) const {
  // Phase C: issue every log-entry header read at one instant; advance to
  // each completion only when that entry is decoded, so independent PM/
  // DRAM fetches overlap instead of serializing. A lone read's issue cost
  // hides under its own latency, so it costs one plain ChargeRead.
  uint64_t ready[kMaxReadBatch];  // read-completion times (phases C/D)
  vt::Clock* clock = vt::CurrentClock();
  const uint64_t issue = clock != nullptr ? clock->now() : 0;
  for (size_t i = 0; i < n; i++) {
    if (results[i]->status != GetResult::kFound) continue;
    const void* entry = pool_->At(log::UnpackOffset(packed[i]));
    __builtin_prefetch(entry, 0, 3);
    if (clock != nullptr) {
      vt::Charge(vt::kPrefetchIssueCost);
      ready[i] = pool_->ChargeReadAt(entry, log::kPtrEntrySize, issue);
    }
  }

  // Decode in order; embedded values complete here, out-of-log blocks are
  // issued as a second overlapped read wave (phase D) and consumed below.
  log::DecodedEntry entries[kMaxReadBatch];
  for (size_t i = 0; i < n; i++) {
    ReadResult& r = *results[i];
    if (r.status != GetResult::kFound) continue;
    if (clock != nullptr) clock->AdvanceTo(ready[i]);
    const uint64_t off = log::UnpackOffset(packed[i]);
    log::DecodedEntry& e = entries[i];
    bool ok = log::DecodeEntry(static_cast<const uint8_t*>(pool_->At(off)),
                               log::kMaxEntrySize, &e);
    FLATSTORE_CHECK(ok) << "index pointed at an invalid entry: off=" << off;
    if (e.op == log::OpType::kDelete) {
      r.status = GetResult::kAbsent;  // tombstone
      continue;
    }
    if (e.embedded) {
      vt::Charge(vt::CostMemcpy(e.value_len));
      r.value.assign(reinterpret_cast<const char*>(e.value), e.value_len);
      e.ptr = 0;  // no phase-D read
    } else if (clock != nullptr) {
      const void* block = pool_->At(e.ptr);
      ready[i] = pool_->ChargeReadAt(
          block, log::ValueBlockSize(log::ValueBlockLen(block)),
          clock->now());
    }
  }

  // Phase D: consume the out-of-log value blocks.
  for (size_t i = 0; i < n; i++) {
    if (results[i]->status != GetResult::kFound) continue;
    const log::DecodedEntry& e = entries[i];
    if (e.embedded || e.ptr == 0) continue;
    if (clock != nullptr) clock->AdvanceTo(ready[i]);
    const void* block = pool_->At(e.ptr);
    const uint64_t len = log::ValueBlockLen(block);
    vt::Charge(vt::CostMemcpy(len));
    results[i]->value.assign(log::ValueBlockData(block), len);
  }
}

size_t FlatStore::MultiGetOnCore(int core, const uint64_t* keys, size_t n,
                                 ReadResult* results) {
  static_assert(kMaxReadBatch <= UINT8_MAX, "batch positions fit uint8_t");
  FLATSTORE_CHECK_LE(n, kMaxReadBatch);
  if (n == 0) return 0;
  index::KvIndex* idx = IndexForCore(core);
  CoreState& cs = *cores_[core];

  // Coalescing: only a key's first occurrence (its leader) checks for
  // conflicts, probes and reads; repeats copy the leader's outcome at the
  // end. A stack-resident open-addressing table, at most half full, maps
  // each key to its leader: one hash and about one slot probe per key. A
  // one-key read has nothing to coalesce and skips the table.
  constexpr size_t kSlots = 2 * kMaxReadBatch;
  uint8_t slots[kSlots] = {};        // leader position + 1; 0 = empty
  uint8_t leader_of[kMaxReadBatch];  // batch position -> leader position
  // Leaders without an in-flight write: the keys the resolution path
  // probes. Deferred keys and repeats issue no miss.
  index::KvIndex* idxs[kMaxReadBatch];
  uint64_t pkeys[kMaxReadBatch];
  ReadResult* presults[kMaxReadBatch];
  size_t probes = 0;
  for (size_t i = 0; i < n; i++) {
    results[i].value.clear();
    if (n > 1) {
      vt::Charge(vt::kCpuHash + vt::kCpuSlotProbe);
      size_t s = HashKey(keys[i]) % kSlots;
      while (slots[s] != 0 && keys[slots[s] - 1] != keys[i]) {
        s = (s + 1) % kSlots;
      }
      if (slots[s] != 0) {
        leader_of[i] = static_cast<uint8_t>(slots[s] - 1);
        continue;
      }
      slots[s] = static_cast<uint8_t>(i + 1);
    }
    leader_of[i] = static_cast<uint8_t>(i);
    if (cs.inflight_keys.Contains(keys[i])) {
      results[i].status = GetResult::kDeferred;
    } else {
      idxs[probes] = idx;
      pkeys[probes] = keys[i];
      presults[probes++] = &results[i];
    }
  }
  if (probes == 0) {
    // Every key has a write in flight: nothing is read, so nothing pins.
    for (size_t i = 0; i < n; i++) results[i].status = GetResult::kDeferred;
    return 0;
  }

  // Pin before probing: one pin covers every entry dereference in the
  // batch.
  common::EpochManager::Guard g(epochs_.get(), core);
  vt::Charge(vt::kEpochPinCost);
  bool found[kMaxReadBatch];
  uint64_t packed[kMaxReadBatch];
  index::LookupHint hints[kMaxReadBatch];
  index::ProbeBatch(idxs, pkeys, probes, found, packed, hints);
  for (size_t j = 0; j < probes; j++) {
    presults[j]->status = found[j] ? GetResult::kFound : GetResult::kAbsent;
  }
  FetchBatch(packed, probes, presults);

  // Repeats take their leader's outcome. Every copy is served at this one
  // instant with no write to the key in between (a deferral defers all).
  size_t served = 0;
  for (size_t i = 0; i < n; i++) {
    const ReadResult& lead = results[leader_of[i]];
    if (leader_of[i] != i) {
      results[i].status = lead.status;
      if (lead.status == GetResult::kFound) {
        vt::Charge(vt::CostMemcpy(lead.value.size()));
        results[i].value.assign(lead.value);
      }
    }
    if (results[i].status != GetResult::kDeferred) served++;
  }
  return served;
}

TxnStatus FlatStore::StageWrites(int core, const TxnOp* ops, size_t n,
                                 bool txn, OpHandle* handles,
                                 OpStatus* statuses, size_t* failed_op) {
  static_assert(kMaxWriteBatch + 1 <= batch::HbEngine::kMaxBatch,
                "a batch plus a commit record must fit one fused HB group");
  static_assert(kMaxWriteBatch < UINT8_MAX, "batch positions fit uint8_t");
  static_assert(kMaxTxnOps <= kMaxWriteBatch, "a txn is a write batch");
  static_assert(kMaxTxnOps <= log::kMaxTxnChain,
                "readers must be able to buffer a whole chain");
  if (txn) handles[n] = kNoOpHandle;
  if (n == 0) return TxnStatus::kCommitted;
  CoreState& cs = *cores_[core];

  // Every accepted op takes a pending-ring entry (and a server tag-ring
  // entry), but absorbed ops take no HB slot, so the HB pool's own
  // backpressure cannot bound the rings: admit the batch only if all of
  // its ops, and a txn's commit record, fit.
  if (cs.pend_count + n + (txn ? 1 : 0) > batch::HbEngine::kPoolSlots) {
    for (size_t i = 0; i < n; i++) statuses[i] = OpStatus::kBackpressure;
    return TxnStatus::kBackpressure;
  }

  // All per-batch state is stack-resident (the serving path stays
  // allocation-free). Entries encode back-to-back into `chain`, a txn's
  // commit record last, so a txn's refs alias contiguous bytes laid out
  // exactly as they will land in the log.
  uint8_t chain[kMaxWriteBatch * log::kMaxEntrySize + log::kPtrEntrySize];
  log::OpLog::EntryRef refs[kMaxWriteBatch + 1];
  uint64_t blocks[kMaxWriteBatch];  // out-of-log value blocks (0 = none)
  uint32_t versions[kMaxWriteBatch];
  size_t slot_of[kMaxWriteBatch];  // op index -> fused-group position

  // First occurrences (DESIGN.md §5.2): a stack-resident open-addressing
  // table, at most half full, maps each key to its first occurrence. Only
  // first occurrences probe the index; the per-key state below lives at
  // the first occurrence's position. In a write batch, an op followed
  // later by a Put of its key is absorbed: that Put supersedes it at the
  // same instant, so it encodes, allocates, persists and stages nothing.
  // A txn absorbs nothing — every member stages, so a CAS or RMW always
  // reads an earlier member's staged bytes. A batch of one has nothing to
  // deduplicate and skips the table.
  constexpr int kSlotBits = 6;
  constexpr size_t kSlots = size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxWriteBatch, "table stays half empty");
  uint8_t slots[kSlots] = {};        // first position + 1; 0 = empty
  uint8_t first_of[kMaxWriteBatch];  // op index -> first occurrence
  uint8_t last_put[kMaxWriteBatch];  // first occurrence -> last Put + 1
  bool has_tomb[kMaxWriteBatch];  // first occurrence -> key has a tombstone
  bool chained[kMaxWriteBatch];  // first occurrence -> earlier write exists
  uint32_t tail[kMaxWriteBatch];  // first occurrence -> newest version
  // Some op dereferences its key's indexed entry: a tombstone (liveness
  // check) or a CAS/RMW (the committed value).
  bool pin = false;
  for (size_t i = 0; i < n; i++) {
    FLATSTORE_DCHECK(core == CoreForKey(ops[i].key));
    statuses[i] = OpStatus::kOk;
    blocks[i] = 0;
    size_t f = i;
    if (n > 1) {
      vt::Charge(vt::kCpuSlotProbe);
      size_t s = static_cast<size_t>((ops[i].key * 0x9E3779B97F4A7C15ull) >>
                                     (64 - kSlotBits));
      while (slots[s] != 0 && ops[slots[s] - 1].key != ops[i].key) {
        s = (s + 1) % kSlots;
      }
      if (slots[s] == 0) slots[s] = static_cast<uint8_t>(i + 1);
      f = slots[s] - 1;
    }
    first_of[i] = static_cast<uint8_t>(f);
    if (f == i) {
      last_put[i] = 0;
      has_tomb[i] = false;
      // Version chaining continues from the newest in-flight write on the
      // key, else from the indexed entry (probed below).
      const InflightKey* fly = cs.inflight_keys.Find(ops[i].key);
      chained[i] = fly != nullptr;
      tail[i] = chained[i] ? fly->last_version : 0;
    }
    if (ops[i].kind == TxnOpKind::kDelete) {
      has_tomb[f] = true;
    } else if (!txn) {
      last_put[f] = static_cast<uint8_t>(i + 1);
    }
    pin |= ops[i].kind != TxnOpKind::kPut;
  }

  // A key probes the index only when it has no write in flight (its
  // version comes from the index) or when it has a tombstone, which needs
  // the indexed entry for its covered-chunk hint and liveness check. A txn
  // has no key in flight (BeginTxn), so every distinct key probes.
  index::KvIndex* idx[kMaxWriteBatch];
  uint64_t keys[kMaxWriteBatch];
  uint8_t pos[kMaxWriteBatch];  // probe -> first occurrence
  bool found[kMaxWriteBatch];
  uint64_t probed[kMaxWriteBatch];
  index::LookupHint hints[kMaxWriteBatch];
  bool indexed[kMaxWriteBatch];  // first occurrence -> probe hit
  uint64_t packed[kMaxWriteBatch];  // first occurrence -> indexed entry
  // First occurrence -> what its probe located, carried to the insert.
  index::LookupHint located[kMaxWriteBatch];
  bool dead[kMaxWriteBatch];  // first occurrence -> indexed tombstone
  // A CAS or RMW reads its key's value as of the op: the newest earlier
  // op of the same txn, else the committed value (FetchBatch below).
  bool present[kMaxWriteBatch];  // first occurrence -> key live now
  const void* cur[kMaxWriteBatch];
  uint32_t cur_len[kMaxWriteBatch];
  size_t probes = 0;
  for (size_t i = 0; i < n; i++) {
    indexed[i] = false;
    packed[i] = 0;
    dead[i] = false;
    present[i] = false;
    if (first_of[i] == i && (!chained[i] || has_tomb[i])) {
      idx[probes] = IndexForCore(core);
      keys[probes] = ops[i].key;
      pos[probes++] = static_cast<uint8_t>(i);
    }
  }
  auto probe_index = [&] {
    index::ProbeBatch(idx, keys, probes, found, probed, hints);
    for (size_t j = 0; j < probes; j++) {
      indexed[pos[j]] = found[j];
      packed[pos[j]] = probed[j];
      located[pos[j]] = hints[j];
    }
  };
  if (!pin) {
    // A put-only batch dereferences no log entry, so it takes no pin.
    probe_index();
  } else {
    // Pin before probing: an entry the index points at stays
    // dereferenceable until the unpin, even if the cleaner unlinks its
    // chunk concurrently.
    common::EpochManager::Guard g(epochs_.get(), core);
    vt::Charge(vt::kEpochPinCost);
    probe_index();
    uint64_t fetch_packed[kMaxWriteBatch];
    ReadResult* fetch[kMaxWriteBatch];
    size_t fetches = 0;
    for (size_t i = 0; i < n; i++) {
      if (first_of[i] != i || chained[i]) continue;
      if (ops[i].kind == TxnOpKind::kDelete) {
        log::DecodedEntry e;
        dead[i] = indexed[i] &&
                  log::DecodeEntry(static_cast<const uint8_t*>(pool_->At(
                                       log::UnpackOffset(packed[i]))),
                                   log::kMaxEntrySize, &e) &&
                  e.op == log::OpType::kDelete;
      } else if (ops[i].kind != TxnOpKind::kPut) {
        ReadResult& r = cs.reads[i];
        r.status = indexed[i] ? GetResult::kFound : GetResult::kAbsent;
        fetch_packed[fetches] = packed[i];
        fetch[fetches++] = &r;
      }
    }
    FetchBatch(fetch_packed, fetches, fetch);
  }

  // Phase C: resolve each op, chain versions, encode entries, l-persist
  // out-of-log values. Every block Persist below shares the single Fence
  // after the loop (batched l-persist: independent value streams need one
  // drain).
  uint8_t rmw_out[log::kMaxInlineValue];
  uint64_t chain_len = 0;
  size_t staged = 0;
  bool fence_needed = false;
  TxnStatus result = TxnStatus::kCommitted;
  for (size_t i = 0; i < n && result == TxnStatus::kCommitted; i++) {
    const TxnOp& op = ops[i];
    const size_t f = first_of[i];
    // Version chaining, newest first: an earlier accepted op of this
    // batch on the same key, else the newest in-flight write, else the
    // indexed entry.
    if (f == i && !chained[f] && indexed[f]) {
      tail[f] = log::UnpackVersion(packed[f]);
    }
    if (f == i && (op.kind == TxnOpKind::kCas || op.kind == TxnOpKind::kRmw)) {
      const ReadResult& r = cs.reads[f];
      present[f] = r.status == GetResult::kFound;
      cur[f] = r.value.data();
      cur_len[f] = static_cast<uint32_t>(r.value.size());
    }
    const void* value = op.value;
    uint32_t len = op.len;
    switch (op.kind) {
      case TxnOpKind::kPut:
        break;
      case TxnOpKind::kDelete:
        if (!chained[f] && (!indexed[f] || dead[f])) {
          statuses[i] = OpStatus::kNotFound;  // absent, or already deleted
          present[f] = false;
          continue;
        }
        break;
      case TxnOpKind::kCas:
        if (op.expected == nullptr
                ? present[f]
                : !present[f] || cur_len[f] != op.expected_len ||
                      std::memcmp(cur[f], op.expected, cur_len[f]) != 0) {
          result = TxnStatus::kCasMismatch;
          if (failed_op != nullptr) *failed_op = i;
          continue;
        }
        break;
      case TxnOpKind::kRmw:
        len = op.rmw(op.rmw_ctx, present[f] ? cur[f] : nullptr,
                     present[f] ? cur_len[f] : 0, rmw_out,
                     log::kMaxInlineValue);
        FLATSTORE_CHECK(len >= 1 && len <= log::kMaxInlineValue)
            << "RMW output must be 1.." << log::kMaxInlineValue << " bytes";
        value = rmw_out;
        break;
    }
    chained[f] = true;
    if (last_put[f] > i + 1) continue;  // absorbed: consumes no version
    const uint32_t version = (tail[f] + 1) & log::kVersionMask;
    tail[f] = version;
    uint8_t* dst = chain + chain_len;
    uint32_t elen;
    if (op.kind == TxnOpKind::kDelete) {
      // Best-effort covered-chunk hint for tombstone GC (§3.4).
      uint32_t covered = 0;
      if (indexed[f]) {
        const uint64_t old_chunk =
            AlignDown(log::UnpackOffset(packed[f]), alloc::kChunkSize);
        int owner;
        root_->ChunkInfo(old_chunk, &owner, &covered);
      }
      elen = log::EncodeDelete(dst, op.key, version, covered);
      present[f] = false;
    } else {
      FLATSTORE_DCHECK(len >= 1);
      if (len <= log::kMaxInlineValue) {
        elen = log::EncodePutValue(dst, op.key, version, value, len);
        cur[f] = dst + log::kValueEntryHeader;
      } else {
        const uint64_t block = alloc_->Alloc(core, log::ValueBlockSize(len));
        if (block == 0) {
          result = TxnStatus::kNoSpace;
          continue;
        }
        void* bdst = pool_->At(block);
        log::EncodeValueBlock(bdst, value, len);
        vt::Charge(vt::CostMemcpy(len));
        // fs-lint: fence-guarded(drained by the one Fence below under the flag)
        // Abort paths free the blocks; dead data needs no fence.
        pool_->Persist(bdst, log::ValueBlockSize(len));
        fence_needed = true;
        blocks[i] = block;
        elen = log::EncodePutPtr(dst, op.key, version, block);
        cur[f] = log::ValueBlockData(bdst);
      }
      present[f] = true;
      cur_len[f] = len;
    }
    if (txn) log::MarkTxnMember(dst);
    versions[i] = version;
    refs[staged] = {dst, elen};
    slot_of[i] = staged++;
    chain_len += elen;
  }

  // Aborts stage nothing: the blocks go back to the allocator and every
  // accepted op takes the batch's failure (a txn reports through its
  // TxnStatus alone).
  auto fail = [&](TxnStatus why) {
    for (size_t i = 0; i < n; i++) {
      if (blocks[i] != 0) alloc_->Free(blocks[i]);
      if (statuses[i] == OpStatus::kOk) {
        statuses[i] = why == TxnStatus::kNoSpace ? OpStatus::kNoSpace
                                                 : OpStatus::kBackpressure;
      }
    }
    return why;
  };
  if (result != TxnStatus::kCommitted) return fail(result);
  if (fence_needed) pool_->Fence();  // one drain for all l-persists
  // Every accepted op is staged or absorbed by a staged Put, so nothing
  // staged means every op was a not-found delete.
  if (staged == 0) return TxnStatus::kCommitted;

  // A txn's commit record: member count, chain byte length, XXH64 over
  // the chain bytes exactly as they will appear in the log.
  const size_t members = staged;
  if (txn) {
    uint8_t* commit = chain + chain_len;
    refs[staged++] = {
        commit, log::EncodeTxnCommit(commit, static_cast<uint32_t>(members),
                                     chain_len, Hash64(chain, chain_len))};
  }

  // Phase D: stage everything as ONE fused group — all-or-nothing. The
  // leader writes it through a single AppendBatch: one reservation, one
  // persist sweep, one fence pair.
  uint64_t fused[kMaxWriteBatch + 1];
  if (!hb_->StageBatch(core, refs, staged, fused)) {
    return fail(TxnStatus::kBackpressure);
  }
  for (size_t i = 0; i < n; i++) {
    if (statuses[i] != OpStatus::kOk) continue;
    // An absorbed op rides the handle of its key's last Put, which sits
    // later in the same fused group and completes at the same instant.
    const size_t last = last_put[first_of[i]];
    const bool absorbed = last > i + 1;
    const size_t owner = absorbed ? last - 1 : i;
    const OpHandle h = fused[slot_of[owner]];
    handles[i] = h;
    cs.Push({h, ops[i].key, versions[owner], /*txn_member=*/txn,
             /*txn_commit=*/false, absorbed, located[first_of[i]]});
    InflightKey& fly = cs.inflight_keys.GetOrInsert(ops[i].key);
    fly.count++;
    fly.last_version = versions[owner];
  }
  if (txn) {
    handles[n] = fused[members];
    cs.Push({handles[n], /*key=*/0, /*version=*/0, /*txn_member=*/false,
             /*txn_commit=*/true, /*absorbed=*/false, /*hint=*/{}});
  }
  return TxnStatus::kCommitted;
}

namespace {

// WriteOps as the staging routine's ops: a Put or a Delete.
void ToTxnOps(const WriteOp* ops, size_t n, TxnOp* out) {
  for (size_t i = 0; i < n; i++) {
    out[i].kind = ops[i].tombstone ? TxnOpKind::kDelete : TxnOpKind::kPut;
    out[i].key = ops[i].key;
    out[i].value = ops[i].value;
    out[i].len = ops[i].len;
  }
}

}  // namespace

size_t FlatStore::BeginWriteBatch(int core, const WriteOp* ops, size_t n,
                                  OpHandle* handles, OpStatus* statuses) {
  FLATSTORE_CHECK_LE(n, kMaxWriteBatch);
  TxnOp txn_ops[kMaxWriteBatch];
  ToTxnOps(ops, n, txn_ops);
  StageWrites(core, txn_ops, n, /*txn=*/false, handles, statuses, nullptr);
  return static_cast<size_t>(
      std::count(statuses, statuses + n, OpStatus::kOk));
}

// The synchronous write calls' retry loop: re-stages after a Pump + Drain
// while `stage` reports kBusy or kBackpressure, then, once it resolved
// (kCommitted), runs the core's in-flight ops to completion.
template <typename Stage>
TxnStatus FlatStore::StageToCompletion(int core, Stage stage) {
  TxnStatus st;
  while ((st = stage()) == TxnStatus::kBusy ||
         st == TxnStatus::kBackpressure) {
    // Same-core in-flight ops belong to this thread's protocol: drain
    // them and retry.
    Pump(core);
    Drain(core, SIZE_MAX, nullptr);
  }
  while (st == TxnStatus::kCommitted && Inflight(core) > 0) {
    Pump(core);
    Drain(core, SIZE_MAX, nullptr);
  }
  return st;
}

size_t FlatStore::MultiPutOnCore(int core, const WriteOp* ops, size_t n,
                                 OpStatus* statuses) {
  FLATSTORE_CHECK_LE(n, kMaxWriteBatch);
  TxnOp txn_ops[kMaxWriteBatch];
  ToTxnOps(ops, n, txn_ops);
  OpHandle handles[kMaxWriteBatch];
  StageToCompletion(core, [&] {
    return StageWrites(core, txn_ops, n, /*txn=*/false, handles, statuses,
                       nullptr);
  });
  return static_cast<size_t>(
      std::count(statuses, statuses + n, OpStatus::kOk));
}

// ---- transactions (§5.3) -------------------------------------------------

TxnStatus FlatStore::BeginTxn(int core, const TxnOp* ops, size_t n,
                              OpHandle* commit_handle, size_t* failed_op) {
  FLATSTORE_CHECK_LE(n, kMaxTxnOps);
  *commit_handle = kNoOpHandle;
  if (failed_op != nullptr) *failed_op = n;
  // Conflict detection: §3.3's conflict queue widened to whole txns — any
  // key with in-flight writes fails the txn up front, so CAS and RMW read
  // stable committed state and the version chains cannot interleave with
  // a concurrent drain.
  for (size_t i = 0; i < n; i++) {
    if (cores_[core]->inflight_keys.Contains(ops[i].key)) {
      if (failed_op != nullptr) *failed_op = i;
      return TxnStatus::kBusy;
    }
  }
  OpHandle handles[kMaxTxnOps + 1];
  OpStatus statuses[kMaxTxnOps];
  const TxnStatus st =
      StageWrites(core, ops, n, /*txn=*/true, handles, statuses, failed_op);
  if (st == TxnStatus::kCommitted) *commit_handle = handles[n];
  return st;
}

TxnStatus FlatStore::CommitTxnOnCore(int core, const TxnOp* ops, size_t n,
                                     size_t* failed_op) {
  OpHandle commit_handle;
  return StageToCompletion(
      core, [&] { return BeginTxn(core, ops, n, &commit_handle, failed_op); });
}

FlatStore::Txn& FlatStore::Txn::Put(uint64_t key, std::string_view value) {
  Staged s;
  s.kind = TxnOpKind::kPut;
  s.key = key;
  s.value.assign(value.data(), value.size());
  ops_.push_back(std::move(s));
  return *this;
}

FlatStore::Txn& FlatStore::Txn::Delete(uint64_t key) {
  Staged s;
  s.kind = TxnOpKind::kDelete;
  s.key = key;
  ops_.push_back(std::move(s));
  return *this;
}

FlatStore::Txn& FlatStore::Txn::Cas(uint64_t key,
                                    std::optional<std::string> expected,
                                    std::string_view value) {
  Staged s;
  s.kind = TxnOpKind::kCas;
  s.key = key;
  s.value.assign(value.data(), value.size());
  if (expected.has_value()) {
    s.expected = std::move(*expected);
  } else {
    s.expect_absent = true;
  }
  ops_.push_back(std::move(s));
  return *this;
}

FlatStore::Txn& FlatStore::Txn::Rmw(
    uint64_t key, std::function<std::string(std::string_view, bool)> fn) {
  Staged s;
  s.kind = TxnOpKind::kRmw;
  s.key = key;
  s.rmw = std::move(fn);
  ops_.push_back(std::move(s));
  return *this;
}

bool FlatStore::Txn::Get(uint64_t key, std::string* value) {
  std::string cur;
  bool present = store_->Get(key, &cur);
  for (const Staged& s : ops_) {
    if (s.key != key) continue;
    switch (s.kind) {
      case TxnOpKind::kPut:
      case TxnOpKind::kCas:  // preview assumes the compare succeeds
        cur = s.value;
        present = true;
        break;
      case TxnOpKind::kDelete:
        present = false;
        cur.clear();
        break;
      case TxnOpKind::kRmw:
        cur = s.rmw(std::string_view(cur), present);
        present = true;
        break;
    }
  }
  if (present && value != nullptr) *value = cur;
  return present;
}

uint32_t FlatStore::Txn::RmwTrampoline(void* ctx, const void* cur,
                                       uint32_t cur_len, uint8_t* out,
                                       uint32_t cap) {
  auto* fn =
      static_cast<std::function<std::string(std::string_view, bool)>*>(ctx);
  const std::string result =
      (*fn)(cur != nullptr
                ? std::string_view(static_cast<const char*>(cur), cur_len)
                : std::string_view(),
            cur != nullptr);
  FLATSTORE_CHECK(!result.empty() && result.size() <= cap);
  std::memcpy(out, result.data(), result.size());
  return static_cast<uint32_t>(result.size());
}

TxnStatus FlatStore::Txn::Commit(size_t* failed_op) {
  FLATSTORE_CHECK_LE(ops_.size(), kMaxTxnOps);
  if (ops_.empty()) return TxnStatus::kCommitted;
  TxnOp ops[kMaxTxnOps];
  int core = -1;
  for (size_t i = 0; i < ops_.size(); i++) {
    Staged& s = ops_[i];
    const int c = store_->CoreForKey(s.key);
    if (core < 0) core = c;
    FLATSTORE_CHECK_EQ(core, c) << "txn keys must route to one core";
    TxnOp& op = ops[i];
    op.kind = s.kind;
    op.key = s.key;
    op.value = s.value.data();
    op.len = static_cast<uint32_t>(s.value.size());
    op.expected = nullptr;
    op.expected_len = 0;
    if (s.kind == TxnOpKind::kCas && !s.expect_absent) {
      op.expected = s.expected.data();
      op.expected_len = static_cast<uint32_t>(s.expected.size());
    }
    op.rmw = nullptr;
    op.rmw_ctx = nullptr;
    if (s.kind == TxnOpKind::kRmw) {
      op.rmw = &RmwTrampoline;
      op.rmw_ctx = &s.rmw;
    }
  }
  const TxnStatus st =
      store_->CommitTxnOnCore(core, ops, ops_.size(), failed_op);
  // Success consumes the staged ops; a failed txn keeps them so callers
  // can retry (e.g. after a pump/drain or with a fresh Cas expectation).
  if (st == TxnStatus::kCommitted) ops_.clear();
  return st;
}

// ---- synchronous wrappers ------------------------------------------------

void FlatStore::Put(uint64_t key, std::string_view value) {
  const WriteOp op{key, value.data(), static_cast<uint32_t>(value.size())};
  OpStatus st;
  MultiPutOnCore(CoreForKey(key), &op, 1, &st);
  FLATSTORE_CHECK(st == OpStatus::kOk) << "Put failed (PM exhausted?)";
}

bool FlatStore::Get(uint64_t key, std::string* value) {
  const int core = CoreForKey(key);
  // The read fills the caller's string in place (swapped in and back), so
  // a caller that reuses its string does not allocate.
  ReadResult r;
  r.value.swap(*value);
  while (MultiGetOnCore(core, &key, 1, &r) == 0) {
    // A write on the key is in flight: complete it, then read again.
    Pump(core);
    Drain(core, SIZE_MAX, nullptr);
  }
  value->swap(r.value);
  return r.status == GetResult::kFound;
}

bool FlatStore::Delete(uint64_t key) {
  const WriteOp op{key, nullptr, 0, /*tombstone=*/true};
  OpStatus st;
  return MultiPutOnCore(CoreForKey(key), &op, 1, &st) == 1;
}

uint64_t FlatStore::Scan(uint64_t start_key, uint64_t count,
                         std::vector<std::pair<uint64_t, std::string>>* out) {
  FLATSTORE_CHECK(scan_order_ != nullptr)
      << "Scan on FlatStore-H requires key order "
         "(FlatStoreOptions::tier_enabled)";
  // Scanned entries may live in any group's logs; a single guest pin
  // holds reclamation off store-wide for the scan's duration.
  common::EpochManager::GuestGuard guard(epochs_.get());
  vt::Charge(vt::kEpochPinCost);
  uint64_t produced = 0;
  uint64_t cursor = start_key;
  std::vector<index::KvPair> pairs;
  while (produced < count) {
    // A round asks the order for exactly the rows still wanted, so its
    // windows never overshoot `count`; keys that turn out dead (a
    // tombstone, or a key the index dropped) leave a next round to fill.
    const uint64_t want = count - produced;
    pairs.clear();
    const uint64_t got = scan_order_->Scan(cursor, want, &pairs);
    for (size_t p = 0; p < pairs.size();) {
      const size_t m = std::min<size_t>(kMaxReadBatch, pairs.size() - p);
      uint64_t keys[kMaxReadBatch], packed[kMaxReadBatch];
      bool found[kMaxReadBatch];
      for (size_t i = 0; i < m; i++) {
        keys[i] = pairs[p + i].key;
        packed[i] = pairs[p + i].value;
      }
      if (key_tree_ != nullptr) {
        // The key tree only proposes keys: each window is resolved
        // through the hash index on the batched read path.
        index::KvIndex* idxs[kMaxReadBatch];
        index::LookupHint hints[kMaxReadBatch];
        for (size_t i = 0; i < m; i++) {
          idxs[i] = IndexForCore(CoreForKey(keys[i]));
        }
        index::ProbeBatch(idxs, keys, m, found, packed, hints);
      }
      // An ordered index's values are authoritative: its windows run
      // only the fetch phases of the read path.
      produced += FetchWindow(keys, key_tree_ != nullptr ? found : nullptr,
                              packed, m, out);
      p += m;
    }
    if (got < want || pairs.back().key == UINT64_MAX) break;
    cursor = pairs.back().key + 1;
  }
  return produced;
}

bool FlatStore::CanScan() const { return scan_order_ != nullptr; }

// fs-lint: epoch-held(every scan holds its GuestGuard across its windows)
uint64_t FlatStore::FetchWindow(
    const uint64_t* keys, const bool* found, const uint64_t* packed,
    size_t n, std::vector<std::pair<uint64_t, std::string>>* out) const {
  ReadResult results[kMaxReadBatch];
  ReadResult* ptrs[kMaxReadBatch] = {};
  for (size_t i = 0; i < n; i++) {
    if (found == nullptr || found[i]) results[i].status = GetResult::kFound;
    ptrs[i] = &results[i];
  }
  FetchBatch(packed, n, ptrs);
  uint64_t emitted = 0;
  for (size_t i = 0; i < n; i++) {
    if (results[i].status != GetResult::kFound) continue;
    out->emplace_back(keys[i], std::move(results[i].value));
    emitted++;
  }
  return emitted;
}

uint64_t FlatStore::ScanFullIteration(
    uint64_t start_key, uint64_t count,
    std::vector<std::pair<uint64_t, std::string>>* out) {
  common::EpochManager::GuestGuard guard(epochs_.get());
  vt::Charge(vt::kEpochPinCost);
  // Pass 1: harvest every qualifying key from every core's index. A hash
  // index has no order, so there is no way to stop early — the whole
  // table is touched no matter how short the range.
  std::vector<std::pair<uint64_t, uint64_t>> hits;  // {key, packed}
  for (auto& idx : indexes_) {
    idx->ForEach([&](uint64_t key, uint64_t packed) {
      if (key >= start_key) hits.emplace_back(key, packed);
    });
  }
  std::sort(hits.begin(), hits.end());
  uint64_t produced = 0;
  for (size_t h = 0; h < hits.size() && produced < count;) {
    const size_t m = std::min<uint64_t>(
        {kMaxReadBatch, count - produced, hits.size() - h});
    uint64_t keys[kMaxReadBatch], packed[kMaxReadBatch];
    for (size_t i = 0; i < m; i++) {
      keys[i] = hits[h + i].first;
      packed[i] = hits[h + i].second;
    }
    produced += FetchWindow(keys, nullptr, packed, m, out);
    h += m;
  }
  return produced;
}

uint64_t FlatStore::Size() const {
  // Tombstones live in the index, so count only Put-pointing entries.
  // Size() may run from any thread: use a guest pin.
  common::EpochManager::GuestGuard guard(epochs_.get());
  uint64_t n = 0;
  for (const auto& idx : indexes_) {
    idx->ForEach([&](uint64_t, uint64_t packed) {
      log::DecodedEntry e;
      // fs-lint: unpinned-read(covered by the GuestGuard Size holds above)
      // The analyzer scopes pins per function and cannot see across the
      // lambda boundary.
      if (log::DecodeEntry(static_cast<const uint8_t*>(
                               pool_->At(log::UnpackOffset(packed))),
                           log::kMaxEntrySize, &e) &&
          e.op == log::OpType::kPut) {
        n++;
      }
    });
  }
  return n;
}

uint64_t FlatStore::ChunksCleaned() const {
  uint64_t n = 0;
  for (const auto& c : cleaners_) n += c->chunks_cleaned();
  return n;
}

// ---- log cleaning ---------------------------------------------------------

void FlatStore::EnsureCleaners() {
  if (!cleaners_.empty()) return;
  std::vector<log::OpLog*> raw;
  for (auto& l : logs_) raw.push_back(l.get());
  log::CleanerHooks hooks;
  hooks.index_of_key = [this](uint64_t key) {
    return IndexForCore(CoreForKey(key));
  };
  hooks.epochs = epochs_.get();
  log::LogCleaner::Options opts;
  opts.live_ratio = options_.gc_live_ratio;
  opts.quantum_bytes = options_.gc_quantum_bytes;
  opts.max_victims = options_.gc_max_victims;
  for (int first = 0; first < options_.num_cores;
       first += options_.group_size) {
    const int last = std::min(first + options_.group_size,
                              options_.num_cores);
    cleaners_.push_back(std::make_unique<log::LogCleaner>(
        raw, first, last, hooks, opts, alloc_.get()));
  }
}

void FlatStore::StartCleaners() {
  EnsureCleaners();
  for (auto& c : cleaners_) c->Start();
  cleaners_running_ = true;
}

size_t FlatStore::RunCleanersOnce() {
  EnsureCleaners();
  size_t freed = 0;
  for (auto& c : cleaners_) freed += c->RunOnce();
  return freed;
}

void FlatStore::SealActiveLogChunks() {
  for (auto& l : logs_) l->SealActiveChunk();
}

void FlatStore::StopCleaners() {
  for (auto& c : cleaners_) c->Stop();
  cleaners_running_ = false;
  // Run whatever frees the stopped cleaners left deferred, so shutdown /
  // checkpoint paths see a settled chunk population (a ReleaseChunk
  // running after a checkpoint would invalidate it).
  if (epochs_ != nullptr) epochs_->DrainDeferred();
}

size_t FlatStore::RunTieringOnce() { return RunCleanersOnce(); }

// ---- shutdown / recovery ---------------------------------------------------

void FlatStore::WriteCheckpoint() {
  // Disarm any previous checkpoint before touching the fields it covers.
  // A crash mid-rewrite must fall back to full log replay — otherwise it
  // could pair the *old* checkpoint chain with the *new* ckpt_tail[] and
  // silently skip every acknowledged op between the two.
  log::Superblock* sb0 = root_->superblock();
  if (sb0->clean_shutdown != 0) {
    sb0->clean_shutdown = 0;
    pool_->PersistFence(&sb0->clean_shutdown, 4);
  }
  // Record the per-core log positions the checkpoint covers.
  for (int c = 0; c < options_.num_cores; c++) {
    sb0->ckpt_tail[c] = logs_[c]->tail();
    uint32_t seq = 0;
    int owner;
    if (sb0->ckpt_tail[c] != 0) {
      root_->ChunkInfo(AlignDown(sb0->ckpt_tail[c], alloc::kChunkSize),
                       &owner, &seq);
    }
    sb0->ckpt_seq[c] = seq;
  }
  pool_->Persist(sb0, sizeof(log::Superblock));
  pool_->Fence();

  // Gather every (key, packed) pair.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (const auto& idx : indexes_) {
    idx->ForEach(
        [&](uint64_t k, uint64_t v) { pairs.push_back({k, v}); });
  }
  log::Superblock* sb = root_->superblock();
  sb->checkpoint_items = pairs.size();
  uint64_t prev_field_off = pool_->OffsetOf(&sb->checkpoint_off);
  uint64_t* prev_field = &sb->checkpoint_off;
  *prev_field = 0;

  size_t i = 0;
  while (i < pairs.size()) {
    uint64_t chunk = alloc_->AllocRawChunk(0);
    FLATSTORE_CHECK_NE(chunk, 0u) << "no space for index checkpoint";
    log::CheckpointHeader* hdr = log::CheckpointAt(pool_, chunk);
    hdr->next = 0;
    auto* data = reinterpret_cast<uint64_t*>(hdr + 1);
    uint64_t n = std::min<uint64_t>(log::kCheckpointPairs, pairs.size() - i);
    for (uint64_t j = 0; j < n; j++) {
      data[2 * j] = pairs[i + j].first;
      data[2 * j + 1] = pairs[i + j].second;
    }
    hdr->count = n;
    i += n;
    pool_->Persist(hdr, sizeof(log::CheckpointHeader) + n * 16);
    // Link from the previous chunk (or the superblock). One fence below
    // covers payload and link together rather than fencing the payload
    // first: the chain stays dead until CheckpointNow fences
    // clean_shutdown=1 after the full rewrite, so recovery never follows
    // a link whose payload is still in flight.
    // fs-lint: publish-ok(chain gated by clean_shutdown, fenced post-rewrite)
    // A torn chain is never dereferenced.
    *prev_field = chunk;
    pool_->Persist(pool_->At(prev_field_off), 8);
    pool_->Fence();
    prev_field = &hdr->next;
    prev_field_off = pool_->OffsetOf(prev_field);
  }
  pool_->PersistFence(&sb->checkpoint_items, 8);
}

void FlatStore::LoadCheckpoint() {
  log::Superblock* sb = root_->superblock();
  uint64_t chunk = sb->checkpoint_off;
  uint64_t loaded = 0;
  while (chunk != 0) {
    const log::CheckpointHeader* hdr = log::CheckpointAt(pool_, chunk);
    const auto* data = reinterpret_cast<const uint64_t*>(hdr + 1);
    for (uint64_t j = 0; j < hdr->count; j++) {
      const uint64_t key = data[2 * j];
      IndexForCore(CoreForKey(key))->Insert(key, data[2 * j + 1]);
      loaded++;
    }
    chunk = hdr->next;
  }
  FLATSTORE_CHECK_EQ(loaded, sb->checkpoint_items);
  // Consume the checkpoint: its chunks are *not* marked during recovery,
  // so they return to the free pool.
  sb->checkpoint_off = 0;
  sb->checkpoint_items = 0;
  pool_->PersistFence(&sb->checkpoint_off, 16);
}

void FlatStore::CheckpointNow() {
  // Pause cleaners: a chunk freed mid-checkpoint would leave the
  // checkpointed index pointing at recycled memory. Resume afterwards
  // only if background threads were actually running — RunCleanersOnce
  // instantiates cleaner objects without threads, and spawning threads
  // here would break callers relying on synchronous-only cleaning.
  const bool resume = cleaners_running_;
  StopCleaners();
  for (int c = 0; c < options_.num_cores; c++) {
    FLATSTORE_CHECK_EQ(Inflight(c), 0u) << "CheckpointNow with in-flight ops";
  }
  WriteCheckpoint();
  log::Superblock* sb = root_->superblock();
  sb->clean_shutdown = 1;
  pool_->PersistFence(&sb->clean_shutdown, 4);
  if (resume) StartCleaners();
}

void FlatStore::Shutdown() {
  StopCleaners();
  for (int c = 0; c < options_.num_cores; c++) {
    FLATSTORE_CHECK_EQ(Inflight(c), 0u) << "Shutdown with in-flight ops";
  }
  WriteCheckpoint();
  alloc_->PersistMetadata();  // paper: "flushes the bitmap of each chunk"
  log::Superblock* sb = root_->superblock();
  sb->clean_shutdown = 1;
  pool_->PersistFence(&sb->clean_shutdown, 4);
}

void FlatStore::Recover(bool rebuild_index) {
  recovery_stats_ = RecoveryStats{};
  // A crash inside RegisterChunk can leave provisional records whose
  // core/seq fields are garbage; free those slots before trusting the
  // registry (their chunks were empty — nothing committed points there).
  root_->ScrubProvisionalRecords();
  root_->RebuildMirror();
  alloc_->StartRecovery();

  // Registered log chunks grouped by owning core.
  struct Rec {
    uint64_t slot;
    uint64_t chunk;
    uint32_t seq;
    bool cleaner;  // persisted kChunkCleaner flag (relocation chunk)
  };
  const size_t cores = static_cast<size_t>(options_.num_cores);
  std::vector<std::vector<Rec>> per_core(cores);
  const log::ChunkRecord* regs = root_->registry();
  for (uint64_t s = 0; s < root_->registry_slots(); s++) {
    if (regs[s].chunk_off == 0) continue;
    FLATSTORE_CHECK_LT(regs[s].core,
                       static_cast<uint32_t>(options_.num_cores));
    per_core[regs[s].core].push_back(
        {s, regs[s].chunk_off & ~log::kChunkFlagsMask, regs[s].seq,
         (regs[s].chunk_off & log::kChunkCleaner) != 0});
    recovery_stats_.chunks_replayed++;
  }
  for (auto& v : per_core) {
    std::sort(v.begin(), v.end(),
              [](const Rec& a, const Rec& b) { return a.seq < b.seq; });
  }

  // Per-core tails and committed extents.
  std::vector<uint64_t> tails(cores, 0);
  std::vector<uint64_t> tail_seqs(cores, 0);
  for (size_t c = 0; c < cores; c++) {
    tails[c] = root_->ReadTail(static_cast<int>(c), &tail_seqs[c]);
  }

  // Pass 1, one thread per core, as in the paper ("the server cores need
  // to rebuild the in-memory index ... by scanning their OpLogs"): rebuild
  // the volatile index, newest version wins, and every chunk's usage but
  // its live counters. Entries route to the owning partition of their
  // *key* (stolen entries live in other cores' logs), so the upsert is
  // the atomic DuelInsert. Each chunk is walked once; the cleaner bounds
  // the chunks, and so the walk. After a clean open the checkpoint
  // already provided the index as of the recorded per-core positions, so
  // only the suffix beyond them is inserted (empty after a final
  // shutdown), but every entry is counted.
  std::vector<std::map<uint64_t, log::ChunkUsage>> usage(cores);
  const auto replay_t0 = std::chrono::steady_clock::now();
  RunOnEach(cores, [&](size_t c) {
    std::map<uint64_t, log::ChunkUsage>& chunks = usage[c];
    const log::Superblock* sb = root_->superblock();
    const uint64_t ckpt_tail = rebuild_index ? 0 : sb->ckpt_tail[c];
    const uint32_t ckpt_seq = rebuild_index ? 0 : sb->ckpt_seq[c];
    for (const Rec& r : per_core[c]) {
      log::ChunkUsage& u = chunks[r.chunk];
      u.seq = r.seq;
      u.cleaner = r.cleaner;
      u.registry_slot = r.slot;
      const bool tail_chunk = log::HoldsTail(r.chunk, tails[c]);
      u.sealed = !tail_chunk;
      const uint64_t committed =
          log::CommittedBytesAtRest(pool_, r.chunk, tails[c]);
      // The chained reader enforces txn atomicity (§5.3): members of a
      // chain surface only behind a valid commit record; a torn or
      // aborted chain is dropped wholesale — it "never happened", so its
      // bytes count as neither total nor live (garbage the cleaner will
      // collect with the chunk).
      // fs-lint: unpinned-read(recovery is offline; no cleaner runs yet)
      // No chunk can be retired during the scan.
      log::ChainedChunkReader reader(pool_, r.chunk, committed);
      log::DecodedEntry e;
      uint64_t off;
      while (reader.Next(&e, &off)) {
        u.total++;
        u.total_bytes += e.entry_len;
        if (e.op == log::OpType::kDelete) {
          u.tombs++;
          u.max_covered_seq =
              std::max(u.max_covered_seq, static_cast<uint32_t>(e.ptr));
        }
        // Commit records are born dead (never indexed) but counted in the
        // totals, matching the serving path's immediate NoteDead.
        if (e.op == log::OpType::kTxnCommit) continue;
        if (ckpt_tail != 0 &&
            (r.seq < ckpt_seq || (r.seq == ckpt_seq && off < ckpt_tail))) {
          continue;  // covered by the checkpoint
        }
        DuelInsert(IndexForCore(CoreForKey(e.key)), e.key,
                   log::PackIndexValue(off, e.version));
      }
      if (u.total == 0 && !tail_chunk) {
        // Pre-registered but never written (crash at rollover): reclaim.
        root_->UnregisterChunk(r.slot);
        chunks.erase(r.chunk);
        continue;
      }
      alloc_->MarkRawChunkAllocated(r.chunk);
    }
    // Tombstone index entries are retained on purpose: they keep per-key
    // versions monotonic across delete + re-put cycles.
  });
  recovery_stats_.replay_ns = ElapsedNs(replay_t0);

  // Pass 2, one thread per index partition (a tree store has one): an
  // entry is live iff the settled index names it. Each
  // named entry is decoded once, adds to its chunk's live counters in the
  // thread's own array, and marks its out-of-log block (allocator marking
  // is chunk-locked). Superseded entries are dead bytes of their chunk,
  // and their blocks were freed at supersede time, so they stay unmarked.
  struct Live {
    uint32_t entries = 0;
    uint64_t bytes = 0;
  };
  const auto usage_t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<Live>> live(
      indexes_.size(), std::vector<Live>(pool_->size() / alloc::kChunkSize));
  RunOnEach(indexes_.size(), [&](size_t i) {
    indexes_[i]->ForEach([&](uint64_t, uint64_t packed) {
      const uint64_t off = log::UnpackOffset(packed);
      log::DecodedEntry e;
      // fs-lint: unpinned-read(recovery is offline; no cleaner runs yet)
      // No chunk can be retired during the walk.
      if (!log::DecodeEntry(static_cast<const uint8_t*>(pool_->At(off)),
                            log::kMaxEntrySize, &e)) {
        return;
      }
      Live& l = live[i][off / alloc::kChunkSize];
      l.entries++;
      l.bytes += e.entry_len;
      if (e.op == log::OpType::kPut && !e.embedded) {
        alloc_->MarkBlockAllocated(e.ptr);
      }
    });
  });
  for (size_t c = 0; c < cores; c++) {
    for (auto& [chunk, u] : usage[c]) {
      for (const auto& per_thread : live) {
        u.live += per_thread[chunk / alloc::kChunkSize].entries;
        u.live_bytes += per_thread[chunk / alloc::kChunkSize].bytes;
      }
    }
    logs_[c]->AdoptRecoveredState(tails[c], tail_seqs[c],
                                  std::move(usage[c]));
  }
  alloc_->FinishRecovery();
  recovery_stats_.usage_ns = ElapsedNs(usage_t0);
  if (key_tree_ != nullptr) BuildKeyTree();
}

void FlatStore::BuildKeyTree() {
  std::vector<uint64_t> keys;
  uint64_t n = 0;
  for (const auto& idx : indexes_) n += idx->Size();
  keys.reserve(n);
  for (const auto& idx : indexes_) {
    idx->ForEach([&](uint64_t key, uint64_t) { keys.push_back(key); });
  }
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) key_tree_->Insert(key, 0);
}

}  // namespace core
}  // namespace flatstore
