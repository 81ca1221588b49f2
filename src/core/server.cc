#include "core/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "common/random.h"
#include "core/txn_wire.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {

// ---- FlatStoreAdapter -----------------------------------------------------

bool FlatStoreAdapter::Scan(int core, uint64_t start_key, uint64_t count,
                            uint64_t* found) {
  (void)core;  // the merge spans all cores; any core may serve it
  if (!store_->CanScan()) return false;
  std::vector<std::pair<uint64_t, std::string>> rows;
  *found = store_->Scan(start_key, count, &rows);
  return true;
}

size_t FlatStoreAdapter::SubmitWriteBatch(int core, const WriteReq* reqs,
                                          size_t n, Submit* out) {
  FLATSTORE_CHECK_LE(n, kMaxWriteBatch);
  WriteOp ops[kMaxWriteBatch];
  FlatStore::OpHandle handles[kMaxWriteBatch];
  OpStatus statuses[kMaxWriteBatch];
  for (size_t i = 0; i < n; i++) {
    ops[i] = {reqs[i].key, reqs[i].value, reqs[i].len, reqs[i].tombstone};
  }
  store_->BeginWriteBatch(core, ops, n, handles, statuses);
  size_t pending = 0;
  for (size_t i = 0; i < n; i++) {
    switch (statuses[i]) {
      case OpStatus::kOk:
        // Every kOk op, staged or absorbed, is one pending engine op in
        // op order, so the tag ring stays aligned with the FIFO drains.
        pending_[core].Push({handles[i], reqs[i].tag});
        out[i] = Submit::kPending;
        pending++;
        break;
      case OpStatus::kNotFound:
        out[i] = Submit::kNotFound;
        break;
      case OpStatus::kNoSpace:
        FLATSTORE_CHECK(false) << "PM exhausted during benchmark";
        break;
      default:
        out[i] = Submit::kBackpressure;
        break;
    }
  }
  return pending;
}

EngineAdapter::Submit FlatStoreAdapter::SubmitTxn(int core, const TxnOp* ops,
                                                  size_t n, uint64_t tag) {
  FlatStore::OpHandle commit;
  switch (store_->BeginTxn(core, ops, n, &commit)) {
    case TxnStatus::kCommitted:
      if (commit == FlatStore::kNoOpHandle) return Submit::kDoneNow;
      // A txn drains as ONE completion (the commit record's), so pushing
      // just the commit handle keeps the tag ring FIFO-aligned.
      pending_[core].Push({commit, tag});
      return Submit::kPending;
    case TxnStatus::kCasMismatch:
      return Submit::kCasMismatch;
    case TxnStatus::kBusy:
      return Submit::kBusy;
    case TxnStatus::kBackpressure:
      return Submit::kBackpressure;
    case TxnStatus::kNoSpace:
      FLATSTORE_CHECK(false) << "PM exhausted during benchmark";
      break;
  }
  return Submit::kBackpressure;
}

size_t FlatStoreAdapter::Drain(int core, std::vector<Done>* done) {
  std::vector<FlatStore::Completion>& completions = completions_[core];
  completions.clear();
  store_->Drain(core, SIZE_MAX, &completions);
  if (completions.empty()) return 0;
  // Completions come back in FIFO order, matching pending_.
  TagRing& pend = pending_[core];
  FLATSTORE_CHECK_GE(pend.count, completions.size());
  for (size_t i = 0; i < completions.size(); i++) {
    FLATSTORE_DCHECK(pend.At(i).handle == completions[i].handle);
    done->push_back({pend.At(i).tag, completions[i].done_time});
  }
  pend.PopN(completions.size());
  return completions.size();
}

// ---- deterministic co-simulation -------------------------------------------

namespace {

// Per-core server state across scheduling quanta.
struct CoreLoop {
  vt::Clock clock;
  // In-flight writes in submission order. Tags are assigned sequentially
  // and the engine drains FIFO, so completions always match the front —
  // a deque replaces the old per-op hash-map insert/erase.
  struct PendingWrite {
    uint64_t tag;
    int conn;
    net::Request req;
  };
  std::deque<PendingWrite> pending;
  // A polled request held in one of the quantum's batches.
  struct Slot {
    int conn;
    net::Request req;
  };
  // Read batch for the MultiGet path: Gets admitted this quantum plus
  // deferred leftovers (keys whose writes were in flight) carried over.
  std::vector<Slot> reads;
  std::vector<uint64_t> read_keys;       // scratch, sized kMaxReadBatch
  std::vector<ReadResult> read_results;  // scratch, sized kMaxReadBatch
  // Write batch for the fused MultiPut path: Puts/Deletes admitted this
  // quantum plus backpressured leftovers (fused staging is all-or-
  // nothing) carried over.
  std::vector<Slot> writes;
  std::vector<EngineAdapter::WriteReq> write_reqs;     // scratch
  std::vector<EngineAdapter::Submit> write_status;     // scratch
  uint64_t next_tag = 1;

  CoreLoop() {
    reads.reserve(kMaxReadBatch);
    read_keys.resize(kMaxReadBatch);
    read_results.resize(kMaxReadBatch);
    writes.reserve(kMaxWriteBatch);
    write_reqs.resize(kMaxWriteBatch);
    write_status.resize(kMaxWriteBatch);
  }
};

// Posts a Get's response from its read result. `chained` appends the verb
// to the doorbell chain an earlier response of this quantum opened.
void PostGetResponse(net::FlatRpc& rpc, int core, int conn,
                     const net::Request& req, const ReadResult& r,
                     bool chained) {
  net::Response resp;
  resp.type = req.type;
  resp.seq = req.seq;
  resp.value_len = 0;
  if (r.status == GetResult::kFound) {
    resp.status = net::MsgStatus::kOk;
    resp.value_len = static_cast<uint32_t>(
        std::min<size_t>(r.value.size(), net::kMaxMsgValue));
    std::memcpy(resp.value, r.value.data(), resp.value_len);
  } else {
    resp.status = net::MsgStatus::kNotFound;
  }
  rpc.PostResponse(core, conn, &resp, 0, chained);
}

// Posts the response of a completed write or a Scan (served here).
void RespondNow(net::FlatRpc& rpc, int core, int conn,
                const net::Request& req, EngineAdapter* engine,
                uint64_t not_before = 0, bool chained = false) {
  net::Response resp;
  resp.type = req.type;
  resp.seq = req.seq;
  resp.value_len = 0;
  resp.status = net::MsgStatus::kOk;
  if (req.type == net::MsgType::kScan) {
    // Range read: the request's value_len carries the scan length; the
    // response carries only the hit count (the per-item read work is
    // charged on this core's clock inside Scan).
    uint64_t found = 0;
    if (engine->Scan(core, req.key, req.value_len, &found)) {
      resp.value_len = sizeof(found);
      std::memcpy(resp.value, &found, sizeof(found));
    } else {
      resp.status = net::MsgStatus::kUnsupported;
    }
  }
  rpc.PostResponse(core, conn, &resp, not_before, chained);
}

// Phase 1 of a server core's scheduling quantum: poll a burst of
// requests, run their l-persist, stage their log entries. All cores run
// phase 1 before any runs phase 2 (persist), mirroring the real system
// where cores poll concurrently — otherwise a leader would never find
// sibling entries to steal. Marks the core's clock idle when the burst
// ended with no request left to admit at its clock, for the HB leader
// elections of the persist phase (vt::CoreIdle). Returns true if any
// work happened.
//
// Quanta are dispatched round-robin from a single host thread so the
// interleaving -- and therefore every virtual-time result -- is
// deterministic for a given seed (host scheduling must not leak into the
// model; the concurrent deployment is exercised by the test suite).
bool CorePollStep(EngineAdapter* engine, net::FlatRpc& rpc, int core,
                  CoreLoop& state, int read_batch, int write_batch,
                  bool respect_arrival, uint64_t arrival_horizon) {
  vt::ScopedClock bind(&state.clock);
  bool progress = false;
  bool idle = false;  // the rings ran dry
  const bool batched = read_batch > 1;
  const bool wbatched = write_batch > 1;

  // Poll and admit a bounded burst (user-level polling, per-core
  // processing -- paper 3.1).
  for (int burst = 0; burst < 16; burst++) {
    int conn;
    // Open loop admits in arrival order (earliest scheduled stamp first);
    // closed loop keeps the round-robin poll.
    net::Request* req = respect_arrival
                            ? rpc.PollEarliestRequest(core, &conn)
                            : rpc.PollRequest(core, &conn);
    if (req == nullptr) {
      idle = true;
      break;
    }
    if (respect_arrival) {
      // Open loop: requests are stamped with *scheduled* (possibly
      // future) arrivals. A core may only admit a request that has
      // already arrived by its own clock, or the globally earliest
      // pending one (the event horizon — some core must idle-advance to
      // it or the simulation stalls). Without this, lockstep poll passes
      // would fuse requests hundreds of microseconds apart into one
      // persist batch and report queueing delay that never happened.
      const uint64_t arr = rpc.ArrivalTime(*req);
      if (arr > state.clock.now() && arr > arrival_horizon) {
        idle = true;
        break;
      }
    }
    if (batched && req->type == net::MsgType::kGet &&
        state.reads.size() >= static_cast<size_t>(read_batch)) {
      // Batch full: the Get stays at its ring head for the next quantum.
      break;
    }
    if (wbatched &&
        (req->type == net::MsgType::kPut ||
         req->type == net::MsgType::kDelete) &&
        state.writes.size() >= static_cast<size_t>(write_batch)) {
      // Write batch full: the op stays at its ring head likewise.
      break;
    }
    // A request that arrives after the core's clock is waited for: the
    // jump is idle time.
    state.clock.WaitUntil(rpc.ArrivalTime(*req));
    vt::Charge(vt::kRpcProcessCost);

    if (req->type == net::MsgType::kGet) {
      if (batched) {
        // Admit into this quantum's read batch; the conflict check runs
        // inside MultiGet (busy keys come back kDeferred and are carried
        // to the next quantum instead of head-of-line-blocking the ring).
        state.reads.push_back({conn, *req});
        rpc.PopRequest(core, conn);
        progress = true;
        continue;
      }
      // Per-request schedule: a one-key read. A key with a write in
      // flight is deferred and the Get stays at its ring head (conflict
      // queue), retried after a future drain.
      ReadResult& r = state.read_results[0];
      if (engine->MultiGet(core, &req->key, 1, &r) == 0) continue;
      PostGetResponse(rpc, core, conn, *req, r, /*chained=*/false);
      rpc.PopRequest(core, conn);
      progress = true;
      continue;
    }

    if (req->type == net::MsgType::kScan) {
      // Scans are served inline and never batched: each is its own
      // ordered traversal. Writes still in flight on scanned keys are
      // simply not visible yet — same read-your-persisted semantics as
      // the index the scan reads.
      RespondNow(rpc, core, conn, *req, engine);
      rpc.PopRequest(core, conn);
      progress = true;
      continue;
    }

    if (req->type == net::MsgType::kTxn) {
      // Transactions are submitted immediately (never folded into the
      // fused write batch: the txn is already its own all-or-nothing
      // group). Decode BEFORE PopRequest — the decoded ops alias the ring
      // buffer, and BeginTxn copies every member byte into its chain
      // before returning.
      net::Response resp;
      resp.type = req->type;
      resp.seq = req->seq;
      resp.value_len = 0;
      TxnOp ops[kMaxTxnOps];
      size_t nops = 0;
      bool valid =
          DecodeTxnOps(req->value, req->value_len, ops, kMaxTxnOps, &nops);
      // A txn stages on the core its members route to: one with a member
      // owned by another core (a client with a stale routing view) is
      // refused like a malformed one, before the engine sees it.
      for (size_t i = 0; valid && i < nops; i++) {
        valid = engine->CoreForKey(ops[i].key) == core;
      }
      if (!valid) {
        resp.status = net::MsgStatus::kUnsupported;
        rpc.PostResponse(core, conn, &resp, 0);
        rpc.PopRequest(core, conn);
        progress = true;
        continue;
      }
      const uint64_t tag = state.next_tag++;
      switch (engine->SubmitTxn(core, ops, nops, tag)) {
        case EngineAdapter::Submit::kPending:
          state.pending.push_back({tag, conn, *req});
          rpc.PopRequest(core, conn);
          progress = true;
          break;
        case EngineAdapter::Submit::kDoneNow:
          resp.status = net::MsgStatus::kOk;
          rpc.PostResponse(core, conn, &resp, 0);
          rpc.PopRequest(core, conn);
          progress = true;
          break;
        case EngineAdapter::Submit::kCasMismatch:
          resp.status = net::MsgStatus::kCasMismatch;
          rpc.PostResponse(core, conn, &resp, 0);
          rpc.PopRequest(core, conn);
          progress = true;
          break;
        case EngineAdapter::Submit::kNotFound:
        case EngineAdapter::Submit::kUnsupported:
          resp.status = net::MsgStatus::kUnsupported;
          rpc.PostResponse(core, conn, &resp, 0);
          rpc.PopRequest(core, conn);
          progress = true;
          break;
        case EngineAdapter::Submit::kBusy:
          // A txn key has in-flight writes: the request stays at its
          // ring's head and retries after a future drain, while the core
          // keeps serving the other connections (same rule as single
          // writes below).
          break;
        case EngineAdapter::Submit::kBackpressure:
          burst = 16;  // pool full: stop admitting until a pump/drain
          break;
      }
      continue;
    }

    if (wbatched) {
      // Admit into this quantum's fused write batch, submitted below.
      state.writes.push_back({conn, *req});
      rpc.PopRequest(core, conn);
      progress = true;
      continue;
    }

    // Per-request schedule: stage the write as a one-op batch right away,
    // so an HB leader on another core can steal it while this core keeps
    // polling.
    const EngineAdapter::WriteReq wreq{
        req->key, req->value, req->value_len,
        req->type == net::MsgType::kDelete, state.next_tag++};
    EngineAdapter::Submit st;
    engine->SubmitWriteBatch(core, &wreq, 1, &st);
    switch (st) {
      case EngineAdapter::Submit::kPending:
        state.pending.push_back({wreq.tag, conn, *req});
        rpc.PopRequest(core, conn);
        progress = true;
        break;
      case EngineAdapter::Submit::kDoneNow:
      case EngineAdapter::Submit::kNotFound:
        RespondNow(rpc, core, conn, *req, engine);
        rpc.PopRequest(core, conn);
        progress = true;
        break;
      default:
        // Request pool full: the write stays at its ring head; stop
        // admitting until a pump/drain cycle.
        burst = 16;
        break;
    }
  }

  // Stage the accumulated writes as ONE fused batch before any read is
  // served: a same-quantum Put→Get pair on one key then defers the Get
  // through the in-flight table, preserving the per-request schedule's
  // ordering. Backpressured ops (fused staging is all-or-nothing) stay in
  // `writes` and retry next quantum, after a pump/drain cycle freed pool
  // slots.
  if (wbatched && !state.writes.empty()) {
    const size_t n = state.writes.size();
    for (size_t i = 0; i < n; i++) {
      const net::Request& r = state.writes[i].req;
      state.write_reqs[i] = {r.key, r.value, r.value_len,
                             r.type == net::MsgType::kDelete,
                             state.next_tag++};
    }
    engine->SubmitWriteBatch(core, state.write_reqs.data(), n,
                             state.write_status.data());
    size_t kept = 0;
    for (size_t i = 0; i < n; i++) {
      switch (state.write_status[i]) {
        case EngineAdapter::Submit::kPending:
          state.pending.push_back({state.write_reqs[i].tag,
                                   state.writes[i].conn,
                                   state.writes[i].req});
          progress = true;
          break;
        case EngineAdapter::Submit::kDoneNow:
        case EngineAdapter::Submit::kNotFound:
          RespondNow(rpc, core, state.writes[i].conn, state.writes[i].req,
                     engine);
          progress = true;
          break;
        default:  // kBusy / kBackpressure: carry to the next quantum
          state.writes[kept++] = state.writes[i];
          break;
      }
    }
    state.writes.resize(kept);
  }

  // Serve the accumulated read batch in one prefetch-interleaved pass.
  // Deferred keys (write in flight) stay in `reads` and retry next
  // quantum, after the persist step has had a chance to drain the
  // blocking write; they never livelock because persist steps always
  // make progress on staged writes.
  if (batched && !state.reads.empty()) {
    const size_t n = state.reads.size();
    for (size_t i = 0; i < n; i++) {
      state.read_keys[i] = state.reads[i].req.key;
    }
    engine->MultiGet(core, state.read_keys.data(), n,
                     state.read_results.data());
    // The quantum's read responses go out as one doorbell chain: the
    // first verb pays the MMIO/handoff, the rest ride it.
    bool chain_open = false;
    size_t kept = 0;
    for (size_t i = 0; i < n; i++) {
      // A carried-over (backpressured, not yet staged) write on this key
      // is invisible to the engine's in-flight table; defer the read so
      // it cannot overtake that write.
      if (state.read_results[i].status != GetResult::kDeferred) {
        for (const auto& w : state.writes) {
          if (w.req.key == state.reads[i].req.key) {
            state.read_results[i].status = GetResult::kDeferred;
            break;
          }
        }
      }
      if (state.read_results[i].status == GetResult::kDeferred) {
        state.reads[kept++] = state.reads[i];
        continue;
      }
      PostGetResponse(rpc, core, state.reads[i].conn, state.reads[i].req,
                      state.read_results[i], chain_open);
      chain_open = true;
      progress = true;
    }
    state.reads.resize(kept);
  }

  state.clock.set_idle(idle);
  return progress;
}

// Phase 2: g-persist (leader election / self-batching) + the volatile
// phase (index updates in Drain) + responses.
bool CorePersistStep(EngineAdapter* engine, net::FlatRpc& rpc, int core,
                     CoreLoop& state,
                     std::vector<EngineAdapter::Done>& done_scratch,
                     bool coalesce_responses) {
  vt::ScopedClock bind(&state.clock);
  bool progress = false;
  if (engine->Pump(core) > 0) progress = true;

  done_scratch.clear();
  if (engine->Drain(core, &done_scratch) > 0) {
    // Under the batched write path the drain's responses go out as one
    // doorbell chain: the first verb pays the MMIO/handoff, the rest ride
    // it (net::FlatRpc::PostResponse `chained`).
    bool chain_open = false;
    for (const auto& d : done_scratch) {
      FLATSTORE_CHECK(!state.pending.empty());
      const CoreLoop::PendingWrite& w = state.pending.front();
      FLATSTORE_CHECK_EQ(w.tag, d.tag);  // drains complete in submit order
      RespondNow(rpc, core, w.conn, w.req, engine, d.done_time,
                 coalesce_responses && chain_open);
      chain_open = true;
      state.pending.pop_front();
    }
    progress = true;
  }
  return progress;
}

// One simulated client connection.
struct Conn {
  // In-flight window is capped at 8 (the response ring size, checked in
  // RunServer), so a fixed array with swap-erase replaces the old
  // seq->post-time hash map and its per-request node allocations.
  static constexpr size_t kMaxWindow = 8;
  struct Posted {
    uint64_t seq;
    uint64_t post_time;
  };

  int id;
  uint64_t clock = 0;  // connection-local simulated time
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t next_seq = 1;
  Posted posted[kMaxWindow];
  size_t nposted = 0;
  std::unique_ptr<workload::Generator> gen;
  // Open-loop arrival schedule (ServerConfig::open_loop): scheduled
  // instant of the last posted request and the exponential gap state.
  uint64_t next_arrival = 0;
  double mean_gap = 0;  // ns between this connection's arrivals
  Rng arrival_rng{1};
  Histogram latency;
};

// Drains any delivered responses into the connection's accounting.
void DrainResponses(net::FlatRpc& rpc, Conn* conn) {
  net::Response resp;
  while (rpc.PollResponse(conn->id, &resp)) {
    const uint64_t arrival = net::FlatRpc::ResponseArrival(resp);
    conn->clock = std::max(conn->clock, arrival);
    size_t i = 0;
    while (i < conn->nposted && conn->posted[i].seq != resp.seq) i++;
    FLATSTORE_CHECK_LT(i, conn->nposted) << "response for unknown seq";
    conn->latency.Record(arrival - conn->posted[i].post_time);
    conn->posted[i] = conn->posted[--conn->nposted];
    conn->completed++;
  }
}

// One scheduling quantum of a connection: fill the request window, drain
// responses. Returns true while the connection has work left.
bool ConnStep(EngineAdapter* engine, net::FlatRpc& rpc, Conn* conn,
              const ServerConfig& config, const uint8_t* value) {
  while (conn->issued < config.ops_per_conn &&
         conn->nposted < static_cast<size_t>(config.client_window)) {
    workload::Op op = conn->gen->Next();
    net::Request req;
    req.seq = conn->next_seq;
    req.key = op.key;
    switch (op.type) {
      case workload::OpType::kPut:
        if (config.txn_every > 0 &&
            conn->issued % static_cast<uint64_t>(config.txn_every) ==
                static_cast<uint64_t>(config.txn_every) - 1) {
          // Every txn_every-th write goes out as an atomic multi-put:
          // txn_size puts on same-core keys, scanned upward from the
          // workload key so the whole txn routes to one core. Member
          // values are capped at 128 B so the encoded txn always fits
          // the message buffer.
          req.type = net::MsgType::kTxn;
          const int target = engine->CoreForKey(op.key);
          const size_t want = std::min<size_t>(
              static_cast<size_t>(std::max(config.txn_size, 1)),
              kMaxTxnOps);
          const uint32_t len =
              std::max<uint32_t>(1, std::min<uint32_t>(op.value_len, 128));
          TxnOp ops[kMaxTxnOps];
          size_t nops = 0;
          for (uint64_t k = op.key; nops < want; k++) {
            if (engine->CoreForKey(k) != target) continue;
            ops[nops] = TxnOp{};
            ops[nops].kind = TxnOpKind::kPut;
            ops[nops].key = k;
            ops[nops].value = value;
            ops[nops].len = len;
            nops++;
          }
          req.value_len =
              EncodeTxnOps(req.value, net::kMaxMsgValue, ops, nops);
          FLATSTORE_CHECK_GT(req.value_len, 0u);
          break;
        }
        req.type = net::MsgType::kPut;
        req.value_len = std::min(op.value_len, net::kMaxMsgValue);
        std::memcpy(req.value, value, req.value_len);
        break;
      case workload::OpType::kGet:
        req.type = net::MsgType::kGet;
        req.value_len = 0;
        break;
      case workload::OpType::kDelete:
        req.type = net::MsgType::kDelete;
        req.value_len = 0;
        break;
      case workload::OpType::kScan:
        // value_len carries the scan length (no payload bytes ride along).
        req.type = net::MsgType::kScan;
        req.value_len = op.scan_len;
        break;
    }
    uint64_t scheduled = 0;
    if (config.open_loop) {
      // Poisson arrivals: the request is stamped with its *scheduled*
      // instant, decoupled from service progress. (If the window or ring
      // blocked earlier, scheduled may lag conn->clock — the server sees
      // a backlogged arrival, and latency from the scheduled instant
      // shows the queueing.)
      const double u = conn->arrival_rng.NextDouble();
      uint64_t gap =
          static_cast<uint64_t>(-conn->mean_gap * std::log1p(-u));
      if (gap == 0) gap = 1;
      scheduled = conn->next_arrival + gap;
      req.post_time = scheduled;
    } else {
      conn->clock += vt::kClientPostCost;
      req.post_time = conn->clock;
    }
    if (!rpc.PostRequest(conn->id, engine->CoreForKey(op.key), req)) {
      if (!config.open_loop) conn->clock -= vt::kClientPostCost;
      break;  // ring full; retry after draining responses
    }
    if (config.open_loop) {
      conn->next_arrival = scheduled;
      conn->clock = std::max(conn->clock, scheduled);
    }
    conn->posted[conn->nposted++] = {req.seq, req.post_time};
    conn->next_seq++;
    conn->issued++;
  }
  DrainResponses(rpc, conn);
  return conn->completed < config.ops_per_conn;
}

std::vector<Conn> MakeConns(const ServerConfig& config) {
  std::vector<Conn> conns(static_cast<size_t>(config.num_conns));
  for (int i = 0; i < config.num_conns; i++) {
    conns[i].id = i;
    conns[i].gen = std::make_unique<workload::Generator>(
        config.workload, config.seed * 7919 + static_cast<uint64_t>(i));
    if (config.open_loop) {
      FLATSTORE_CHECK_GT(config.offered_mops, 0.0);
      // offered_mops is aggregate: each of num_conns connections offers
      // an equal slice, so its mean gap is nconns/rate (rate in ops/ns).
      conns[i].mean_gap = static_cast<double>(config.num_conns) * 1000.0 /
                          config.offered_mops;
      conns[i].arrival_rng =
          Rng(config.seed * 104729 + static_cast<uint64_t>(i) + 1);
    }
  }
  return conns;
}

// Deterministic round-robin co-simulation of connections and cores.
// Within a sweep, poll and persist rounds alternate until the cores run
// dry: every core stages (phase 1) before any persists (phase 2) so
// leaders see their siblings' staged entries, and conflict-queue retries
// (hot keys under skew) get another chance as soon as the blocking op
// drains — not a whole sweep later.
void RunLoop(EngineAdapter* engine, net::FlatRpc& rpc,
             std::vector<CoreLoop>& cores, std::vector<Conn>& conns,
             const ServerConfig& config) {
  const int ncores = engine->num_cores();
  const int read_batch =
      std::min(config.read_batch, static_cast<int>(kMaxReadBatch));
  const int write_batch =
      std::min(config.write_batch, static_cast<int>(kMaxWriteBatch));
  const bool coalesce = write_batch > 1;
  std::vector<EngineAdapter::Done> done_scratch;
  uint8_t value[net::kMaxMsgValue];
  std::memset(value, 0x5A, sizeof(value));

  // Earliest pending arrival across every core — the open-loop event
  // horizon recomputed before each poll pass. Closed loop never consults
  // it (requests carry past stamps).
  auto arrival_horizon = [&]() -> uint64_t {
    uint64_t h = UINT64_MAX;
    if (!config.open_loop) return h;
    for (int c = 0; c < ncores; c++) {
      int conn;
      net::Request* r = rpc.PollEarliestRequest(c, &conn);
      if (r != nullptr) h = std::min(h, rpc.ArrivalTime(*r));
    }
    return h;
  };

  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (Conn& conn : conns) {
      if (ConnStep(engine, rpc, &conn, config, value)) work_left = true;
    }
    bool round_progress = true;
    while (round_progress) {
      round_progress = false;
      const uint64_t horizon = arrival_horizon();
      for (int c = 0; c < ncores; c++) {
        if (CorePollStep(engine, rpc, c, cores[c], read_batch, write_batch,
                         config.open_loop, horizon)) {
          round_progress = true;
        }
      }
      bool persist_progress = true;
      while (persist_progress) {
        persist_progress = false;
        for (int c = 0; c < ncores; c++) {
          if (CorePersistStep(engine, rpc, c, cores[c], done_scratch,
                              coalesce)) {
            persist_progress = true;
            round_progress = true;
          }
        }
      }
      // Open loop: refill the client windows after EVERY pass. Draining
      // the rings to empty first would let the cores chase the slowest
      // connection's lookahead (its 8th future stamp) while other
      // connections still have *earlier* arrivals to post — a host-order
      // barrier that breaks virtual-time causality and reports queueing
      // that never happened.
      if (config.open_loop) break;
    }
  }
  // Final sweep: cores finish in-flight persists, clients collect the
  // last responses.
  bool progress = true;
  while (progress) {
    progress = false;
    const uint64_t horizon = arrival_horizon();
    for (int c = 0; c < ncores; c++) {
      if (CorePollStep(engine, rpc, c, cores[c], read_batch, write_batch,
                       config.open_loop, horizon)) {
        progress = true;
      }
      if (CorePersistStep(engine, rpc, c, cores[c], done_scratch,
                          coalesce)) {
        progress = true;
      }
    }
    for (Conn& conn : conns) {
      const uint64_t before = conn.completed;
      DrainResponses(rpc, &conn);
      if (conn.completed != before) progress = true;
    }
  }
}

}  // namespace

ServerResult RunServer(EngineAdapter* engine, const ServerConfig& config) {
  FLATSTORE_CHECK_LE(config.client_window, 8)
      << "client window exceeds the response ring size";
  // RPC fabric sized for the client fleet, and each core clock stamped
  // with its socket (the hook that makes cross-socket surcharges apply).
  net::FlatRpc::Options ro;
  ro.num_cores = engine->num_cores();
  ro.num_conns = config.num_conns;
  ro.all_to_all = config.all_to_all_qps;
  net::FlatRpc rpc(ro);
  std::vector<CoreLoop> cores(static_cast<size_t>(engine->num_cores()));
  for (int c = 0; c < engine->num_cores(); c++) {
    cores[c].clock.set_socket(engine->SocketForCore(c));
  }
  std::vector<Conn> conns = MakeConns(config);
  {
    // Every core's clock, so that each core's steps see which peers are
    // idle (vt::CoreIdle). The binding ends with the run: no later caller
    // defers to a core that no longer pumps.
    std::vector<vt::Clock*> clocks;
    for (CoreLoop& s : cores) clocks.push_back(&s.clock);
    vt::ScopedCoreClocks bind(clocks.data(), static_cast<int>(clocks.size()));
    RunLoop(engine, rpc, cores, conns, config);
  }

  ServerResult result;
  for (const Conn& c : conns) {
    result.ops += c.completed;
    result.latency.Merge(c.latency);
  }
  for (const CoreLoop& s : cores) {
    result.core_ns.push_back(s.clock.now());
    result.idle_ns += s.clock.idle_ns();
    result.sim_ns = std::max(result.sim_ns, s.clock.now());
  }
  if (result.sim_ns > 0) {
    result.mops = static_cast<double>(result.ops) * 1000.0 /
                  static_cast<double>(result.sim_ns);
  }
  return result;
}

void Preload(EngineAdapter* engine, const workload::Config& workload,
             uint64_t keys) {
  const int ncores = engine->num_cores();
  std::vector<uint8_t> value(net::kMaxMsgValue, 0x5A);
  std::vector<std::vector<EngineAdapter::WriteReq>> batches(
      static_cast<size_t>(ncores));
  for (auto& b : batches) b.reserve(kMaxWriteBatch);
  EngineAdapter::Submit status[kMaxWriteBatch] = {};
  std::vector<EngineAdapter::Done> done;

  // Submits every core's batch, then pumps and drains all cores until no
  // write is in flight. Ops refused as busy or backpressured stay queued
  // and go out again once the drain has freed their pool slots.
  auto flush = [&]() {
    size_t refused = 0;
    do {
      size_t in_flight = 0, submitted = 0;
      refused = 0;
      for (int c = 0; c < ncores; c++) {
        std::vector<EngineAdapter::WriteReq>& b = batches[c];
        if (b.empty()) continue;
        in_flight += engine->SubmitWriteBatch(c, b.data(), b.size(), status);
        submitted += b.size();
        size_t kept = 0;
        for (size_t i = 0; i < b.size(); i++) {
          if (status[i] == EngineAdapter::Submit::kBusy ||
              status[i] == EngineAdapter::Submit::kBackpressure) {
            b[kept++] = b[i];
          }
        }
        b.resize(kept);
        refused += kept;
      }
      // With nothing in flight every pool is empty, so a round that
      // admits nothing would repeat forever.
      FLATSTORE_CHECK(refused == 0 || refused < submitted)
          << "Preload cannot stage a batch";
      while (in_flight > 0) {
        for (int c = 0; c < ncores; c++) engine->Pump(c);
        for (int c = 0; c < ncores; c++) {
          done.clear();
          in_flight -= engine->Drain(c, &done);
        }
      }
    } while (refused > 0);
  };

  for (uint64_t k = 0; k < keys; k++) {
    const uint32_t len =
        workload.etc_values
            ? workload::Generator::EtcValueLen(k, workload.key_space)
            : workload.value_len;
    std::vector<EngineAdapter::WriteReq>& b = batches[engine->CoreForKey(k)];
    b.push_back({k, value.data(), len, /*tombstone=*/false, k + 1});
    if (b.size() == kMaxWriteBatch) flush();
  }
  flush();
}

}  // namespace core
}  // namespace flatstore
