// Transactions (DESIGN.md §5.3) — txn-size sweep at two levels:
//
//  * core sweep: one serving core driven directly through CommitTxnOnCore
//    (stage, then pump and drain to completion) over txn sizes 1/4/16/24
//    and three shapes, each on keys preloaded so every member overwrites:
//      - put:  `size` Puts of ETC-sized values (inline and out-of-log);
//      - cas:  `size` CAS members on 8-byte account balances, consecutive
//              members paired into two-key transfers (one unit moves from
//              the first account to the second; a lone CAS rewrites its
//              balance);
//      - rmw:  `size` RMW members, each incrementing an 8-byte counter.
//    Each txn touches the next `size` keys of the preloaded range. Rows
//    report vt ns, fences and charged PM reads (PmStats::reads) per txn.
//    A txn is one fused group, so fences/txn must not grow with its size
//    (CI asserts it).
//  * server sweep: the full client/server co-simulation with every write
//    sent as a txn (ServerConfig::txn_every = 1, 100 % writes, 64 B
//    values) over txn_size 1/4/16/24; each request is one txn.
//
// Every row lands in BENCH_txn.json with a "level" discriminator.

#include <cstring>

#include "bench_common.h"
#include "vt/clock.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("Transactions: txn-size sweep (Mtxn/s)");
BenchJson g_json("txn");

constexpr uint64_t kCoreKeys = 1 << 14;  // core sweep: preloaded range
constexpr uint64_t kSrvKeys = 1 << 18;   // server sweep: preloaded range

enum Shape { kPut = 0, kCas = 1, kRmw = 2 };
const char* ShapeName(int shape) {
  switch (shape) {
    case kPut:
      return "put";
    case kCas:
      return "cas";
    default:
      return "rmw";
  }
}

uint32_t IncrementCounter(void*, const void* cur, uint32_t cur_len,
                          uint8_t* out, uint32_t) {
  uint64_t v = 0;
  if (cur != nullptr) std::memcpy(&v, cur, std::min<uint32_t>(cur_len, 8));
  v++;
  std::memcpy(out, &v, 8);
  return 8;
}

// ---- core-level sweep ------------------------------------------------------

void BM_Core(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const size_t size = static_cast<size_t>(state.range(1));
  core::FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/512);
  core::FlatStore* store = rig.flat.get();

  // The core runs on this host thread: bind a simulated clock so every
  // modelled cost advances it.
  vt::Clock clock;
  vt::ScopedClock bind(&clock);

  const uint64_t keys = BenchKeys(kCoreKeys);
  std::vector<char> buf(workload::kEtcLargeMax, 'x');
  std::vector<uint64_t> balance(keys, 1000);  // host mirror (cas)
  for (uint64_t k = 0; k < keys; k++) {
    if (shape == kPut) {
      store->Put(k, std::string_view(
                        buf.data(), workload::Generator::EtcValueLen(k, keys)));
    } else {
      store->Put(k, std::string_view(
                        reinterpret_cast<const char*>(&balance[k]), 8));
    }
  }

  const uint64_t txns = std::max<uint64_t>(OpsPerPoint() / size, 1);
  core::TxnOp ops[core::kMaxTxnOps];
  uint64_t expected[core::kMaxTxnOps];
  uint64_t desired[core::kMaxTxnOps];
  const pm::PmStats::Snapshot before = rig.pool->stats().Get();
  const uint64_t t0 = vt::Now();
  for (auto _ : state) {
    for (uint64_t t = 0; t < txns; t++) {
      for (size_t j = 0; j < size; j++) {
        const uint64_t k = (t * size + j) % keys;
        core::TxnOp& op = ops[j];
        op = core::TxnOp{};
        op.key = k;
        switch (shape) {
          case kPut:
            op.kind = core::TxnOpKind::kPut;
            op.value = buf.data();
            op.len = workload::Generator::EtcValueLen(k + t, keys);
            break;
          case kCas: {
            const bool paired = (j % 2 == 1) || (j + 1 < size);
            const int64_t delta = !paired ? 0 : (j % 2 == 0 ? -1 : 1);
            expected[j] = balance[k];
            desired[j] = balance[k] + static_cast<uint64_t>(delta);
            op.kind = core::TxnOpKind::kCas;
            op.expected = &expected[j];
            op.expected_len = 8;
            op.value = &desired[j];
            op.len = 8;
            break;
          }
          default:
            op.kind = core::TxnOpKind::kRmw;
            op.rmw = IncrementCounter;
            break;
        }
      }
      const core::TxnStatus st = store->CommitTxnOnCore(0, ops, size);
      FLATSTORE_CHECK(st == core::TxnStatus::kCommitted)
          << core::TxnStatusName(st);
      if (shape == kCas) {
        for (size_t j = 0; j < size; j++) balance[ops[j].key] = desired[j];
      }
    }
  }
  const uint64_t t1 = vt::Now();
  const pm::PmStats::Snapshot delta =
      pm::Delta(before, rig.pool->stats().Get());

  const double n = static_cast<double>(txns);
  const double ns_per_txn = static_cast<double>(t1 - t0) / n;
  const double fences = static_cast<double>(delta.fences) / n;
  const double reads = static_cast<double>(delta.reads) / n;
  state.counters["vt_ns_per_txn"] = ns_per_txn;
  state.counters["fences_per_txn"] = fences;
  state.counters["pm_reads_per_txn"] = reads;

  const std::string label = std::string("core ") + ShapeName(shape) +
                            " size=" + std::to_string(size);
  Row row;
  row.system = "FlatStore-H";
  row.config = label;
  row.mops = 1000.0 / ns_per_txn;
  row.ops = txns;
  row.sim_ns = t1 - t0;
  g_table.Add(row);
  g_json.AddRow()
      .Str("system", "FlatStore-H")
      .Str("config", label)
      .Str("level", "core")
      .Str("shape", ShapeName(shape))
      .Int("txn_size", size)
      .Int("txns", txns)
      .Num("vt_ns_per_txn", ns_per_txn)
      .Num("fences_per_txn", fences)
      .Num("pm_reads_per_txn", reads);
}

// ---- server-level sweep ----------------------------------------------------

void BM_Server(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  core::FlatStoreOptions fo;
  fo.num_cores = kCores;
  fo.group_size = kCores;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/2048);

  core::ServerConfig cfg;
  cfg.num_conns = kConns;
  cfg.client_window = 8;
  cfg.ops_per_conn = std::max<uint64_t>(OpsPerPoint() / kConns, 1);
  cfg.workload.key_space = BenchKeys(kSrvKeys);
  cfg.workload.value_len = 64;
  cfg.workload.get_ratio = 0.0;
  cfg.txn_every = 1;
  cfg.txn_size = size;
  Preload(rig.adapter.get(), cfg.workload, cfg.workload.key_space);
  const std::string label = "server size=" + std::to_string(size);

  const pm::PmStats::Snapshot before = rig.pool->stats().Get();
  RunPoint(state, rig.adapter.get(), cfg, &g_table, "FlatStore-H", label);
  const pm::PmStats::Snapshot delta =
      pm::Delta(before, rig.pool->stats().Get());

  // Every request is one txn, and every point completes its full quota.
  const uint64_t txns = cfg.ops_per_conn * static_cast<uint64_t>(kConns);
  const double n = static_cast<double>(txns);
  g_json.AddRow()
      .Str("system", "FlatStore-H")
      .Str("config", label)
      .Str("level", "server")
      .Int("txn_size", static_cast<uint64_t>(size))
      .Int("txns", txns)
      .Num("mtxns", state.counters["sim_mops"])
      .Num("p50_us", state.counters["p50_us"])
      .Num("p99_us", state.counters["p99_us"])
      .Num("fences_per_txn", static_cast<double>(delta.fences) / n)
      .Num("pm_reads_per_txn", static_cast<double>(delta.reads) / n);
}

// BM_Core range(0): shape (0 put, 1 cas, 2 rmw); range(1) / BM_Server
// range(0): txn size.
BENCHMARK(BM_Core)
    ->ArgsProduct({{kPut, kCas, kRmw}, {1, 4, 16, 24}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Server)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(24)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.Print();
  flatstore::bench::g_json.Write();
  return 0;
}
