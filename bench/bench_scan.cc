// Range scans on the hash store (DESIGN.md §11). Two parts:
//
//  * Microbench (host wall-clock): ordered scans of a key-ordered store
//    (FlatStore::Scan — a walk of the store's key tree, each window of
//    keys resolved through the hash index) vs the only range query a
//    pure hash index has, ScanFullIteration (enumerate every index
//    entry, sort, read). Swept over range lengths; rows report the
//    ordered scan as `merged_us`. CI's bench-smoke asserts speedup >= 2
//    at range length >= 100.
//
//  * YCSB-E shaped simulation point (virtual time): 95 % short scans
//    from zipfian start keys + 5 % inserts through the full
//    client/server co-simulation, quoting Mops/s like the fig09 bench.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/flatstore.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("Range scans: key-ordered scan vs hash full iteration");

constexpr uint64_t kScanKeys = 1 << 17;

core::FlatStoreOptions KeyOrderedOptions() {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 8;
  fo.tier_enabled = true;  // keep key order
  return fo;
}

// Store preloaded with kScanKeys keys and a suffix of overwrites, then
// cleaned until a maintenance pass finds nothing to do.
Rig MakeScanRig() {
  Rig rig = MakeFlatRig(KeyOrderedOptions(), /*pool_mb=*/1024);
  std::string value(64, 's');
  const uint64_t keys = BenchKeys(kScanKeys);
  for (uint64_t k = 0; k < keys; k++) rig.flat->Put(k, value);
  rig.flat->SealActiveLogChunks();
  for (uint64_t k = 0; k < 1024 && k < keys; k++) rig.flat->Put(k, value);
  while (rig.flat->RunCleanersOnce() > 0) {
  }
  return rig;
}

BenchJson* g_json = nullptr;

void BM_ScanSweep(benchmark::State& state) {
  const auto range_len = static_cast<uint64_t>(state.range(0));
  const uint64_t keys = BenchKeys(kScanKeys);
  Rig rig = MakeScanRig();
  // Deterministic start keys spread over the space.
  const int iters = 32;
  std::vector<std::pair<uint64_t, std::string>> rows;
  double merged_us = 0, full_us = 0;
  uint64_t merged_found = 0, full_found = 0;
  auto pass = [&] {
    for (int i = 0; i < iters; i++) {
      const uint64_t start = (static_cast<uint64_t>(i) * 2654435761u) % keys;
      rows.clear();
      auto t0 = std::chrono::steady_clock::now();
      merged_found += rig.flat->Scan(start, range_len, &rows);
      auto t1 = std::chrono::steady_clock::now();
      merged_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      rows.clear();
      t0 = std::chrono::steady_clock::now();
      full_found += rig.flat->ScanFullIteration(start, range_len, &rows);
      t1 = std::chrono::steady_clock::now();
      full_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
  };
  // One untimed warm-up pass: the first pass over a fresh rig pays cold
  // caches and first-touch faults, which made a cold row unreliable.
  pass();
  merged_us = full_us = 0;
  merged_found = full_found = 0;
  for (auto _ : state) pass();
  merged_us /= iters;
  full_us /= iters;
  const double speedup = merged_us > 0 ? full_us / merged_us : 0;
  state.counters["merged_us"] = merged_us;
  state.counters["full_iter_us"] = full_us;
  state.counters["speedup"] = speedup;
  if (merged_found != full_found) {
    std::fprintf(stderr, "scan mismatch: %llu vs %llu items\n",
                 static_cast<unsigned long long>(merged_found),
                 static_cast<unsigned long long>(full_found));
    std::abort();
  }
  g_json->AddRow()
      .Str("mode", "micro")
      .Int("range_len", range_len)
      .Int("keys", keys)
      .Num("merged_us", merged_us)
      .Num("full_iter_us", full_us)
      .Num("speedup", speedup);
  std::printf("range %5llu: merged %9.1f us   full-iter %9.1f us   %6.1fx\n",
              static_cast<unsigned long long>(range_len), merged_us, full_us,
              speedup);
}
BENCHMARK(BM_ScanSweep)
    ->Arg(10)->Arg(100)->Arg(1000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// YCSB-E shape through the co-simulation: zipfian start keys, scan
// lengths uniform in [1, 100], 5 % inserts.
void BM_YcsbE(benchmark::State& state) {
  Rig rig = MakeScanRig();
  core::ServerConfig cfg;
  cfg.num_conns = kConns;
  cfg.client_window = 8;
  cfg.ops_per_conn = OpsPerPoint() / kConns;
  cfg.workload.key_space = BenchKeys(kScanKeys);
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.scan_ratio = 0.95;
  cfg.workload.scan_len_max = 100;
  cfg.workload.value_len = 64;
  RunPoint(state, rig.adapter.get(), cfg, &g_table, "FlatStore-H key-ordered",
           "ycsb-e 95:5");
}
BENCHMARK(BM_YcsbE)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  flatstore::bench::BenchJson json("scan");
  flatstore::bench::g_json = &json;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.Print();
  // The simulation rows ride in the same JSON as the micro rows.
  flatstore::bench::g_table.WriteJson("scan_sim");
  json.Write();
  return 0;
}
