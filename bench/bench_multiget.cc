// Batched read pipeline — MultiGet batch-size sweep. Read-heavy ETC
// (5 % Put / 95 % Get) under uniform and zipfian key draws, sweeping the
// server's read batch over 1, 2, 4, 8, 16, 32 for FlatStore-H and
// FlatStore-M. Batch 1 is the per-request schedule (the control): each
// Get is a one-key MultiGet served as it is polled. Larger batches
// amortize one epoch pin across the batch, overlap the index-probe cache
// misses behind prefetches, and issue the log/block value reads
// back-to-back so the PM device services them concurrently.
//
// Expected shape: throughput rises with the batch until the memory-level
// parallelism model saturates (vt::kMemParallelism ways), with batch >= 8
// clearly above batch 1. A one-key read skips the dedup probe and the
// prefetch, so batch 1 costs what a dedicated single-key read would.

#include "bench_common.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("MultiGet batch sweep (ETC 5:95, Mops/s)");

constexpr uint64_t kMgKeys = 1 << 18;  // preloaded key range

core::ServerConfig Config(workload::KeyDist dist, int read_batch) {
  core::ServerConfig cfg;
  cfg.num_conns = kConns;
  cfg.client_window = 8;
  cfg.ops_per_conn = OpsPerPoint() / kConns;
  cfg.read_batch = read_batch;
  cfg.workload.key_space = kMgKeys;
  cfg.workload.etc_values = true;
  cfg.workload.dist = dist;
  cfg.workload.get_ratio = 0.95;
  return cfg;
}

void RunSweep(benchmark::State& state, Rig& rig, const char* name) {
  const workload::KeyDist dist = state.range(0) == 0
                                     ? workload::KeyDist::kUniform
                                     : workload::KeyDist::kZipfian;
  const int read_batch = static_cast<int>(state.range(1));
  auto cfg = Config(dist, read_batch);
  Preload(rig.adapter.get(), cfg.workload, BenchKeys(kMgKeys));
  const char* dist_name =
      dist == workload::KeyDist::kUniform ? "uniform" : "zipfian";
  RunPoint(state, rig.adapter.get(), cfg, &g_table, name,
           std::string(dist_name) + " b=" + std::to_string(read_batch));
}

void BM_FlatStoreH(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = kCores;
  fo.group_size = kCores;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/3072);
  RunSweep(state, rig, "FlatStore-H");
}
void BM_FlatStoreM(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = kCores;
  fo.group_size = kCores;
  fo.index = core::IndexKind::kMasstree;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/3072);
  RunSweep(state, rig, "FlatStore-M");
}

// range(0): 0 = uniform, 1 = zipfian; range(1): read batch.
#define MG_SWEEP(fn) \
  BENCHMARK(fn)->ArgsProduct({{0, 1}, {1, 2, 4, 8, 16, 32}}) \
      ->Iterations(1)->Unit(benchmark::kMillisecond)
MG_SWEEP(BM_FlatStoreH);
MG_SWEEP(BM_FlatStoreM);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.Print();
  flatstore::bench::g_table.WriteJson("multiget");
  return 0;
}
