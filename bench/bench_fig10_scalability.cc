// Figure 10 — multicore scalability: FlatStore-H and FlatStore-M Put
// throughput (64 B values) as server cores grow, uniform and zipfian.
//
// Expected shape: near-linear scaling into the 20-core range, then
// flattening as the PM device saturates; skew scales almost as well as
// uniform because horizontal batching spreads the persist work ("the
// busiest core" does not bottleneck FlatStore). The bench also sweeps the
// HB group size at a fixed core count (the paper's socket-sized groups
// are the sweet spot — DESIGN.md §6 ablation).

#include "bench_common.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("Figure 10: scalability (64B Put, Mops/s)");

core::ServerConfig Config(bool skew, int cores) {
  core::ServerConfig cfg;
  cfg.num_conns = std::max(8, cores * 3);
  cfg.client_window = 8;
  cfg.ops_per_conn = OpsPerPoint() / static_cast<uint64_t>(cfg.num_conns);
  cfg.workload.key_space = kKeySpace;
  cfg.workload.value_len = 64;
  cfg.workload.dist =
      skew ? workload::KeyDist::kZipfian : workload::KeyDist::kUniform;
  return cfg;
}

void BM_Scale(benchmark::State& state, core::IndexKind kind,
              const char* name) {
  const int cores = static_cast<int>(state.range(0));
  const bool skew = state.range(1) != 0;
  core::FlatStoreOptions fo;
  fo.num_cores = cores;
  // The paper distributes cores evenly across two sockets and groups per
  // socket: one group up to 16 cores, two equal groups beyond.
  fo.group_size = cores <= 16 ? cores : (cores + 1) / 2;
  fo.index = kind;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo);
  RunPoint(state, rig.adapter.get(), Config(skew, cores), &g_table, name,
           std::string(skew ? "skew" : "uniform") + "/" +
               std::to_string(cores) + "cores");
}
void BM_ScaleH(benchmark::State& state) {
  BM_Scale(state, core::IndexKind::kHash, "FlatStore-H");
}
void BM_ScaleM(benchmark::State& state) {
  BM_Scale(state, core::IndexKind::kMasstree, "FlatStore-M");
}
BENCHMARK(BM_ScaleH)
    ->ArgsProduct({{2, 4, 8, 16, 24, 32}, {0, 1}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleM)
    ->ArgsProduct({{2, 4, 8, 16, 24, 32}, {0, 1}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Two-socket mode: cores split across two sockets (per-socket DIMM sets,
// per-socket log/chunk placement). Placement on should stay near-linear
// versus the 1-socket arm at half the cores; placement off (interleaved
// chunks + CCEH partitions, no group alignment) goes sublinear — every
// second persist and index miss pays the cross-socket surcharge.
// FlatStore-M's one tree is socket-interleaved in both arms, so its gap
// is the log and value placement alone.
void BM_Scale2Sock(benchmark::State& state, core::IndexKind kind,
                   const char* name) {
  const int cores = static_cast<int>(state.range(0));
  const bool placed = state.range(1) != 0;
  core::FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = (cores + 1) / 2;  // one group per socket
  fo.index = kind;
  fo.hash_initial_depth = 6;
  fo.socket_local_placement = placed;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/2048, /*num_sockets=*/2);
  RunPoint(state, rig.adapter.get(), Config(/*skew=*/false, cores),
           &g_table, name,
           std::string(placed ? "2sock-placed" : "2sock-spread") + "/" +
               std::to_string(cores) + "cores");
}
void BM_Scale2SockH(benchmark::State& state) {
  BM_Scale2Sock(state, core::IndexKind::kHash, "FlatStore-H");
}
void BM_Scale2SockM(benchmark::State& state) {
  BM_Scale2Sock(state, core::IndexKind::kMasstree, "FlatStore-M");
}
BENCHMARK(BM_Scale2SockH)
    ->ArgsProduct({{8, 16, 32}, {0, 1}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scale2SockM)
    ->ArgsProduct({{8, 16, 32}, {0, 1}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Group-size ablation at 16 cores (DESIGN.md §6).
void BM_GroupSize(benchmark::State& state) {
  const int group = static_cast<int>(state.range(0));
  core::FlatStoreOptions fo;
  fo.num_cores = 16;
  fo.group_size = group;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo);
  RunPoint(state, rig.adapter.get(), Config(/*skew=*/false, 16), &g_table,
           "FlatStore-H", "group=" + std::to_string(group));
}
BENCHMARK(BM_GroupSize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.MetaInt("sockets", 2);
  flatstore::bench::g_table.Print();
  flatstore::bench::g_table.WriteJson("fig10_scalability");
  return 0;
}
