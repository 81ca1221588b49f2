// Batched write pipeline — MultiPut batch-size sweep. ETC 50:50 mix
// (50 % Put / 50 % Get) under uniform and zipfian key draws for
// FlatStore-H and FlatStore-M, at two levels:
//
//  * core sweep (the headline rows): one serving core driven directly —
//    batch 1 is the synchronous Put, a one-op MultiPutOnCore completed
//    before the next op (one AppendBatch, i.e. one persist sweep + two
//    fences, per op); batch b > 1 admits b writes per MultiPutOnCore
//    call, which resolves versions behind prefetch-interleaved index
//    probes, l-persists all out-of-log values under one trailing fence,
//    and stages the batch as ONE fused HB group (one log reservation, one
//    persist sweep, one fence pair for the whole batch). Expected shape:
//    Mops >= 1.5x the single-op path by batch 16, and fences per op
//    strictly decreasing with the batch (~2/b plus the out-of-log
//    l-persists).
//  * server sweep (end-to-end context): the full client/server
//    co-simulation sweeping ServerConfig::write_batch. Here batch 1 is
//    the per-request schedule — each write staged as it is polled — and
//    already fence-amortized across cores by pipelined-HB leader
//    batching, so the win is admission-side only (prefetch overlap,
//    fused staging, doorbell-chained responses) and is smaller.
//
// Every row lands in BENCH_multiput.json with a "level" discriminator
// and a fences_per_op field (the standard Row schema has none), which
// CI's bench-smoke checks.

#include "bench_common.h"
#include "vt/clock.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("MultiPut batch sweep (ETC 50:50, Mops/s)");
BenchJson g_json("multiput");

constexpr uint64_t kMpKeys = 1 << 18;    // server sweep: preloaded range
constexpr uint64_t kCoreKeys = 1 << 16;  // core sweep: preloaded range

const char* DistName(workload::KeyDist dist) {
  return dist == workload::KeyDist::kUniform ? "uniform" : "zipfian";
}

// ---- core-level sweep ------------------------------------------------------

void RunCorePoint(benchmark::State& state, Rig& rig, const char* name) {
  const workload::KeyDist dist = state.range(0) == 0
                                     ? workload::KeyDist::kUniform
                                     : workload::KeyDist::kZipfian;
  const size_t batch = static_cast<size_t>(state.range(1));
  core::FlatStore* store = rig.flat.get();

  // The core runs on this host thread: bind a simulated clock so every
  // modelled cost (PM service, index misses, fences) advances it.
  vt::Clock clock;
  vt::ScopedClock bind(&clock);

  workload::Config wc;
  wc.key_space = BenchKeys(kCoreKeys);
  wc.etc_values = true;
  wc.dist = dist;
  wc.get_ratio = 0.5;

  // Preload every key so Gets hit and Puts overwrite (steady state).
  std::vector<char> buf(workload::kEtcLargeMax, 'x');
  for (uint64_t k = 0; k < wc.key_space; k++) {
    const uint32_t len = workload::Generator::EtcValueLen(k, wc.key_space);
    store->Put(k, std::string_view(buf.data(), len));
  }

  workload::Generator gen(wc, /*seed=*/1);
  const uint64_t ops_total = OpsPerPoint();
  core::WriteOp wops[core::kMaxWriteBatch];
  core::OpStatus statuses[core::kMaxWriteBatch];
  std::string got;
  got.reserve(2 * workload::kEtcLargeMax);

  uint64_t done = 0;
  const pm::PmStats::Snapshot before = rig.pool->stats().Get();
  const uint64_t t0 = vt::Now();
  for (auto _ : state) {
    size_t staged = 0;
    while (done < ops_total) {
      const workload::Op op = gen.Next();
      if (op.type == workload::OpType::kGet) {
        store->Get(op.key, &got);
        done++;
        continue;
      }
      if (batch <= 1) {  // one op per call, completed before the next
        store->Put(op.key, std::string_view(buf.data(), op.value_len));
        done++;
        continue;
      }
      wops[staged++] = {op.key, buf.data(), op.value_len, false};
      if (staged == batch) {
        done += store->MultiPutOnCore(0, wops, staged, statuses);
        staged = 0;
      }
    }
    if (staged > 0) done += store->MultiPutOnCore(0, wops, staged, statuses);
  }
  const uint64_t t1 = vt::Now();
  const pm::PmStats::Snapshot delta =
      pm::Delta(before, rig.pool->stats().Get());

  const double mops =
      1000.0 * static_cast<double>(done) / static_cast<double>(t1 - t0);
  const double fpo =
      static_cast<double>(delta.fences) / static_cast<double>(done);
  state.counters["sim_mops"] = mops;
  state.counters["fences_per_op"] = fpo;

  const std::string label = std::string("core ") + DistName(dist) + " b=" +
                            std::to_string(batch);
  Row row;
  row.system = name;
  row.config = label;
  row.mops = mops;
  row.ops = done;
  row.sim_ns = t1 - t0;
  g_table.Add(row);
  g_json.AddRow()
      .Str("system", name)
      .Str("config", label)
      .Str("level", "core")
      .Str("dist", DistName(dist))
      .Int("write_batch", static_cast<uint64_t>(batch))
      .Num("mops", mops)
      .Int("ops", done)
      .Int("fences", delta.fences)
      .Num("fences_per_op", fpo);
}

void BM_CoreH(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/512);
  RunCorePoint(state, rig, "FlatStore-H");
}
void BM_CoreM(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.index = core::IndexKind::kMasstree;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/512);
  RunCorePoint(state, rig, "FlatStore-M");
}

// ---- server-level sweep ----------------------------------------------------

core::ServerConfig Config(workload::KeyDist dist, int write_batch) {
  core::ServerConfig cfg;
  cfg.num_conns = kConns;
  cfg.client_window = 8;
  cfg.ops_per_conn = OpsPerPoint() / kConns;
  cfg.write_batch = write_batch;
  cfg.workload.key_space = kMpKeys;
  cfg.workload.etc_values = true;
  cfg.workload.dist = dist;
  cfg.workload.get_ratio = 0.5;
  return cfg;
}

void RunServerSweep(benchmark::State& state, Rig& rig, const char* name) {
  const workload::KeyDist dist = state.range(0) == 0
                                     ? workload::KeyDist::kUniform
                                     : workload::KeyDist::kZipfian;
  const int write_batch = static_cast<int>(state.range(1));
  auto cfg = Config(dist, write_batch);
  Preload(rig.adapter.get(), cfg.workload, BenchKeys(kMpKeys));
  const std::string label = std::string("server ") + DistName(dist) +
                            " b=" + std::to_string(write_batch);

  const pm::PmStats::Snapshot before = rig.pool->stats().Get();
  RunPoint(state, rig.adapter.get(), cfg, &g_table, name, label);
  const pm::PmStats::Snapshot delta =
      pm::Delta(before, rig.pool->stats().Get());

  // Every point completes its full per-connection quota.
  const uint64_t ops = cfg.ops_per_conn * static_cast<uint64_t>(kConns);
  g_json.AddRow()
      .Str("system", name)
      .Str("config", label)
      .Str("level", "server")
      .Str("dist", DistName(dist))
      .Int("write_batch", static_cast<uint64_t>(write_batch))
      .Num("mops", state.counters["sim_mops"])
      .Int("ops", ops)
      .Int("fences", delta.fences)
      .Num("fences_per_op", static_cast<double>(delta.fences) /
                                static_cast<double>(ops));
}

void BM_ServerH(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = kCores;
  fo.group_size = kCores;
  fo.hash_initial_depth = 6;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/3072);
  RunServerSweep(state, rig, "FlatStore-H");
}
void BM_ServerM(benchmark::State& state) {
  core::FlatStoreOptions fo;
  fo.num_cores = kCores;
  fo.group_size = kCores;
  fo.index = core::IndexKind::kMasstree;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/3072);
  RunServerSweep(state, rig, "FlatStore-M");
}

// range(0): 0 = uniform, 1 = zipfian; range(1): write batch.
#define MP_SWEEP(fn) \
  BENCHMARK(fn)->ArgsProduct({{0, 1}, {1, 2, 4, 8, 16, 32}}) \
      ->Iterations(1)->Unit(benchmark::kMillisecond)
MP_SWEEP(BM_CoreH);
MP_SWEEP(BM_CoreM);
MP_SWEEP(BM_ServerH);
MP_SWEEP(BM_ServerM);

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
