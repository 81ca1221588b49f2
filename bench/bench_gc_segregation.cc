// Hot/cold survivor segregation A/B: the same zipfian-churn workload run
// with the cost-benefit cleaner twice, segregation on vs off.
//
// Under a skewed update stream, a victim's survivors are exactly its
// cold tail — the keys the zipfian head never rewrites. With segregation
// off, those survivors land in the same cleaner chunk as hot survivors;
// once the hot ones die the mixed chunk becomes a victim again and the
// cold entries are relocated a second (third, ...) time. With
// segregation on, cold survivors are parked together in near-100 %-live
// chunks that victim selection never picks, so each cold byte is copied
// roughly once. The A/B shows up as strictly lower cumulative relocation
// traffic (and so a lower write-amplification ratio) for the segregated
// run over a long enough churn horizon.

#include "bench_common.h"
#include "pm/pm_stats.h"

namespace flatstore {
namespace bench {
namespace {

struct SegPoint {
  bool segregate;
  double steady_mops;
  double wa_ratio;
  uint64_t chunks_cleaned;
  uint64_t bytes_relocated;
  uint64_t bytes_reclaimed;
  uint64_t survivor_bytes_hot;
  uint64_t survivor_bytes_cold;
};
std::vector<SegPoint> g_points;

constexpr int kSegments = 12;  // long horizon: re-cleaning must show up
constexpr int kSteadyTail = 3;

SegPoint RunSegPoint(bool segregate) {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 6;
  fo.gc_segregate = segregate;
  fo.gc_live_ratio = 0.9;  // aggressive: survivors dominate the traffic
  fo.gc_cold_age = 256;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/256);

  core::ServerConfig cfg;
  cfg.num_conns = 12;
  cfg.client_window = 8;
  cfg.ops_per_conn = std::max<uint64_t>(200, OpsPerPoint() / 16);
  cfg.workload.key_space = BenchKeys(1 << 16);
  cfg.workload.etc_values = true;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.get_ratio = 0.5;
  Preload(rig.adapter.get(), cfg.workload, cfg.workload.key_space);

  double steady_sum = 0;
  for (int seg = 0; seg < kSegments; seg++) {
    cfg.seed = static_cast<uint64_t>(seg) + 1;
    core::ServerResult r = core::RunServer(rig.adapter.get(), cfg);
    if (seg >= kSegments - kSteadyTail) steady_sum += r.mops;
    rig.device->Reset();  // cleaner traffic lands in the next window
    vt::Clock cleaner_clock;
    vt::ScopedClock bind(&cleaner_clock);
    rig.flat->RunCleanersOnce();
  }

  const auto s = rig.pool->stats().Get();
  SegPoint p;
  p.segregate = segregate;
  p.steady_mops = steady_sum / kSteadyTail;
  p.wa_ratio = pm::GcWriteAmp(s);
  p.chunks_cleaned = rig.flat->ChunksCleaned();
  p.bytes_relocated = s.gc_bytes_relocated;
  p.bytes_reclaimed = s.gc_bytes_reclaimed;
  p.survivor_bytes_hot = s.gc_survivor_bytes_hot;
  p.survivor_bytes_cold = s.gc_survivor_bytes_cold;
  return p;
}

void BM_GcSegregation(benchmark::State& state) {
  for (auto _ : state) {
    g_points.clear();
    g_points.push_back(RunSegPoint(/*segregate=*/true));
    g_points.push_back(RunSegPoint(/*segregate=*/false));
  }
  state.counters["seg_wa"] = g_points[0].wa_ratio;
  state.counters["noseg_wa"] = g_points[1].wa_ratio;
  state.counters["seg_mops"] = g_points[0].steady_mops;
  state.counters["noseg_mops"] = g_points[1].steady_mops;
}
BENCHMARK(BM_GcSegregation)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\n== GC segregation A/B (zipfian 50%% update, 256 MB pool) ==\n");
  std::printf("%-12s %10s %8s %10s %14s %14s\n", "segregation", "Mops/s",
              "WA", "cleaned", "surv hot B", "surv cold B");
  for (const auto& p : flatstore::bench::g_points) {
    std::printf("%-12s %10.2f %8.3f %10lu %14lu %14lu\n",
                p.segregate ? "on" : "off", p.steady_mops, p.wa_ratio,
                static_cast<unsigned long>(p.chunks_cleaned),
                static_cast<unsigned long>(p.survivor_bytes_hot),
                static_cast<unsigned long>(p.survivor_bytes_cold));
  }
  flatstore::bench::BenchJson j("gc_segregation");
  for (const auto& p : flatstore::bench::g_points) {
    j.AddRow()
        .Str("segregation", p.segregate ? "on" : "off")
        .Num("mops", p.steady_mops)
        .Num("wa_ratio", p.wa_ratio)
        .Int("chunks_cleaned", p.chunks_cleaned)
        .Int("bytes_relocated", p.bytes_relocated)
        .Int("bytes_reclaimed", p.bytes_reclaimed)
        .Int("survivor_bytes_hot", p.survivor_bytes_hot)
        .Int("survivor_bytes_cold", p.survivor_bytes_cold);
  }
  j.Write();
  return 0;
}
