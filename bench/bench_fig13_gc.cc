// Figure 13 — garbage-collection efficiency, reworked as a sweep:
// update ratio {25, 50, 75 %} x cleaning threshold {0.6, 0.8, 0.9} under
// the ETC value mix in a deliberately small pool, cleaned by the
// cost-benefit cleaner.
//
// Each point runs in time segments: serve, then one synchronous cleaner
// pass whose PM traffic lands at the head of the *next* segment's device
// window — the cleaner/serving interference of the paper's Fig. 13. The
// row reports steady-state throughput (mean of every segment after the
// first cleaner pass, so the mean spans many passes' interference rather
// than whichever few segments a pass happened to overlap) and the
// cleaner's write-amplification ratio (bytes relocated / bytes
// reclaimed, from PmStats).
//
// Expected shape: at each update ratio WA grows with the threshold
// (fuller victims are eligible, so each reclaimed byte costs more
// survivor copies). WA falls as the update ratio grows: more updates
// kill more entries before the paced cleaner reaches a chunk, so its
// victims are emptier.

#include "bench_common.h"
#include "pm/pm_stats.h"

namespace flatstore {
namespace bench {
namespace {

struct GcPoint {
  double update_ratio;
  double live_ratio;
  double steady_mops;      // mean of segments 1 .. kSegments - 1
  double wa_ratio;         // relocated / reclaimed
  uint64_t chunks_cleaned;
  uint64_t bytes_relocated;
  uint64_t bytes_reclaimed;
};
std::vector<GcPoint> g_points;

constexpr int kSegments = 12;

GcPoint RunGcPoint(double update_ratio, double live_ratio) {
  core::FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 6;
  fo.gc_live_ratio = live_ratio;
  // Pace the cleaner: one bounded pass per segment, below the churn
  // rate, so a victim backlog persists and selection ORDER matters (an
  // unpaced cleaner drains every eligible chunk each pass, making all
  // policies converge on the same cumulative totals). One victim in
  // flight per core keeps every pick a fresh, cost-benefit choice over
  // the current backlog rather than a slot pinned at segment 1.
  fo.gc_quantum_bytes = 8ull << 20;
  fo.gc_max_victims = 1;
  Rig rig = MakeFlatRig(fo, /*pool_mb=*/256);

  core::ServerConfig cfg;
  cfg.num_conns = 8;
  cfg.client_window = 8;
  cfg.ops_per_conn = std::max<uint64_t>(200, OpsPerPoint() / 4);
  cfg.workload.key_space = BenchKeys(1 << 15);
  cfg.workload.etc_values = true;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.get_ratio = 1.0 - update_ratio;
  Preload(rig.adapter.get(), cfg.workload, cfg.workload.key_space);

  double steady_sum = 0;
  for (int seg = 0; seg < kSegments; seg++) {
    // Shift the working set every quarter of the run: the scrambled-
    // zipfian hot set is a function of the key-space modulus, so
    // shrinking it by one remaps every hot rank to a different key.
    // Each phase strands its chunks at whatever liveness they reached —
    // stable cold garbage at a spread of fullness levels. That is what
    // separates the policies: a FIFO cleaner plows through the stranded
    // cohort in seal order, paying up to the threshold's worth of
    // survivor copies per chunk, while cost-benefit spends the same
    // scarce budget on the emptiest stable chunks first.
    cfg.workload.key_space =
        BenchKeys(1 << 15) - static_cast<uint64_t>(seg / (kSegments / 4));
    cfg.seed = static_cast<uint64_t>(seg) + 1;
    core::ServerResult r = core::RunServer(rig.adapter.get(), cfg);
    if (seg > 0) steady_sum += r.mops;
    // Core clocks restart at zero each segment; clear the device window
    // *before* the cleaner pass so its PM traffic overlaps the next
    // segment's serving traffic (the interference under measurement).
    rig.device->Reset();
    vt::Clock cleaner_clock;
    vt::ScopedClock bind(&cleaner_clock);
    rig.flat->RunCleanersOnce();
  }

  const auto s = rig.pool->stats().Get();
  GcPoint p;
  p.update_ratio = update_ratio;
  p.live_ratio = live_ratio;
  p.steady_mops = steady_sum / (kSegments - 1);
  p.wa_ratio = pm::GcWriteAmp(s);
  p.chunks_cleaned = rig.flat->ChunksCleaned();
  p.bytes_relocated = s.gc_bytes_relocated;
  p.bytes_reclaimed = s.gc_bytes_reclaimed;
  return p;
}

void BM_GcSweep(benchmark::State& state) {
  for (auto _ : state) {
    g_points.clear();
    for (double update : {0.25, 0.5, 0.75}) {
      for (double lr : {0.6, 0.8, 0.9}) {
        g_points.push_back(RunGcPoint(update, lr));
      }
    }
  }
  // Headline counters: the 50 % update / 0.9 threshold point.
  for (const GcPoint& p : g_points) {
    if (p.update_ratio == 0.5 && p.live_ratio == 0.9) {
      state.counters["cb_mops"] = p.steady_mops;
      state.counters["cb_wa"] = p.wa_ratio;
    }
  }
}
BENCHMARK(BM_GcSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\n== Figure 13: GC sweep (ETC values, zipfian, 256 MB pool) ==\n");
  std::printf("%8s %6s %10s %8s %10s %14s\n", "update", "thresh",
              "Mops/s", "WA", "cleaned", "relocated B");
  for (const auto& p : flatstore::bench::g_points) {
    std::printf("%8.2f %6.2f %10.2f %8.3f %10lu %14lu\n", p.update_ratio,
                p.live_ratio, p.steady_mops, p.wa_ratio,
                static_cast<unsigned long>(p.chunks_cleaned),
                static_cast<unsigned long>(p.bytes_relocated));
  }
  flatstore::bench::BenchJson j("fig13_gc");
  for (const auto& p : flatstore::bench::g_points) {
    j.AddRow()
        .Str("policy", "cost_benefit")
        .Num("update_ratio", p.update_ratio)
        .Num("live_ratio", p.live_ratio)
        .Num("mops", p.steady_mops)
        .Num("wa_ratio", p.wa_ratio)
        .Int("chunks_cleaned", p.chunks_cleaned)
        .Int("bytes_relocated", p.bytes_relocated)
        .Int("bytes_reclaimed", p.bytes_reclaimed);
  }
  j.Write();
  return 0;
}
