// §3.4 / §3.5 — recovery performance and the cleaner's bounded-recovery
// claim: with cleaning, recovery time tracks the LIVE-KEY COUNT, not the
// log's history. The paper reports replaying 1 billion KV items in ~40 s
// (≈25 M items/s) — linear in the log. This bench holds the live key
// set fixed (FLATSTORE_BENCH_LOGSIZE keys, default 128 K) and sweeps
// the log HISTORY: 1x / 2x / 4x full-keyspace overwrite rounds.
//
//   no_maintenance — no cleaning: the log accumulates every round's
//                    entries and crash recovery replays all of them, so
//                    time grows linearly with history.
//   clean_only     — each round is followed by the seal + cleaning
//                    passes the engine would run anyway: dead chunks are
//                    reclaimed, so the log holds about the live data
//                    plus a fixed suffix, and recovery replays that —
//                    flat across the sweep.
//
// Per-phase timings come from FlatStore::recovery_stats(): replay (the
// per-core log walk) and usage (the recovered index's walk for chunk
// liveness and block marking). Every row is the median of kOpens Opens
// of the same pool, each phase's median taken on its own: one host-timed
// Open on a shared machine swings by about 30 %. CI's bench-smoke
// asserts recovery_ms(4x) <= 1.3 * recovery_ms(1x) for the clean_only
// arm.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/flatstore.h"

namespace flatstore {
namespace {

uint64_t LiveKeys() {
  static const uint64_t v =
      bench::EnvScale("FLATSTORE_BENCH_LOGSIZE", 1ull << 17);
  return v;
}

// Just under the 256 B embed limit: each entry is ~264 B in the log, so
// one overwrite round spans multiple 4 MB chunks per core — the seal +
// cleaning passes have real chunks to work on even at smoke scale.
constexpr size_t kValueLen = 240;

// Fixed suffix written after the last cleaning pass: what recovery
// replays in the clean_only arm beyond the live data, however much
// history the log saw.
constexpr uint64_t kSuffixItems = 1 << 12;

// Opens timed per row; the row reports their median.
constexpr int kOpens = 5;

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

core::FlatStoreOptions Options() {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 8;
  return fo;
}

// Writes `rounds` full overwrite passes over a fixed LiveKeys() key
// space. The clean arm runs the maintenance the engine would run anyway
// (seal + cleaning passes) after every round, so the log stays at the
// live data plus a bounded suffix; the no_maintenance arm never cleans
// and its log grows with history.
std::unique_ptr<pm::PmPool> LoadedPool(uint64_t rounds, bool clean) {
  pm::PmPool::Options o;
  o.size = 1024ull << 20;
  auto pool = std::make_unique<pm::PmPool>(o);
  auto store = core::FlatStore::Create(pool.get(), Options());
  std::string value(kValueLen, 'x');
  const uint64_t live = LiveKeys();
  for (uint64_t r = 0; r < rounds; r++) {
    for (uint64_t k = 0; k < live; k++) store->Put(k, value);
    if (clean) {
      store->SealActiveLogChunks();
      while (store->RunCleanersOnce() > 0) {
      }
    }
  }
  if (clean) {
    // The fixed suffix recovery will replay beyond the live data.
    for (uint64_t k = 0; k < kSuffixItems && k < live; k++) {
      store->Put(k, value);
    }
  }
  return pool;  // no Shutdown: Open takes the crash-recovery path
}

struct Arm {
  const char* name;
  bool clean;
};

void RunArm(benchmark::State& state, const Arm& arm, bench::BenchJson* json) {
  const auto mult = static_cast<uint64_t>(state.range(0));
  const uint64_t live = LiveKeys();
  const uint64_t history = live * mult;
  auto pool = LoadedPool(mult, arm.clean);
  for (auto _ : state) {
    std::vector<double> open_ms, replay_ms, usage_ms;
    core::FlatStore::RecoveryStats rs;
    for (int i = 0; i < kOpens; i++) {
      // Every Open recovers the same image: no store is shut down, and
      // an uncut load leaves Open nothing to repair.
      const auto t0 = std::chrono::steady_clock::now();
      auto store = core::FlatStore::Open(pool.get(), Options());
      const auto t1 = std::chrono::steady_clock::now();
      open_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      rs = store->recovery_stats();
      replay_ms.push_back(Ms(rs.replay_ns));
      usage_ms.push_back(Ms(rs.usage_ns));
      if (store->Size() != live) {
        std::fprintf(stderr, "recovery lost items (%llu != %llu)\n",
                     static_cast<unsigned long long>(store->Size()),
                     static_cast<unsigned long long>(live));
        std::abort();
      }
    }
    const double ms = Median(open_ms);
    state.counters["recovery_ms"] = ms;
    state.counters["chunks_replayed"] =
        static_cast<double>(rs.chunks_replayed);
    json->AddRow()
        .Str("arm", arm.name)
        .Int("logsize_mult", mult)
        .Int("live_keys", live)
        .Int("history_items", history)
        .Num("recovery_ms", ms)
        .Num("replay_ms", Median(replay_ms))
        .Num("usage_ms", Median(usage_ms))
        .Int("chunks_replayed", rs.chunks_replayed)
        .Num("history_items_per_sec",
             static_cast<double>(history) / (ms / 1e3));
    std::printf(
        "%-14s %llux: %8.1f ms  (replay %6.1f + usage %6.1f)"
        "  replayed %llu chunks  [median of %d opens]\n",
        arm.name, static_cast<unsigned long long>(mult), ms,
        Median(replay_ms), Median(usage_ms),
        static_cast<unsigned long long>(rs.chunks_replayed), kOpens);
  }
}

bench::BenchJson* g_json = nullptr;

void BM_RecoveryNoMaintenance(benchmark::State& state) {
  RunArm(state, {"no_maintenance", false}, g_json);
}
void BM_RecoveryCleanOnly(benchmark::State& state) {
  RunArm(state, {"clean_only", true}, g_json);
}

BENCHMARK(BM_RecoveryNoMaintenance)
    ->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecoveryCleanOnly)
    ->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

// Clean-shutdown checkpoint load, for the §3.5 comparison row.
void BM_CleanShutdownRecovery(benchmark::State& state) {
  const uint64_t items = LiveKeys();
  auto pool = LoadedPool(1, false);
  {
    auto store = core::FlatStore::Open(pool.get(), Options());
    store->Shutdown();
  }
  for (auto _ : state) {
    std::vector<double> open_ms;
    for (int i = 0; i < kOpens; i++) {
      const auto t0 = std::chrono::steady_clock::now();
      auto store = core::FlatStore::Open(pool.get(), Options());
      const auto t1 = std::chrono::steady_clock::now();
      open_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      store->Shutdown();  // re-arm the checkpoint for the next Open
    }
    const double ms = Median(open_ms);
    state.counters["recovery_ms"] = ms;
    g_json->AddRow()
        .Str("arm", "clean_checkpoint")
        .Int("logsize_mult", 1)
        .Int("live_keys", items)
        .Int("history_items", items)
        .Num("recovery_ms", ms)
        .Num("history_items_per_sec",
             static_cast<double>(items) / (ms / 1e3));
  }
}
BENCHMARK(BM_CleanShutdownRecovery)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flatstore

int main(int argc, char** argv) {
  flatstore::bench::BenchJson json("recovery");
  json.MetaInt("live_keys", flatstore::LiveKeys());
  json.MetaInt("suffix_items", flatstore::kSuffixItems);
  flatstore::g_json = &json;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf(
      "\n== Recovery sweep (%llu live keys; history = live x mult; "
      "clean_only arm replays the live data plus a %llu-item suffix) ==\n",
      static_cast<unsigned long long>(flatstore::LiveKeys()),
      static_cast<unsigned long long>(flatstore::kSuffixItems));
  json.Write();
  return 0;
}
