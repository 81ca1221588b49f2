// §3.5 / DESIGN.md §11 — recovery performance and the tier's bounded-
// recovery claim: recovery time tracks the LIVE-KEY COUNT, not the log
// size. The paper reports replaying 1 billion KV items in ~40 s
// (≈25 M items/s) — linear in the log. This bench holds the live key
// set fixed (FLATSTORE_BENCH_LOGSIZE keys, default 256 K) and sweeps
// the log HISTORY: 1x / 2x / 4x full-keyspace overwrite rounds.
//
//   no_tier — no background maintenance: the log accumulates every
//             round's entries and crash recovery replays all of them,
//             so time grows linearly with history.
//   tier    — each round runs the background seal + clean + tier
//             passes: dead chunks are reclaimed, live chunks convert
//             into tier nodes (existing keys take the in-place packed
//             update, so the node count stays at the live-key count).
//             Recovery loads the tier (O(live keys)) and replays only
//             the fixed-size un-tiered suffix — flat across the sweep.
//
// Per-phase timings come from FlatStore::recovery_stats(): tier load
// (node walk + index duel-inserts), log-suffix replay, and the usage /
// index-rebuild pass. CI's bench-smoke asserts recovery_ms(4x) <=
// 1.3 * recovery_ms(1x) for the tier arm.

#include <benchmark/benchmark.h>

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
// clean + tier passes have real chunks to work on even at smoke scale.
constexpr size_t kValueLen = 240;

// Fixed un-tiered suffix: what recovery replays in the tier arm no
// matter how much history the (tiered) log prefix accumulated.
constexpr uint64_t kSuffixItems = 1 << 12;

core::FlatStoreOptions Options(bool tier) {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 8;
  fo.tier_enabled = tier;
  return fo;
}

// Writes `rounds` full overwrite passes over a fixed LiveKeys() key
// space. The tier arm interleaves the background maintenance the engine
// would run anyway (seal + cleaning passes that relocate or tier) after
// every round, so the un-tiered remainder stays a bounded suffix; the
// no_tier arm does no maintenance and its log grows with history.
std::unique_ptr<pm::PmPool> LoadedPool(uint64_t rounds, bool tier) {
  pm::PmPool::Options o;
  o.size = 1024ull << 20;
  auto pool = std::make_unique<pm::PmPool>(o);
  auto store = core::FlatStore::Create(pool.get(), Options(tier));
  std::string value(kValueLen, 'x');
  const uint64_t live = LiveKeys();
  for (uint64_t r = 0; r < rounds; r++) {
    for (uint64_t k = 0; k < live; k++) store->Put(k, value);
    if (tier) {
      store->SealActiveLogChunks();
      while (store->RunCleanersOnce() > 0) {
      }
    }
  }
  if (tier) {
    // The fixed un-tiered suffix recovery will replay.
    for (uint64_t k = 0; k < kSuffixItems && k < live; k++) {
      store->Put(k, value);
    }
  }
  return pool;  // no Shutdown: Open takes the crash-recovery path
}

struct Arm {
  const char* name;
  bool tier;
};

void RunArm(benchmark::State& state, const Arm& arm, bench::BenchJson* json) {
  const auto mult = static_cast<uint64_t>(state.range(0));
  const uint64_t live = LiveKeys();
  const uint64_t history = live * mult;
  auto pool = LoadedPool(mult, arm.tier);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto store = core::FlatStore::Open(pool.get(), Options(arm.tier));
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const auto& rs = store->recovery_stats();
    state.counters["recovery_ms"] = ms;
    state.counters["chunks_replayed"] =
        static_cast<double>(rs.chunks_replayed);
    state.counters["chunks_skipped_tiered"] =
        static_cast<double>(rs.chunks_skipped_tiered);
    if (store->Size() != live) {
      std::fprintf(stderr, "recovery lost items (%llu != %llu)\n",
                   static_cast<unsigned long long>(store->Size()),
                   static_cast<unsigned long long>(live));
      std::abort();
    }
    json->AddRow()
        .Str("arm", arm.name)
        .Int("logsize_mult", mult)
        .Int("live_keys", live)
        .Int("history_items", history)
        .Num("recovery_ms", ms)
        .Num("tier_load_ms", static_cast<double>(rs.tier_load_ns) / 1e6)
        .Num("replay_ms", static_cast<double>(rs.replay_ns) / 1e6)
        .Num("usage_ms", static_cast<double>(rs.usage_ns) / 1e6)
        .Int("tier_nodes_loaded", rs.tier_nodes_loaded)
        .Int("chunks_replayed", rs.chunks_replayed)
        .Int("chunks_skipped_tiered", rs.chunks_skipped_tiered)
        .Num("history_items_per_sec",
             static_cast<double>(history) / (ms / 1e3));
    std::printf(
        "%-8s %llux: %8.1f ms  (tier %6.1f + replay %6.1f + usage %6.1f)"
        "  replayed %llu chunks, tiered-skip %llu\n",
        arm.name, static_cast<unsigned long long>(mult), ms,
        static_cast<double>(rs.tier_load_ns) / 1e6,
        static_cast<double>(rs.replay_ns) / 1e6,
        static_cast<double>(rs.usage_ns) / 1e6,
        static_cast<unsigned long long>(rs.chunks_replayed),
        static_cast<unsigned long long>(rs.chunks_skipped_tiered));
  }
}

bench::BenchJson* g_json = nullptr;

void BM_RecoveryNoTier(benchmark::State& state) {
  RunArm(state, {"no_tier", false}, g_json);
}
void BM_RecoveryTier(benchmark::State& state) {
  RunArm(state, {"tier", true}, g_json);
}

BENCHMARK(BM_RecoveryNoTier)
    ->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecoveryTier)
    ->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

// Clean-shutdown checkpoint load, for the §3.5 comparison row.
void BM_CleanShutdownRecovery(benchmark::State& state) {
  const uint64_t items = LiveKeys();
  auto pool = LoadedPool(1, false);
  {
    auto store = core::FlatStore::Open(pool.get(), Options(false));
    store->Shutdown();
  }
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto store = core::FlatStore::Open(pool.get(), Options(false));
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    state.counters["recovery_ms"] = ms;
    g_json->AddRow()
        .Str("arm", "clean_checkpoint")
        .Int("logsize_mult", 1)
        .Int("live_keys", items)
        .Int("history_items", items)
        .Num("recovery_ms", ms)
        .Num("history_items_per_sec",
             static_cast<double>(items) / (ms / 1e3));
    store->Shutdown();  // re-arm for potential repeats
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
      "\n== Recovery sweep (%llu live keys; history = live x mult; tier "
      "arm replays only the %llu-item suffix) ==\n",
      static_cast<unsigned long long>(flatstore::LiveKeys()),
      static_cast<unsigned long long>(flatstore::kSuffixItems));
  json.Write();
  return 0;
}
