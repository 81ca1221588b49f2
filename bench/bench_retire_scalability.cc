// Read-path retirement-synchronization scalability (host wall-clock).
//
// Measures the real (not simulated) cost of the synchronization that
// guards log-entry dereferences against cleaner frees — each dereference
// pins the current epoch with a store into a core-private cacheline
// (common/epoch.h) — across serving thread counts, for a 90/10 get/put
// mix with the background cleaners running.
//
// Unlike the bench_fig* binaries this reports host wall-clock ops/s:
// cacheline traffic between cores is a host-hardware effect the
// virtual-time model deliberately excludes. The A/B against the retired
// group-wide shared lock is frozen in EXPERIMENTS.md.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/flatstore.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace {

constexpr uint64_t kKeysPerCore = 4096;
constexpr uint32_t kValueLen = 64;
constexpr uint64_t kOpsPerThread = 300000;

struct Result {
  double mops = 0;
  double wall_ms = 0;
};

Result Run(int threads) {
  pm::PmPool::Options po;
  po.size = 1ull << 30;
  pm::PmPool pool(po);
  core::FlatStoreOptions fo;
  fo.num_cores = threads;
  fo.group_size = threads;  // one socket-sized group, like the paper
  fo.hash_initial_depth = 6;
  auto store = core::FlatStore::Create(&pool, fo);

  // Per-core key sets (synchronous preload).
  std::vector<std::vector<uint64_t>> keys(static_cast<size_t>(threads));
  uint64_t k = 0;
  uint8_t value[kValueLen];
  std::memset(value, 0x42, sizeof(value));
  while (true) {
    const auto core = static_cast<size_t>(store->CoreForKey(k));
    if (keys[core].size() < kKeysPerCore) {
      keys[core].push_back(k);
      store->Put(k, std::string_view(reinterpret_cast<char*>(value),
                                     kValueLen));
    }
    bool full = true;
    for (const auto& v : keys) full = full && v.size() >= kKeysPerCore;
    if (full) break;
    k++;
  }

  store->StartCleaners();
  std::atomic<uint64_t> total_ops{0};

  auto serve = [&](int core) {
    const auto& mine = keys[static_cast<size_t>(core)];
    uint64_t rng = 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(core) + 1);
    core::ReadResult read;
    read.value.reserve(512);
    // One op as a batch of one: a Put, or a Get (a read of a key with a
    // write in flight comes back deferred and is not retried). False on
    // backpressure, after a pump/drain.
    auto serve_one = [&](uint64_t key, bool is_put) {
      if (!is_put) {
        store->MultiGetOnCore(core, &key, 1, &read);
        return true;
      }
      const core::WriteOp w{key, value, kValueLen};
      core::FlatStore::OpHandle h;
      core::OpStatus st;
      if (store->BeginWriteBatch(core, &w, 1, &h, &st) == 1) return true;
      store->Pump(core);
      store->Drain(core, SIZE_MAX, nullptr);
      return false;
    };
    uint64_t ops = 0;
    for (uint64_t i = 0; i < kOpsPerThread; i++) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t key = mine[(rng >> 33) % mine.size()];
      const bool is_put = (rng >> 60) < 2;  // ~10 %
      if (!serve_one(key, is_put)) continue;
      ops++;
      if ((i & 31) == 0) {
        store->Pump(core);
        store->Drain(core, SIZE_MAX, nullptr);
      }
    }
    while (store->Inflight(core) > 0) {
      store->Pump(core);
      store->Drain(core, SIZE_MAX, nullptr);
    }
    // relaxed: statistics counter, read only after the threads join
    total_ops.fetch_add(ops, std::memory_order_relaxed);
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> servers;
  for (int c = 0; c < threads; c++) servers.emplace_back(serve, c);
  for (auto& t : servers) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  store->StopCleaners();

  Result r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.mops = static_cast<double>(total_ops.load()) / 1e6 /
           (r.wall_ms / 1e3);
  std::printf("    [epoch stats] advances=%llu deferred_frees=%llu "
              "deferred_hwm=%llu\n",
              static_cast<unsigned long long>(store->epochs()->advances()),
              static_cast<unsigned long long>(
                  store->epochs()->deferred_frees()),
              static_cast<unsigned long long>(
                  store->epochs()->deferred_hwm()));
  return r;
}

}  // namespace
}  // namespace flatstore

int main(int argc, char** argv) {
  std::printf("retire-path scalability, 90/10 get/put, %u B values, "
              "host wall-clock\n",
              flatstore::kValueLen);
  std::printf("%-8s %12s %12s\n", "threads", "wall_ms", "Mops/s");
  // Thread counts above the machine's core count are skipped (the numbers
  // would measure the scheduler, not the synchronization); pass a max
  // thread count as argv[1] to force the sweep anyway.
  const unsigned hw = argc > 1
                          ? static_cast<unsigned>(std::atoi(argv[1]))
                          : std::thread::hardware_concurrency();
  // Machine-readable mirror of the table (no bench_common.h here — this
  // binary doesn't link google-benchmark).
  std::FILE* json = std::fopen("BENCH_retire_scalability.json", "w");
  if (json != nullptr) std::fprintf(json, "{\"bench\": \"retire_scalability\", \"rows\": [");
  bool first = true;
  for (int t : {1, 2, 4, 8}) {
    if (hw != 0 && static_cast<unsigned>(t) > hw) break;
    const auto r = flatstore::Run(t);
    std::printf("%-8d %12.1f %12.2f\n", t, r.wall_ms, r.mops);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s{\"threads\": %d, \"wall_ms\": %.3f, "
                   "\"mops\": %.6g}",
                   first ? "" : ", ", t, r.wall_ms, r.mops);
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "]}\n");
    std::fclose(json);
    std::printf("wrote BENCH_retire_scalability.json\n");
  }
  return 0;
}
