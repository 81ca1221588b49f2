// Shared plumbing for the per-figure benchmark binaries.
//
// Every bench point builds a fresh pool + engine, runs the deterministic
// client/server co-simulation (core/server.h), and reports *simulated*
// throughput/latency. Each point is registered as a google-benchmark with
// a single iteration (the simulation is deterministic; re-running it
// yields the identical result) and exposes its metrics as counters. After
// the benchmark run, each binary prints a compact paper-style table that
// EXPERIMENTS.md quotes.

#ifndef FLATSTORE_BENCH_BENCH_COMMON_H_
#define FLATSTORE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/server.h"
#include "vt/costs.h"

namespace flatstore {
namespace bench {

// A fully assembled engine under test.
struct Rig {
  std::unique_ptr<pm::PmDevice> device;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<core::FlatStore> flat;
  std::unique_ptr<core::BaselineStore> baseline;
  std::unique_ptr<core::EngineAdapter> adapter;
};

// Builds a FlatStore rig (timed PM device attached). `num_sockets` > 1
// models a multi-socket server: the device gets one DIMM set per socket
// and the pool is cut into per-socket spans (NUMA placement follows
// options.socket_local_placement).
inline Rig MakeFlatRig(const core::FlatStoreOptions& options,
                       uint64_t pool_mb = 2048, int num_sockets = 1) {
  Rig rig;
  rig.device = std::make_unique<pm::PmDevice>(num_sockets);
  pm::PmPool::Options po;
  po.size = pool_mb << 20;
  po.device = rig.device.get();
  po.num_sockets = num_sockets;
  rig.pool = std::make_unique<pm::PmPool>(po);
  rig.flat = core::FlatStore::Create(rig.pool.get(), options);
  rig.adapter = std::make_unique<core::FlatStoreAdapter>(rig.flat.get());
  return rig;
}

// Builds a baseline rig.
inline Rig MakeBaselineRig(const core::BaselineStore::Options& options,
                           uint64_t pool_mb = 2048) {
  Rig rig;
  rig.device = std::make_unique<pm::PmDevice>();
  pm::PmPool::Options po;
  po.size = pool_mb << 20;
  po.device = rig.device.get();
  rig.pool = std::make_unique<pm::PmPool>(po);
  rig.baseline = core::BaselineStore::Create(rig.pool.get(), options);
  rig.adapter = std::make_unique<core::BaselineAdapter>(rig.baseline.get());
  return rig;
}

// Default evaluation scale (paper: 36 cores, 12x24 client threads,
// 192 M keys — scaled to CI size; see DESIGN.md §1).
inline constexpr int kCores = 16;
inline constexpr int kConns = 96;
inline constexpr uint64_t kKeySpace = 1ull << 20;
inline constexpr uint64_t kOpsPerPoint = 48000;

// Scale knobs for CI smoke runs: FLATSTORE_BENCH_OPS overrides the ops
// per point, FLATSTORE_BENCH_KEYS caps preloaded key ranges. Unset (the
// normal case) leaves the defaults above untouched.
inline uint64_t EnvScale(const char* name, uint64_t def) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return def;
  const uint64_t v = std::strtoull(e, nullptr, 10);
  return v > 0 ? v : def;
}
inline uint64_t OpsPerPoint() {
  static const uint64_t v = EnvScale("FLATSTORE_BENCH_OPS", kOpsPerPoint);
  return v;
}
inline uint64_t BenchKeys(uint64_t def) {
  static const uint64_t cap = EnvScale("FLATSTORE_BENCH_KEYS", 0);
  return cap > 0 && cap < def ? cap : def;
}

// One measured row.
struct Row {
  std::string system;
  std::string config;
  double mops = 0;
  uint64_t ops = 0;      // completed operations behind `mops`
  uint64_t sim_ns = 0;   // max simulated core time
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  double idle_share = 0;  // IdleShare() of the run; 0 for derived rows
};

// Machine-readable results: every bench binary drops BENCH_<name>.json
// into its working directory so CI can smoke-check results without
// scraping stdout tables. Schema:
//   {"bench": "<name>", "rows": [{"<metric>": <value>, ...}, ...]}
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    // Run metadata stamped into every file so a results directory is
    // self-describing: topology knobs and the vt cost constants the
    // numbers were produced under (comparing JSONs across commits is
    // meaningless if the cost model moved). Benches override the
    // topology fields (sockets) per run via Meta*.
    MetaInt("sockets", 1);
    MetaInt("server_cores", kCores);
    MetaInt("client_conns", kConns);
    MetaInt("ops_per_point", OpsPerPoint());
    MetaInt("vt_remote_load_penalty", vt::kRemoteSocketLoadPenalty);
    MetaInt("vt_remote_persist_penalty", vt::kRemoteSocketPersistPenalty);
    MetaInt("vt_pm_dimms_per_socket", vt::kPmDimms);
    MetaInt("vt_mem_parallelism", vt::kMemParallelism);
  }

  // Meta fields (top-level "meta" object; setting an existing key
  // replaces its value).
  BenchJson& MetaStr(const char* key, const std::string& v) {
    MetaField(key, "\"" + Escaped(v) + "\"");
    return *this;
  }
  BenchJson& MetaNum(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    MetaField(key, buf);
    return *this;
  }
  BenchJson& MetaInt(const char* key, uint64_t v) {
    MetaField(key, std::to_string(v));
    return *this;
  }

  // Starts a new row; chain Str/Num/Int to populate it.
  BenchJson& AddRow() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& Str(const char* key, const std::string& v) {
    Field(key, "\"" + Escaped(v) + "\"");
    return *this;
  }
  BenchJson& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    Field(key, buf);
    return *this;
  }
  BenchJson& Int(const char* key, uint64_t v) {
    Field(key, std::to_string(v));
    return *this;
  }

  // Writes BENCH_<name>.json (overwriting a previous run's file).
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"meta\": {", Escaped(name_).c_str());
    for (size_t i = 0; i < meta_.size(); i++) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ", meta_[i].c_str());
    }
    std::fprintf(f, "}, \"rows\": [");
    for (size_t i = 0; i < rows_.size(); i++) {
      std::fprintf(f, "%s{%s}", i == 0 ? "" : ", ", rows_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
  void Field(const char* key, const std::string& value) {
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += "\"";
    row += key;
    row += "\": ";
    row += value;
  }
  void MetaField(const char* key, const std::string& value) {
    const std::string prefix = "\"" + std::string(key) + "\": ";
    for (std::string& m : meta_) {
      if (m.compare(0, prefix.size(), prefix) == 0) {
        m = prefix + value;
        return;
      }
    }
    meta_.push_back(prefix + value);
  }

  std::string name_;
  std::vector<std::string> meta_;  // pre-encoded "\"key\": value" pairs
  std::vector<std::string> rows_;
};

// Accumulates rows for the end-of-run table.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void Add(Row row) { rows_.push_back(std::move(row)); }

  // Meta fields forwarded into the JSON on top of BenchJson's defaults
  // (e.g. the bench's socket/shard topology).
  Table& MetaStr(const char* key, const std::string& v) {
    meta_.push_back([k = std::string(key), v](BenchJson& j) {
      j.MetaStr(k.c_str(), v);
    });
    return *this;
  }
  Table& MetaInt(const char* key, uint64_t v) {
    meta_.push_back([k = std::string(key), v](BenchJson& j) {
      j.MetaInt(k.c_str(), v);
    });
    return *this;
  }
  Table& MetaNum(const char* key, double v) {
    meta_.push_back([k = std::string(key), v](BenchJson& j) {
      j.MetaNum(k.c_str(), v);
    });
    return *this;
  }

  // Prints the paper-style table to stdout.
  void Print() const {
    std::printf("\n== %s ==\n", title_.c_str());
    std::printf("%-24s %-24s %10s %10s %10s\n", "system", "config",
                "Mops/s", "p50(us)", "p99(us)");
    for (const Row& r : rows_) {
      std::printf("%-24s %-24s %10.2f %10.2f %10.2f\n", r.system.c_str(),
                  r.config.c_str(), r.mops,
                  static_cast<double>(r.p50_ns) / 1000.0,
                  static_cast<double>(r.p99_ns) / 1000.0);
    }
    std::fflush(stdout);
  }

  // Dumps every row into BENCH_<bench_name>.json.
  void WriteJson(const std::string& bench_name) const {
    BenchJson j(bench_name);
    for (const auto& m : meta_) m(j);
    for (const Row& r : rows_) {
      j.AddRow()
          .Str("system", r.system)
          .Str("config", r.config)
          .Num("mops", r.mops)
          .Int("ops", r.ops)
          .Int("sim_ns", r.sim_ns)
          .Int("p50_ns", r.p50_ns)
          .Int("p99_ns", r.p99_ns)
          .Num("idle_share", r.idle_share);
    }
    j.Write();
  }

 private:
  std::string title_;
  std::vector<Row> rows_;
  std::vector<std::function<void(BenchJson&)>> meta_;
};

// ServerResult::idle_ns over the summed core time.
inline double IdleShare(const core::ServerResult& result) {
  uint64_t core_ns = 0;
  for (uint64_t ns : result.core_ns) core_ns += ns;
  return core_ns == 0 ? 0
                      : static_cast<double>(result.idle_ns) /
                            static_cast<double>(core_ns);
}

// Runs one server simulation and records it into `table` + benchmark
// counters.
inline void RunPoint(benchmark::State& state, core::EngineAdapter* adapter,
                     const core::ServerConfig& config, Table* table,
                     const std::string& system, const std::string& label) {
  core::ServerResult result;
  for (auto _ : state) {
    result = core::RunServer(adapter, config);
  }
  state.counters["sim_mops"] = result.mops;
  state.counters["p50_us"] =
      static_cast<double>(result.latency.Percentile(50)) / 1000.0;
  state.counters["p99_us"] =
      static_cast<double>(result.latency.Percentile(99)) / 1000.0;
  Row row;
  row.system = system;
  row.config = label;
  row.mops = result.mops;
  row.ops = result.ops;
  row.sim_ns = result.sim_ns;
  row.p50_ns = result.latency.Percentile(50);
  row.p99_ns = result.latency.Percentile(99);
  row.idle_share = IdleShare(result);
  table->Add(row);
}

// ---- open-loop (offered-load) sweeps ----

// Runs one open-loop point: Poisson arrivals offering `offered_mops` in
// aggregate across the configured connections. Achieved throughput tracks
// the offered load below saturation and tops out at service capacity
// above it — where latency, measured from each request's *scheduled*
// arrival, blows up instead.
inline core::ServerResult RunOpenLoopPoint(core::EngineAdapter* adapter,
                                           core::ServerConfig config,
                                           double offered_mops) {
  config.open_loop = true;
  config.offered_mops = offered_mops;
  return core::RunServer(adapter, config);
}

// Sweeps offered load over `points` (Mops/s), adding one row per point
// labelled "<label_prefix>offered=<x>", and returns the saturation
// throughput — the highest achieved Mops/s across the sweep.
inline double OpenLoopSweep(core::EngineAdapter* adapter,
                            const core::ServerConfig& config,
                            const std::vector<double>& points, Table* table,
                            const std::string& system,
                            const std::string& label_prefix = "") {
  double saturation = 0;
  for (double offered : points) {
    core::ServerResult r = RunOpenLoopPoint(adapter, config, offered);
    char label[64];
    std::snprintf(label, sizeof(label), "%soffered=%.3g",
                  label_prefix.c_str(), offered);
    Row row;
    row.system = system;
    row.config = label;
    row.mops = r.mops;
    row.ops = r.ops;
    row.sim_ns = r.sim_ns;
    row.p50_ns = r.latency.Percentile(50);
    row.p99_ns = r.latency.Percentile(99);
    row.idle_share = IdleShare(r);
    table->Add(row);
    saturation = std::max(saturation, r.mops);
  }
  return saturation;
}

}  // namespace bench
}  // namespace flatstore

#endif  // FLATSTORE_BENCH_BENCH_COMMON_H_
