// The FlatStore benchmark: one command, three workloads.
//
//   perfbench --workload <etc_put|etc_get_ordered|churn_scan_recover>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out <results.json>] [--spans <spans.jsonl>]
//             [--commit <sha>] [--scale full|tiny] [--corrupt-key <k>]
//
// Each run builds a pool and preloads it (three times before serving and
// three times after recovery; set-up is reported as the median), serves
// the workload through the deterministic
// client/server co-simulation (core::RunServer, one host thread), checks
// every key's value, drops the store without Shutdown, crash-recovers it
// with FlatStore::Open (several times; the median is reported) and checks
// every key again. Every call the server loop makes into the engine goes
// through TracedAdapter.
//
// Simulated-time (vt) metrics depend only on the workload, the seed and
// --seconds, which fixes the number of operations served; host-time
// metrics measure the real code and vary from run to run. The last line
// of stdout is one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. The exit code is non-zero when
// any check failed. README.md lists the workloads and metrics.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/flatstore.h"
#include "core/server.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "pm/pm_stats.h"
#include "traced_adapter.h"
#include "vt/clock.h"
#include "vt/costs.h"
#include "workload/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = flatstore::core;
namespace pm = flatstore::pm;
namespace vt = flatstore::vt;
namespace wl = flatstore::workload;
using flatstore::Histogram;

struct Workload {
  const char* name;
  core::IndexKind index;
  int cores;
  int conns;
  bool tier;
  uint64_t keys;  // preloaded key space; every key stays live
  double get_ratio;
  double scan_ratio;
  uint64_t pool_mb;
  // Serving ops per --seconds unit, calibrated so that one unit takes
  // about a host second. A fixed op count, not a timer, ends the serving
  // phase, so every vt metric is a function of the seed alone.
  uint64_t ops_per_second;
  // Serving segments. Between two segments the store runs its
  // maintenance: seal the active chunks, one cleaning pass, one tiering
  // pass.
  int segments;
  // Keep the pool's flushed-only shadow image, so the crash before
  // recovery discards every byte that was never flushed. The shadow
  // doubles the pool's memory.
  bool crash_tracking;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"etc_put", core::IndexKind::kHash, 16, 96, false, 1ull << 18, 0.0, 0.0,
     1024, 200000, 1, false},
    {"etc_get_ordered", core::IndexKind::kMasstree, 16, 96, false, 1ull << 20,
     0.95, 0.0, 768, 200000, 1, false},
    {"churn_scan_recover", core::IndexKind::kHash, 4, 16, true, 1ull << 16,
     0.45, 0.05, 512, 150000, 8, true},
};

// Set-ups per run; setup_s is their median. Half run before serving and
// half after recovery: the machine's speed drifts over seconds, and
// samples from both ends of the run see more of it than a burst at the
// start does.
constexpr int kSetups = 6;
// Longest --seconds the benchmark has been run at: the churn pool keeps
// free chunks under the tier's leak (about half of them are left at 10 s)
// and the slowest workload ends well inside run.py's timeout.
constexpr uint64_t kMaxSeconds = 20;
constexpr int kOpens = 3;  // crash recoveries per run; the median is reported
constexpr int kWindows = 16;  // host-rate windows per serving phase
constexpr size_t kSpanCap = 1 << 16;
constexpr uint64_t kMinSamples = 10000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out;
  std::string spans;
  std::string commit = "unknown";
  bool tiny = false;
  int64_t corrupt_key = -1;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <file>] [--spans <file>] "
               "[--commit <sha>] [--scale full|tiny] [--corrupt-key <k>]\n",
               msg);
  std::exit(2);
}

uint64_t ParseU64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || end == nullptr || *end != '\0') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseU64(v, "--seed");
    } else if (flag == "--seconds") {
      const uint64_t s = ParseU64(v, "--seconds");
      if (s < 1 || s > kMaxSeconds) Usage("--seconds must be in [1, 20]");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const uint64_t t = ParseU64(v, "--trace");
      if (t > 1) Usage("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--scale") {
      if (std::strcmp(v, "tiny") != 0 && std::strcmp(v, "full") != 0) {
        Usage("--scale must be full or tiny");
      }
      a.tiny = std::strcmp(v, "tiny") == 0;
    } else if (flag == "--corrupt-key") {
      a.corrupt_key = static_cast<int64_t>(ParseU64(v, "--corrupt-key"));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    Usage("--workload, --seconds and --trace are required");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Histogram::Percentile returns the lower edge of the ~6 %-wide bucket
// that holds the sample, so runs on different seeds would mostly read
// the same edge. Interpolate by rank inside that bucket instead; the
// bucket's rank range is found by bisection over the public query.
uint64_t ValueAtRank(const Histogram& h, uint64_t rank) {
  return h.Percentile((static_cast<double>(rank) + 0.5) * 100.0 /
                      static_cast<double>(h.count()));
}

double InterpolatedPercentile(const Histogram& h, double p) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  const uint64_t rank = std::min(
      n - 1, static_cast<uint64_t>(p / 100.0 * static_cast<double>(n)));
  const uint64_t edge = ValueAtRank(h, rank);
  uint64_t lo = 0;
  uint64_t hi = rank;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    if (ValueAtRank(h, mid) < edge) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n - 1;
  while (lo < hi) {
    const uint64_t mid = (lo + hi + 1) / 2;
    if (ValueAtRank(h, mid) > edge) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const uint64_t last = lo;
  // Bucket width: 1 below kSubBuckets ns, else 1/kSubBuckets of the
  // power of two that holds the edge.
  static_assert((Histogram::kSubBuckets & (Histogram::kSubBuckets - 1)) == 0,
                "sub-buckets must be a power of two");
  constexpr int kSubShift = __builtin_ctz(Histogram::kSubBuckets);
  const double width =
      edge < Histogram::kSubBuckets
          ? 1.0
          : static_cast<double>(uint64_t{1}
                                << (63 - __builtin_clzll(edge) - kSubShift));
  return static_cast<double>(edge) +
         width * (static_cast<double>(rank - first) + 0.5) /
             static_cast<double>(last - first + 1);
}

struct Rig {
  std::unique_ptr<pm::PmDevice> device;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<core::FlatStore> store;
  std::unique_ptr<core::FlatStoreAdapter> adapter;

  // Users before what they use.
  void Reset() {
    adapter.reset();
    store.reset();
    pool.reset();
    device.reset();
  }
};

// RAII phase span.
class Phase {
 public:
  Phase(Tracer* t, const char* name) : t_(t), id_(t->Open(name)) {}
  ~Phase() { t_->Close(id_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tracer* t_;
  int64_t id_;
};

// One reported number. `clock` says where it comes from: "vt" and
// "count" repeat exactly for a seed, "host" is measured on the host.
struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;
};

// Checks every key in [0, keys) and returns how many are wrong.
uint64_t Sweep(core::FlatStore* store, uint64_t keys) {
  uint64_t bad = 0;
  std::string v;
  for (uint64_t k = 0; k < keys; k++) {
    if (!store->Get(k, &v) || !ValueOk(k, keys, v)) bad++;
  }
  return bad;
}

class Bench {
 public:
  Bench(const Workload& w, const Args& a)
      : w_(w), a_(a), tracer_(a.trace == 1, kSpanCap) {
    keys_ = a.tiny ? w.keys >> 6 : w.keys;
    const uint64_t ops = a.tiny ? 4000 * w.segments
                                : w.ops_per_second *
                                      static_cast<uint64_t>(a.seconds);
    ops_per_conn_ = std::max<uint64_t>(
        1, ops / static_cast<uint64_t>(w.segments * w.conns));
    opts_.num_cores = w.cores;
    opts_.group_size = w.cores;  // one HB group
    opts_.index = w.index;
    opts_.tier_enabled = w.tier;
    wl_.key_space = keys_;
    wl_.dist = wl::KeyDist::kZipfian;
    wl_.zipf_theta = 0.99;
    wl_.etc_values = true;
    wl_.get_ratio = w.get_ratio;
    wl_.scan_ratio = w.scan_ratio;
    wl_.scan_len_max = 100;
  }

  int Run() {
    Setup(kSetups / 2);
    Serve();
    Verify();
    Recover();
    Setup(kSetups - kSetups / 2);  // replaces the recovered store
    Report();
    return failed_ == 0 ? 0 : 1;
  }

 private:
  // Runs `n` more set-ups; the last one stays in the rig.
  void Setup(int n) {
    for (int i = 0; i < n; i++) {
      rig_.Reset();  // frees the previous set-up first
      Phase span(&tracer_, "setup");
      const uint64_t t0 = HostNs();
      {
        Phase p(&tracer_, "setup.pool");
        rig_.device = std::make_unique<pm::PmDevice>();
        pm::PmPool::Options po;
        po.size = w_.pool_mb << 20;
        po.device = rig_.device.get();
        po.crash_tracking = w_.crash_tracking;
        rig_.pool = std::make_unique<pm::PmPool>(po);
        rig_.store = core::FlatStore::Create(rig_.pool.get(), opts_);
        rig_.adapter =
            std::make_unique<core::FlatStoreAdapter>(rig_.store.get());
      }
      const uint64_t t1 = HostNs();
      {
        Phase p(&tracer_, "setup.preload");
        core::Preload(rig_.adapter.get(), wl_, keys_);
      }
      const uint64_t t2 = HostNs();
      pool_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
      preload_s_.push_back(static_cast<double>(t2 - t1) / 1e9);
      setup_s_.push_back(static_cast<double>(t2 - t0) / 1e9);
    }
  }

  void Serve() {
    const uint64_t total_ops =
        ops_per_conn_ * static_cast<uint64_t>(w_.conns * w_.segments);
    traced_ = std::make_unique<TracedAdapter>(
        rig_.adapter.get(), keys_,
        std::max<uint64_t>(1, total_ops / kWindows), &tracer_);
    core::FlatStore* store = rig_.store.get();
    flatstore::batch::HbEngine* hb = store->hb();
    const uint64_t batches0 = hb->batches();
    const uint64_t entries0 = hb->batched_entries();
    const uint64_t fused0 = hb->fused_entries();
    const pm::PmStats::Snapshot run0 = rig_.pool->stats().Get();
    core_ns_.assign(static_cast<size_t>(w_.cores), 0);
    free_min_ = store->allocator()->free_chunks();

    core::ServerConfig cfg;
    cfg.num_conns = w_.conns;
    cfg.client_window = 8;
    cfg.ops_per_conn = ops_per_conn_;
    cfg.workload = wl_;
    for (int seg = 0; seg < w_.segments; seg++) {
      cfg.seed = a_.seed * 1000003 + static_cast<uint64_t>(seg) + 1;
      // Core clocks restart at zero in every RunServer call; so does the
      // device model's notion of busy DIMMs.
      rig_.device->Reset();
      const pm::PmStats::Snapshot s0 = rig_.pool->stats().Get();
      core::ServerResult r;
      {
        Phase p(&tracer_, "serve");
        traced_->BeginRound();
        r = core::RunServer(traced_.get(), cfg);
        traced_->EndRound();
      }
      const pm::PmStats::Snapshot s1 = rig_.pool->stats().Get();
      serve_fences_ += s1.fences - s0.fences;
      serve_lines_ += s1.lines_flushed - s0.lines_flushed;
      serve_bytes_ += s1.bytes_persisted - s0.bytes_persisted;
      attempted_ += ops_per_conn_ * static_cast<uint64_t>(w_.conns);
      ops_ += r.ops;
      sim_ns_ += r.sim_ns;
      latency_.Merge(r.latency);
      for (size_t c = 0; c < r.core_ns.size(); c++) core_ns_[c] += r.core_ns[c];
      if (seg + 1 < w_.segments) Maintain();
      free_min_ = std::min(free_min_, store->allocator()->free_chunks());
    }
    failed_ += attempted_ - ops_;
    const pm::PmStats::Snapshot run1 = rig_.pool->stats().Get();
    run_delta_ = pm::Delta(run0, run1);
    epoch_advances_ = run1.epoch_advances - run0.epoch_advances;
    epoch_hwm_ = run1.epoch_deferred_hwm;
    batches_ = hb->batches() - batches0;
    batched_entries_ = hb->batched_entries() - entries0;
    fused_entries_ = hb->fused_entries() - fused0;
    const auto* alloc = store->allocator();
    used_chunks_ = alloc->total_chunks() - alloc->free_chunks();
    for (uint64_t k = 0; k < keys_; k++) {
      live_bytes_ += sizeof(uint64_t) + wl::Generator::EtcValueLen(k, keys_);
    }
    chunks_tiered_ = store->ChunksTiered();
    const AdapterStats& st = traced_->stats();
    failed_ += st.bad_reads + st.bad_scans;
  }

  // The store's background work between serving segments, on its own
  // simulated clock. The device window is cleared first, so the passes'
  // PM traffic lands at the head of the next segment (the interference
  // the paper's Fig. 13 measures).
  void Maintain() {
    core::FlatStore* store = rig_.store.get();
    rig_.device->Reset();
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    Phase p(&tracer_, "maintain");
    store->SealActiveLogChunks();
    {
      Phase c(&tracer_, "log.clean");
      const uint64_t v0 = clock.now();
      store->RunCleanersOnce();
      gc_vt_ns_ += clock.now() - v0;
      gc_passes_++;
    }
    {
      Phase t(&tracer_, "tier.convert");
      const uint64_t h0 = HostNs();
      store->RunTieringOnce();
      tier_host_ns_ += HostNs() - h0;
      tier_passes_++;
    }
  }

  void Verify() {
    core::FlatStore* store = rig_.store.get();
    if (a_.corrupt_key >= 0) {
      // Test hook: one value with the right length and the wrong bytes.
      const uint64_t k = static_cast<uint64_t>(a_.corrupt_key) % keys_;
      store->Put(k, std::string(wl::Generator::EtcValueLen(k, keys_),
                                static_cast<char>(kValueByte + 1)));
    }
    Phase p(&tracer_, "verify");
    const uint64_t bad = Sweep(store, keys_);
    attempted_ += keys_;
    failed_ += bad;
    bad_before_crash_ = bad;
  }

  void Recover() {
    // A crash: the store goes away without Shutdown.
    stats_ = traced_->stats();
    traced_.reset();
    rig_.adapter.reset();
    rig_.store.reset();
    std::vector<double> open_ms, tier_ms, replay_ms, usage_ms;
    for (int i = 0; i < kOpens; i++) {
      rig_.store.reset();
      if (w_.crash_tracking) rig_.pool->SimulateCrash();
      Phase p(&tracer_, "recovery.open");
      const uint64_t t0 = HostNs();
      rig_.store = core::FlatStore::Open(rig_.pool.get(), opts_);
      open_ms.push_back(static_cast<double>(HostNs() - t0) / 1e6);
      const auto& rs = rig_.store->recovery_stats();
      tier_ms.push_back(static_cast<double>(rs.tier_load_ns) / 1e6);
      replay_ms.push_back(static_cast<double>(rs.replay_ns) / 1e6);
      usage_ms.push_back(static_cast<double>(rs.usage_ns) / 1e6);
      chunks_replayed_ = rs.chunks_replayed;
    }
    recovery_ms_ = Median(open_ms);
    rec_tier_ms_ = Median(tier_ms);
    rec_replay_ms_ = Median(replay_ms);
    rec_usage_ms_ = Median(usage_ms);
    Phase p(&tracer_, "verify.recovered");
    // Every serving write was acknowledged before the crash, and every
    // write of a key carries the same value, so an acknowledged write
    // survived iff its key reads back right.
    const uint64_t bad = Sweep(rig_.store.get(), keys_);
    attempted_ += keys_;
    failed_ += bad;
    bad_after_crash_ = bad;
  }

  // The gated end-to-end metrics. The host-clock ones a user also sees
  // (serving speed, recovery time) spread by up to 30 % from run to run
  // on a shared machine, beyond any usable regression bound, so they are
  // reported with the per-layer metrics instead.
  std::vector<Metric> EndToEnd() const {
    return {
        {"throughput_mops",
         Ratio(static_cast<double>(ops_) * 1000.0,
               static_cast<double>(sim_ns_)),
         "Mops", "vt"},
        {"p50_us", InterpolatedPercentile(latency_, 50) / 1000.0, "us", "vt"},
        {"p999_us", InterpolatedPercentile(latency_, 99.9) / 1000.0, "us",
         "vt"},
        {"setup_s", Median(setup_s_), "s", "host"},
        {"space_amp",
         Ratio(static_cast<double>(used_chunks_ * flatstore::alloc::kChunkSize),
               static_cast<double>(live_bytes_)),
         "ratio", "count"},
    };
  }

  std::vector<Metric> PerLayer() const {
    const AdapterStats& s = stats_;
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    double core_max = 0;
    double core_sum = 0;
    for (uint64_t ns : core_ns_) {
      core_max = std::max(core_max, d(ns));
      core_sum += d(ns);
    }
    const double core_mean = core_sum / static_cast<double>(core_ns_.size());
    std::vector<Metric> m = {
        {"core.admit_vt_ns_per_write",
         Ratio(d(s.admit.vt_ns), d(s.admit.items)), "ns", "vt"},
        {"core.retry_ratio", Ratio(d(s.write_retries), d(s.admit.items)),
         "ratio", "count"},
        {"core.drain_vt_ns_per_op", Ratio(d(s.drain.vt_ns), d(s.drain.items)),
         "ns", "vt"},
        {"core.imbalance", Ratio(core_max, core_mean), "ratio", "vt"},
        {"batch.persist_vt_ns_per_entry",
         Ratio(d(s.pump.vt_ns), d(s.pump.items)), "ns", "vt"},
        {"batch.entries_per_batch", Ratio(d(batched_entries_), d(batches_)),
         "entries", "count"},
        {"batch.fused_share", Ratio(d(fused_entries_), d(batched_entries_)),
         "ratio", "count"},
        {"batch.empty_pump_ratio", Ratio(d(s.empty_pumps), d(s.pump.calls)),
         "ratio", "count"},
        {"pm.fences_per_op", Ratio(d(serve_fences_), d(ops_)), "count",
         "count"},
        {"pm.lines_per_op", Ratio(d(serve_lines_), d(ops_)), "count", "count"},
        {"pm.bytes_per_user_byte",
         Ratio(d(serve_bytes_), d(s.user_bytes_written)), "ratio", "count"},
        {"index.read_vt_ns_per_key",
         Ratio(d(s.multiget.vt_ns), d(s.multiget.items)), "ns", "vt"},
        {"index.keys_per_multiget",
         Ratio(d(s.multiget.items), d(s.multiget.calls)), "keys", "count"},
        {"index.deferred_ratio", Ratio(d(s.keys_deferred), d(s.multiget.items)),
         "ratio", "count"},
        {"net.vt_share", 1.0 - Ratio(d(s.VtInside()), core_sum), "ratio", "vt"},
        {"tier.scan_vt_ns_per_item", Ratio(d(s.scan.vt_ns), d(s.scan.items)),
         "ns", "vt"},
        {"tier.convert_ms_per_pass",
         Ratio(d(tier_host_ns_) / 1e6, d(tier_passes_)), "ms", "host"},
        {"tier.chunks_tiered", d(chunks_tiered_), "count", "count"},
        {"log.gc_write_amp", pm::GcWriteAmp(run_delta_), "ratio", "count"},
        {"log.gc_vt_ms_per_pass", Ratio(d(gc_vt_ns_) / 1e6, d(gc_passes_)),
         "ms", "vt"},
        {"log.gc_victims", d(run_delta_.gc_victims), "count", "count"},
        {"alloc.free_chunks_min", d(free_min_), "count", "count"},
        {"alloc.used_chunks_end", d(used_chunks_), "count", "count"},
        {"epoch.deferred_hwm", d(epoch_hwm_), "count", "count"},
        {"epoch.advances", d(epoch_advances_), "count", "count"},
        {"recovery.open_ms", recovery_ms_, "ms", "host"},
        {"recovery.tier_load_ms", rec_tier_ms_, "ms", "host"},
        {"recovery.replay_ms", rec_replay_ms_, "ms", "host"},
        {"recovery.usage_ms", rec_usage_ms_, "ms", "host"},
        {"recovery.chunks_replayed", d(chunks_replayed_), "count", "count"},
        {"setup.pool_s", Median(pool_s_), "s", "host"},
        {"setup.preload_s", Median(preload_s_), "s", "host"},
        {"host.ops_per_s", Median(s.plain_rates), "1/s", "host"},
    };
    if (tracer_.on()) {
      const double inside = d(s.traced_inside_ns);
      m.push_back({"host.engine_ns_per_op", Ratio(inside, d(s.traced_ops)),
                   "ns", "host"});
      m.push_back({"host.outside_ns_per_op",
                   Ratio(d(s.traced_window_ns) - inside, d(s.traced_ops)),
                   "ns", "host"});
    }
    return m;
  }

  static std::string Num(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string MetricsJson(const std::vector<Metric>& ms,
                                 bool with_clock) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); i++) {
      if (i > 0) s += ", ";
      s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"";
      if (with_clock) s += std::string(", \"clock\": \"") + ms[i].clock + "\"";
      s += "}";
    }
    return s + "}";
  }

  void Report() {
    const std::vector<Metric> e2e = EndToEnd();
    const std::vector<Metric> layers = PerLayer();
    const double error_rate =
        Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
    const double plain_rate = Median(stats_.plain_rates);
    const double traced_rate = Median(stats_.traced_rates);
    const double overhead =
        tracer_.on() ? Ratio(plain_rate - traced_rate, plain_rate) : 0;
    const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
    if (!release) {
      std::fprintf(stderr,
                   "perfbench: WARNING: build type is '%s', not Release; "
                   "host-time metrics are not comparable\n",
                   PERFBENCH_BUILD_TYPE);
    }
    if (!a_.tiny && latency_.count() < kMinSamples) {
      std::fprintf(stderr,
                   "perfbench: WARNING: only %" PRIu64
                   " latency samples (want >= %" PRIu64 ")\n",
                   latency_.count(), kMinSamples);
    }

    std::printf("workload %s  seed %" PRIu64 "  seconds %d  trace %d\n",
                w_.name, a_.seed, a_.seconds, a_.trace);
    for (const Metric& m : e2e) {
      std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("  %-32s %18.6f ratio (%" PRIu64 " of %" PRIu64
                " ops failed)\n",
                "error_rate", error_rate, failed_, attempted_);
    std::printf("  %-32s %18" PRIu64
                " (reads served with a bad value: %" PRIu64
                ", bad scans: %" PRIu64
                ", bad keys before/after crash: %" PRIu64 "/%" PRIu64 ")\n",
                "latency_samples", latency_.count(),
                stats_.bad_reads, stats_.bad_scans,
                bad_before_crash_, bad_after_crash_);
    for (const Metric& m : layers) {
      std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (tracer_.on()) {
      std::printf("  %-32s %18.6f ratio (untraced %.0f, traced %.0f ops/s)\n",
                  "trace.host_overhead", overhead, plain_rate, traced_rate);
    }

    if (!a_.out.empty()) WriteResults(e2e, layers, error_rate, overhead);
    if (tracer_.on() && !a_.spans.empty() && !tracer_.Write(a_.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a_.spans.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                failed_ == 0 ? "true" : "false", attempted_, failed_,
                MetricsJson(tracer_.on() ? layers : e2e, false).c_str());
    std::fflush(stdout);
  }

  void WriteResults(const std::vector<Metric>& e2e,
                    const std::vector<Metric>& layers, double error_rate,
                    double overhead) const {
    std::FILE* f = std::fopen(a_.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a_.out.c_str());
      return;
    }
    std::fprintf(
        f,
        "{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
        "\"scale\": \"%s\", \"run_seconds\": %d, \"trace\": %d, "
        "\"pool_mb\": %" PRIu64 ", \"crash_tracking\": %s, "
        "\"index\": \"%s\", \"cores\": %d, \"conns\": %d, "
        "\"client_window\": 8, \"keys\": %" PRIu64
        ", \"get_ratio\": %s, \"scan_ratio\": %s, \"segments\": %d, "
        "\"ops_attempted_serving\": %" PRIu64 ", \"setups\": %d, "
        "\"opens\": %d, \"host_windows\": %zu, "
        "\"vt_remote_load_penalty\": %" PRIu64
        ", \"vt_remote_persist_penalty\": %" PRIu64
        ", \"vt_pm_dimms_per_socket\": %d, \"vt_mem_parallelism\": %d}, ",
        w_.name, a_.seed, a_.commit.c_str(), PERFBENCH_BUILD_TYPE,
        std::thread::hardware_concurrency(), a_.tiny ? "tiny" : "full",
        a_.seconds, a_.trace, w_.pool_mb, w_.crash_tracking ? "true" : "false",
        core::IndexKindName(w_.index), w_.cores, w_.conns, keys_,
        Num(w_.get_ratio).c_str(), Num(w_.scan_ratio).c_str(), w_.segments,
        ops_per_conn_ * static_cast<uint64_t>(w_.conns * w_.segments), kSetups,
        kOpens, stats_.plain_rates.size() + stats_.traced_rates.size(),
        static_cast<uint64_t>(vt::kRemoteSocketLoadPenalty),
        static_cast<uint64_t>(vt::kRemoteSocketPersistPenalty),
        static_cast<int>(vt::kPmDimms), static_cast<int>(vt::kMemParallelism));
    std::fprintf(f,
                 "\"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"error_rate\": %s, "
                 "\"latency_samples\": %" PRIu64
                 ", \"trace_host_overhead\": %s, \"spans\": %zu, "
                 "\"spans_dropped\": %" PRIu64 ", ",
                 failed_ == 0 ? "true" : "false", attempted_, failed_,
                 Num(error_rate).c_str(), latency_.count(),
                 Num(overhead).c_str(), tracer_.size(), tracer_.dropped());
    std::fprintf(f, "\"end_to_end\": %s, \"per_layer\": %s}\n",
                 MetricsJson(e2e, true).c_str(),
                 MetricsJson(layers, true).c_str());
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a_.out.c_str());
    }
  }

  const Workload& w_;
  const Args& a_;
  Tracer tracer_;
  uint64_t keys_ = 0;
  uint64_t ops_per_conn_ = 0;
  core::FlatStoreOptions opts_;
  wl::Config wl_;
  Rig rig_;
  std::unique_ptr<TracedAdapter> traced_;

  // Set-up and recovery (host).
  std::vector<double> setup_s_, pool_s_, preload_s_;
  double recovery_ms_ = 0, rec_tier_ms_ = 0, rec_replay_ms_ = 0,
         rec_usage_ms_ = 0;
  uint64_t chunks_replayed_ = 0;

  // Serving.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t ops_ = 0;
  uint64_t sim_ns_ = 0;
  Histogram latency_;
  std::vector<uint64_t> core_ns_;
  uint64_t serve_fences_ = 0, serve_lines_ = 0, serve_bytes_ = 0;
  uint64_t batches_ = 0, batched_entries_ = 0, fused_entries_ = 0;
  AdapterStats stats_;  // the adapter's, kept past the crash

  // Maintenance and space.
  pm::PmStats::Snapshot run_delta_;
  uint64_t epoch_advances_ = 0, epoch_hwm_ = 0;
  uint64_t gc_vt_ns_ = 0, gc_passes_ = 0;
  uint64_t tier_host_ns_ = 0, tier_passes_ = 0;
  uint64_t chunks_tiered_ = 0;
  uint64_t free_min_ = 0, used_chunks_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t bad_before_crash_ = 0, bad_after_crash_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (args.workload == w.name) {
      perfbench::Bench bench(w, args);
      return bench.Run();
    }
  }
  perfbench::Usage(("unknown workload " + args.workload).c_str());
}
