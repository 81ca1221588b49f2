#include "harness/crash_explorer.h"

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

#include "core/fsck.h"

namespace flatstore {
namespace testing {

namespace {

// FLATSTORE_CHECK failures abort the process, which would otherwise eat
// the repro. Each crash point announces itself here first; a SIGABRT
// handler prints it with async-signal-safe writes.
char g_current_point[256];

void AbortHandler(int) {
  if (g_current_point[0] != '\0') {
    (void)!write(STDERR_FILENO, g_current_point, strlen(g_current_point));
    (void)!write(STDERR_FILENO, " stage=abort (FLATSTORE_CHECK fired)\n",
                 37);
  }
  std::signal(SIGABRT, SIG_DFL);
  std::abort();
}

void InstallAbortHandler() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGABRT, AbortHandler); });
}

std::string Printable(const std::optional<std::string>& v) {
  if (!v.has_value()) return "absent";
  if (v->size() > 16) {
    return "\"" + v->substr(0, 13) + "...\"(" + std::to_string(v->size()) +
           " B)";
  }
  return "\"" + *v + "\"";
}

}  // namespace

// ---- DurabilityOracle ------------------------------------------------------

void DurabilityOracle::WillPut(uint64_t key, std::string value) {
  boundary_[key] = std::move(value);
}

void DurabilityOracle::WillDelete(uint64_t key) {
  boundary_[key] = std::nullopt;
}

void DurabilityOracle::Acked(uint64_t key) {
  auto it = boundary_.find(key);
  if (it == boundary_.end()) return;
  durable_[key] = std::move(it->second);
  boundary_.erase(it);
}

std::string DurabilityOracle::Check(core::FlatStore* store) {
  for (const auto& [key, want] : durable_) {
    if (boundary_.count(key)) continue;  // old-or-new, handled below
    std::string got;
    const bool found = store->Get(key, &got);
    if (want.has_value() ? (!found || got != *want) : found) {
      return "key " + std::to_string(key) + " expected " + Printable(want) +
             ", got " +
             Printable(found ? std::optional<std::string>(got)
                             : std::nullopt);
    }
  }
  // In-flight ops: either the old durable state or the new one is legal.
  for (auto& [key, want_new] : boundary_) {
    std::string got;
    const bool found = store->Get(key, &got);
    const std::optional<std::string> observed =
        found ? std::optional<std::string>(got) : std::nullopt;
    auto it = durable_.find(key);
    const std::optional<std::string> want_old =
        it != durable_.end() ? it->second : std::nullopt;
    if (observed != want_new && observed != want_old) {
      return "in-flight key " + std::to_string(key) + " expected " +
             Printable(want_old) + " or " + Printable(want_new) + ", got " +
             Printable(observed);
    }
    durable_[key] = observed;  // whichever side won is now the truth
  }
  boundary_.clear();
  return "";
}

// ---- WorkloadCtx -----------------------------------------------------------

void WorkloadCtx::Put(uint64_t key, std::string value) {
  if (pool->PowerLost()) return;
  if (oracle != nullptr) oracle->WillPut(key, value);
  store->Put(key, value);
  if (oracle != nullptr && !pool->PowerLost()) oracle->Acked(key);
}

void WorkloadCtx::Delete(uint64_t key) {
  if (pool->PowerLost()) return;
  if (oracle != nullptr) oracle->WillDelete(key);
  store->Delete(key);
  if (oracle != nullptr && !pool->PowerLost()) oracle->Acked(key);
}

void WorkloadCtx::Arm() {
  if (explorer_ != nullptr) explorer_->Armed();
}

// ---- CrashExplorer ---------------------------------------------------------

std::vector<uint64_t> CrashSeedsFromEnv(std::vector<uint64_t> fallback) {
  const char* env = std::getenv("FLATSTORE_CRASH_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<uint64_t> seeds;
  std::stringstream ss(env);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 0));
  }
  return seeds.empty() ? fallback : seeds;
}

std::vector<uint64_t> CrashSeeds() { return CrashSeedsFromEnv({1, 7, 13}); }

std::string ExplorerResult::Summary() const {
  std::ostringstream out;
  out << (ok() ? "PASS" : "FAIL") << ": " << points_run
      << " crash points over a " << total_flushes << "-flush window";
  for (const std::string& f : failures) out << "\n" << f;
  return out.str();
}

CrashExplorer::CrashExplorer(std::string workload_name,
                             ExplorerOptions options)
    : name_(std::move(workload_name)), opts_(std::move(options)) {
  InstallAbortHandler();
}

uint64_t CrashExplorer::DryRun(const Workload& workload) {
  pm::PmPool::Options popt;
  popt.size = opts_.pool_size;
  popt.crash_tracking = true;
  pm::PmPool pool(popt);
  DurabilityOracle oracle;
  auto store = core::FlatStore::Create(&pool, opts_.store);

  dry_ = true;
  armed_ = false;
  cur_pool_ = &pool;
  arm_marker_ = pool.stats().Get().lines_flushed;

  WorkloadCtx ctx;
  ctx.store = store.get();
  ctx.pool = &pool;
  ctx.oracle = &oracle;
  ctx.explorer_ = this;
  workload(ctx);
  workload_arms_ = armed_;

  store.reset();  // teardown flushes are crash points too
  const uint64_t window = pool.stats().Get().lines_flushed - arm_marker_;
  cur_pool_ = nullptr;
  return window;
}

void CrashExplorer::Armed() {
  armed_ = true;
  if (dry_) {
    arm_marker_ = cur_pool_->stats().Get().lines_flushed;
  } else {
    cur_pool_->SetCrashMode(arm_mode_, arm_seed_);
    cur_pool_->SetFlushBudget(arm_budget_);
  }
}

std::string CrashExplorer::RunPoint(pm::PmPool::CrashMode mode,
                                    uint64_t flush_index, uint64_t seed,
                                    const Workload& workload) {
  // A dry run teaches us whether the workload arms itself; without that,
  // pre-arming here would fight a later explicit Arm() (budget reset).
  if (!dry_done_) {
    DryRun(workload);
    dry_done_ = true;
  }

  std::ostringstream prefix;
  prefix << "[crash-explorer] FAIL workload=" << name_
         << " mode=" << pm::PmPool::CrashModeName(mode)
         << " flush=" << flush_index << " seed=" << seed;
  std::snprintf(g_current_point, sizeof(g_current_point), "%s",
                prefix.str().c_str());
  auto fail = [&](const char* stage, const std::string& detail) {
    return prefix.str() + " stage=" + stage + ": " + detail;
  };

  pm::PmPool::Options popt;
  popt.size = opts_.pool_size;
  popt.crash_tracking = true;
  pm::PmPool pool(popt);
  DurabilityOracle oracle;
  auto store = core::FlatStore::Create(&pool, opts_.store);

  dry_ = false;
  armed_ = false;
  cur_pool_ = &pool;
  arm_mode_ = mode;
  arm_seed_ = seed;
  arm_budget_ = static_cast<int64_t>(flush_index);

  WorkloadCtx ctx;
  ctx.store = store.get();
  ctx.pool = &pool;
  ctx.oracle = &oracle;
  ctx.explorer_ = this;
  if (!workload_arms_) Armed();
  workload(ctx);
  store.reset();
  cur_pool_ = nullptr;

  pool.SimulateCrash();

  core::FsckReport report = core::FsckPool(pool);
  if (!report.ok) {
    std::string first;
    for (const core::FsckIssue& i : report.issues) {
      if (i.fatal) {
        first = i.what;
        break;
      }
    }
    return fail("fsck", first.empty() ? report.Summary() : first);
  }

  auto recovered = core::FlatStore::Open(&pool, opts_.store);
  std::string err = oracle.Check(recovered.get());
  if (!err.empty()) return fail("oracle", err);

  // The recovered store must accept new traffic.
  constexpr uint64_t kProbeKey = 0xC4A54E9704417ull;
  recovered->Put(kProbeKey, "explorer-probe");
  std::string v;
  if (!recovered->Get(kProbeKey, &v) || v != "explorer-probe") {
    return fail("probe", "post-recovery put/get round-trip failed");
  }
  recovered->Delete(kProbeKey);
  g_current_point[0] = '\0';
  return "";
}

ExplorerResult CrashExplorer::Explore(const Workload& workload) {
  ExplorerResult res;
  const uint64_t w1 = DryRun(workload);
  const uint64_t w2 = DryRun(workload);
  dry_done_ = true;
  if (w1 != w2) {
    res.failures.push_back(
        "[crash-explorer] workload=" + name_ +
        " is nondeterministic: dry runs flushed " + std::to_string(w1) +
        " vs " + std::to_string(w2) + " lines — every repro would be void");
    return res;
  }
  res.total_flushes = w1;

  for (pm::PmPool::CrashMode mode : opts_.modes) {
    // kClean draws no randomness; running it per seed would duplicate.
    const std::vector<uint64_t> seeds =
        mode == pm::PmPool::CrashMode::kClean ? std::vector<uint64_t>{0}
                                              : opts_.seeds;
    for (uint64_t seed : seeds) {
      for (uint64_t f = 1; f <= w1; f += opts_.stride) {
        std::string err = RunPoint(mode, f, seed, workload);
        res.points_run++;
        if (!err.empty()) {
          res.failures.push_back(std::move(err));
          if (res.failures.size() >= opts_.max_failures) return res;
        }
      }
    }
  }
  return res;
}

}  // namespace testing
}  // namespace flatstore
