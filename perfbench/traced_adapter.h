// Outside-in instrumentation for the FlatStore benchmark.
//
// TracedAdapter decorates core::EngineAdapter: the server loop
// (core::RunServer) calls it exactly as it would call FlatStoreAdapter,
// and it forwards every call unchanged. Around SubmitWriteBatch,
// MultiGet, Scan, Pump and Drain it reads the bound core's virtual clock
// (vt::Now) before and after, counts each call's statuses, and checks
// every served read against the benchmark's value rule. Reading the
// clock never charges it, so the model runs exactly as without the
// decorator.
//
// Host time is read per call only while tracing is on. Besides the
// per-call sums, the adapter cuts the serving phase into windows of a
// fixed number of completed operations and records each window's host
// rate; with tracing on, windows alternate between traced and untraced,
// so one run yields both rates and the tracing overhead.

#ifndef PERFBENCH_TRACED_ADAPTER_H_
#define PERFBENCH_TRACED_ADAPTER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/server.h"
#include "vt/clock.h"
#include "workload/workload.h"

namespace perfbench {

using flatstore::core::EngineAdapter;

// Every value the workloads write is this byte, repeated to the key's
// ETC length (core::Preload and the server loop both fill values so).
inline constexpr uint8_t kValueByte = 0x5A;

inline uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The value every key must hold: kValueByte x EtcValueLen(key).
inline bool ValueOk(uint64_t key, uint64_t key_space,
                    const std::string& value) {
  if (value.size() !=
      flatstore::workload::Generator::EtcValueLen(key, key_space)) {
    return false;
  }
  return std::all_of(value.begin(), value.end(), [](char c) {
    return static_cast<uint8_t>(c) == kValueByte;
  });
}

// One span: a call into a layer, or a benchmark phase around such calls.
struct Span {
  const char* name;
  int32_t core;     // serving core, -1 for phase spans
  int64_t parent;   // index of the enclosing span, -1 at top level
  uint64_t host_start;  // host ns since the run began
  uint64_t host_end;
  uint64_t vt_start;    // simulated ns on the clock bound at the time
  uint64_t vt_end;
};

// Spans kept in memory and written once the run ends. Every phase span
// is kept, but only the first `cap` call spans; the per-layer sums never
// depend on the cap.
class Tracer {
 public:
  Tracer(bool on, size_t cap) : on_(on), cap_(cap), t0_(HostNs()) {
    if (on_) spans_.reserve(cap_);
  }

  bool on() const { return on_; }

  // Opens a phase span; spans recorded until Close nest under it.
  int64_t Open(const char* name) {
    const int64_t id = Add({name, -1, Parent(), Rel(HostNs()), 0,
                            flatstore::vt::Now(), 0},
                           /*capped=*/false);
    stack_.push_back(id);
    return id;
  }
  void Close(int64_t id) {
    stack_.pop_back();
    if (id < 0) return;
    spans_[id].host_end = Rel(HostNs());
    spans_[id].vt_end = flatstore::vt::Now();
  }

  void Record(const char* name, int core, uint64_t h0, uint64_t h1,
              uint64_t v0, uint64_t v1) {
    Add({name, core, Parent(), Rel(h0), Rel(h1), v0, v1}, /*capped=*/true);
  }

  uint64_t dropped() const { return dropped_; }
  size_t size() const { return spans_.size(); }

  // One JSON object per line.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"core\": %d, "
                   "\"parent\": %lld, \"host_start_ns\": %llu, "
                   "\"host_end_ns\": %llu, \"vt_start_ns\": %llu, "
                   "\"vt_end_ns\": %llu}\n",
                   i, s.name, s.core, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.host_start),
                   static_cast<unsigned long long>(s.host_end),
                   static_cast<unsigned long long>(s.vt_start),
                   static_cast<unsigned long long>(s.vt_end));
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t Rel(uint64_t host_ns) const { return host_ns - t0_; }
  int64_t Parent() const { return stack_.empty() ? -1 : stack_.back(); }
  int64_t Add(const Span& s, bool capped) {
    if (!on_) return -1;
    if (capped && calls_kept_ == cap_) {
      dropped_++;
      return -1;
    }
    if (capped) calls_kept_++;
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size() - 1);
  }

  bool on_;
  size_t cap_;
  uint64_t t0_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  size_t calls_kept_ = 0;
  uint64_t dropped_ = 0;
};

// Work and time inside one kind of adapter call.
struct CallStats {
  uint64_t calls = 0;
  uint64_t vt_ns = 0;  // simulated time inside the calls
  uint64_t items = 0;  // call-specific count (see AdapterStats)
};

struct AdapterStats {
  CallStats admit;     // SubmitWriteBatch; items = writes admitted
  CallStats multiget;  // MultiGet; items = keys asked
  CallStats scan;      // Scan; items = pairs found
  CallStats pump;      // Pump; items = entries persisted
  CallStats drain;     // Drain; items = completions
  uint64_t write_retries = 0;  // kBusy + kBackpressure statuses
  uint64_t keys_deferred = 0;
  uint64_t empty_pumps = 0;
  uint64_t user_bytes_written = 0;  // key + value bytes of admitted Puts
  uint64_t bad_reads = 0;  // served value absent or wrong
  uint64_t bad_scans = 0;  // unsupported, or wrong number of pairs

  // Host rates (ops/s) of the closed windows, untraced and traced. Over
  // the traced windows: serving ops completed, host time spanned, and
  // the part of it spent inside timed calls.
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  uint64_t traced_ops = 0;
  uint64_t traced_window_ns = 0;
  uint64_t traced_inside_ns = 0;

  uint64_t VtInside() const {
    return admit.vt_ns + multiget.vt_ns + scan.vt_ns + pump.vt_ns +
           drain.vt_ns;
  }
};

class TracedAdapter final : public EngineAdapter {
 public:
  // `key_space`: every key in [0, key_space) was preloaded and is never
  // deleted, which is what the read and scan checks rely on.
  // `window_ops`: completed operations per host-rate window.
  TracedAdapter(EngineAdapter* inner, uint64_t key_space, uint64_t window_ops,
                Tracer* tracer)
      : inner_(inner),
        key_space_(key_space),
        window_ops_(window_ops),
        tracer_(tracer) {}

  // Host-rate windows run only inside BeginRound/EndRound; the open
  // window starts at the round's first timed call, so work the server
  // does before serving (building the clients' generators) stays out.
  void BeginRound() {
    in_round_ = true;
    window_start_ = 0;
    window_done_ = 0;
    window_inside_ns_ = 0;
  }
  void EndRound() { in_round_ = false; }  // a partial window is dropped

  const AdapterStats& stats() const { return stats_; }

  // ---- forwarded unchanged ----
  int num_cores() const override { return inner_->num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return inner_->CoreForKey(key);
  }
  int SocketForCore(int core) const override {
    return inner_->SocketForCore(core);
  }
  const char* Name() const override { return inner_->Name(); }
  Submit SubmitPut(int core, uint64_t key, const void* value, uint32_t len,
                   uint64_t tag) override {
    return inner_->SubmitPut(core, key, value, len, tag);
  }
  Submit SubmitDelete(int core, uint64_t key, uint64_t tag) override {
    return inner_->SubmitDelete(core, key, tag);
  }
  bool Get(int core, uint64_t key, std::string* value) override {
    return inner_->Get(core, key, value);
  }
  bool KeyBusy(int core, uint64_t key) const override {
    return inner_->KeyBusy(core, key);
  }
  Submit SubmitTxn(int core, const flatstore::core::TxnOp* ops, size_t n,
                   uint64_t tag) override {
    return inner_->SubmitTxn(core, ops, n, tag);
  }

  // ---- timed ----
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override {
    const Timer t = Start();
    const size_t pending = inner_->SubmitWriteBatch(core, reqs, n, out);
    Stop(t, "core.admit", core, &stats_.admit);
    for (size_t i = 0; i < n; i++) {
      if (out[i] == Submit::kBusy || out[i] == Submit::kBackpressure) {
        stats_.write_retries++;
        continue;
      }
      stats_.admit.items++;
      if (!reqs[i].tombstone) {
        stats_.user_bytes_written += sizeof(uint64_t) + reqs[i].len;
      }
    }
    return pending;
  }

  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  flatstore::core::ReadResult* results) override {
    const Timer t = Start();
    const size_t served = inner_->MultiGet(core, keys, n, results);
    Stop(t, "index.multiget", core, &stats_.multiget);
    stats_.multiget.items += n;
    stats_.keys_deferred += n - served;
    for (size_t i = 0; i < n; i++) {
      using flatstore::core::GetResult;
      if (results[i].status == GetResult::kDeferred) continue;
      if (results[i].status != GetResult::kFound ||
          !ValueOk(keys[i], key_space_, results[i].value)) {
        stats_.bad_reads++;
      }
    }
    Completed(served);
    return served;
  }

  bool Scan(int core, uint64_t start_key, uint64_t count,
            uint64_t* found) override {
    const Timer t = Start();
    const bool ok = inner_->Scan(core, start_key, count, found);
    Stop(t, "tier.scan", core, &stats_.scan);
    // Every key below key_space is live, so a scan must return exactly
    // the keys that exist from start_key on, up to `count`.
    const uint64_t want =
        start_key >= key_space_ ? 0 : std::min(count, key_space_ - start_key);
    if (!ok || *found != want) {
      stats_.bad_scans++;
    } else {
      stats_.scan.items += *found;
    }
    Completed(1);
    return ok;
  }

  size_t Pump(int core) override {
    const Timer t = Start();
    const size_t n = inner_->Pump(core);
    Stop(t, "batch.pump", core, &stats_.pump);
    stats_.pump.items += n;
    if (n == 0) stats_.empty_pumps++;
    return n;
  }

  size_t Drain(int core, std::vector<Done>* done) override {
    const Timer t = Start();
    const size_t n = inner_->Drain(core, done);
    Stop(t, "core.drain", core, &stats_.drain);
    stats_.drain.items += n;
    Completed(n);
    return n;
  }

 private:
  struct Timer {
    uint64_t vt;
    uint64_t host;  // 0 unless this call is host-timed
  };

  bool HostTiming() const { return tracer_->on() && window_traced_; }

  Timer Start() {
    if (in_round_ && window_start_ == 0) window_start_ = HostNs();
    return {flatstore::vt::Now(), HostTiming() ? HostNs() : 0};
  }

  void Stop(const Timer& t, const char* name, int core, CallStats* s) {
    const uint64_t vt = flatstore::vt::Now();
    s->calls++;
    s->vt_ns += vt - t.vt;
    if (t.host != 0) {
      const uint64_t h = HostNs();
      window_inside_ns_ += h - t.host;
      tracer_->Record(name, core, t.host, h, t.vt, vt);
    }
  }

  // Counts completed serving ops and closes the window once it is full.
  void Completed(uint64_t n) {
    if (!in_round_) return;
    window_done_ += n;
    if (window_done_ < window_ops_) return;
    const uint64_t now = HostNs();
    const double secs = static_cast<double>(now - window_start_) / 1e9;
    const double rate = static_cast<double>(window_done_) / secs;
    if (HostTiming()) {
      stats_.traced_rates.push_back(rate);
      stats_.traced_ops += window_done_;
      stats_.traced_window_ns += now - window_start_;
      stats_.traced_inside_ns += window_inside_ns_;
    } else {
      stats_.plain_rates.push_back(rate);
    }
    if (tracer_->on()) window_traced_ = !window_traced_;
    window_start_ = now;
    window_done_ = 0;
    window_inside_ns_ = 0;
  }

  EngineAdapter* inner_;
  uint64_t key_space_;
  uint64_t window_ops_;
  Tracer* tracer_;
  AdapterStats stats_;

  bool in_round_ = false;
  bool window_traced_ = true;  // with tracing on, the first window is traced
  uint64_t window_start_ = 0;
  uint64_t window_done_ = 0;
  uint64_t window_inside_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ADAPTER_H_
