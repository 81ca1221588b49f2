// Virtual time: per-core simulated clocks.
//
// The paper's evaluation ran on a 36-core Optane testbed; this repository
// runs anywhere (including single-CPU CI machines) by accounting time in
// *simulated nanoseconds* instead of wall-clock time. Each simulated server
// core / client connection owns a Clock. All modelled costs — PM flush
// service, CPU work proportional to real algorithmic effort, network hops —
// advance the clock of whichever core performed the work. Synchronization
// between cores transfers timestamps: e.g., a horizontal-batching follower
// advances its clock to the leader's batch-completion time.
//
// Code that may run either inside a simulated core or in a plain unit test
// charges costs through the thread-local *current clock*; when no clock is
// bound the charge is a no-op, so substrate code (indexes, allocator, log)
// is usable stand-alone.

#ifndef FLATSTORE_VT_CLOCK_H_
#define FLATSTORE_VT_CLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "vt/costs.h"

namespace flatstore {
namespace vt {

// Home-socket sentinels for structures whose placement is not pinned to
// one socket. kSocketNone (the default everywhere) means "socket-agnostic"
// — no remote surcharge is ever applied, preserving the single-socket
// model exactly. kSocketInterleaved marks memory striped across every
// socket (the placement-off A/B): a deterministic fraction of accesses is
// remote regardless of the executing core.
inline constexpr int kSocketNone = -1;
inline constexpr int kSocketInterleaved = -2;

// A simulated-nanosecond clock for one execution context. Not thread-safe:
// exactly one host thread drives a given Clock at a time.
class Clock {
 public:
  // Current simulated time in ns.
  uint64_t now() const { return now_; }

  // The socket this execution context runs on (0 on single-socket
  // machines). Set once by whoever owns the core layout (the server
  // runtime); charges consult it through vt::CurrentSocket().
  int socket() const { return socket_; }
  void set_socket(int socket) { socket_ = socket; }

  // Advances by `ns` of simulated work.
  void Advance(uint64_t ns) { now_ += ns; }

  // Advances to at least `t` (models waiting for an event that completes
  // at simulated time `t`; no-op if `t` is in the past).
  void AdvanceTo(uint64_t t) { now_ = std::max(now_, t); }

  // AdvanceTo for a context with nothing else to do until `t`: a serving
  // core waiting for a request to arrive, or an idle HB leader waiting
  // for an entry to be staged. The jump is counted in idle_ns().
  void WaitUntil(uint64_t t) {
    if (t <= now_) return;
    idle_ns_ += t - now_;
    now_ = t;
  }
  // Simulated time spent in WaitUntil jumps.
  uint64_t idle_ns() const { return idle_ns_; }

  // Whether the simulated core this clock belongs to is idle: its
  // serving loop's last poll ended with no request left to admit at
  // now(). Set by the serving loop; read through CoreIdle.
  bool idle() const { return idle_; }
  void set_idle(bool idle) { idle_ = idle; }

  // Outstanding asynchronous-flush completion horizon (see PmPool): the
  // latest device-completion timestamp of clwb-style flushes issued but not
  // yet fenced. Fence() advances now() to this value.
  uint64_t pending_fence() const { return pending_fence_; }
  void RaisePendingFence(uint64_t t) {
    pending_fence_ = std::max(pending_fence_, t);
  }
  void ClearPendingFence() { pending_fence_ = 0; }

  // Resets the clock to zero (between benchmark phases).
  void Reset() {
    now_ = 0;
    pending_fence_ = 0;
    idle_ns_ = 0;
    idle_ = false;
  }

 private:
  uint64_t now_ = 0;
  uint64_t pending_fence_ = 0;
  uint64_t idle_ns_ = 0;
  bool idle_ = false;
  int socket_ = 0;
};

// The clock bound to this host thread and its interleaved-lookup overlap
// factor (see below). Inline, so that every modelled charge reads them
// without a function call.
inline thread_local Clock* g_current_clock = nullptr;
inline thread_local int g_current_overlap = 1;

// Returns the clock bound to this host thread, or nullptr.
inline Clock* CurrentClock() { return g_current_clock; }

// Binds `c` (may be nullptr) to this host thread; returns the old binding.
inline Clock* SetCurrentClock(Clock* c) {
  Clock* prev = g_current_clock;
  g_current_clock = c;
  return prev;
}

// The clocks of every simulated core, indexed by core, when one host
// thread drives them all (the server runtime's co-simulation binds them
// with ScopedCoreClocks); none are bound otherwise.
inline thread_local Clock* const* g_core_clocks = nullptr;
inline thread_local int g_num_core_clocks = 0;

// Whether simulated core `core` is idle (Clock::idle) — false when no
// core clocks are bound. Lets per-core code see a peer core's state at
// the instant it runs, e.g. the HB leader election, which prefers idle
// cores.
inline bool CoreIdle(int core) {
  return core < g_num_core_clocks && g_core_clocks[core]->idle();
}

// Socket of the bound clock, or 0 when none is bound (plain unit tests
// behave as single-socket machines).
inline int CurrentSocket() {
  Clock* c = CurrentClock();
  return c ? c->socket() : 0;
}

// Extra per-cacheline stall for accessing memory homed on `home_socket`
// from the current execution context. kSocketNone is free (socket-
// agnostic memory, the single-socket model); kSocketInterleaved charges
// half the penalty — the deterministic expectation of striped placement
// on a 2-socket machine; a concrete socket charges the full penalty iff
// it differs from the executing core's.
inline uint64_t RemoteLoadSurcharge(int home_socket) {
  if (home_socket == kSocketNone) return 0;
  if (home_socket == kSocketInterleaved) return kRemoteSocketLoadPenalty / 2;
  return home_socket == CurrentSocket() ? 0 : kRemoteSocketLoadPenalty;
}

// Advances the current clock by `ns`; no-op when none is bound.
inline void Charge(uint64_t ns) {
  if (Clock* c = CurrentClock()) c->Advance(ns);
}

// Current simulated time, or 0 when no clock is bound.
inline uint64_t Now() {
  Clock* c = CurrentClock();
  return c ? c->now() : 0;
}

// ---- interleaved-lookup overlap (the MultiGet prefetch pipeline) ------
//
// While a batched read interleaves independent, prefetch-covered lookup
// chains, cache-miss-class charges are amortized across the chains
// instead of summing their full latencies. The factor is thread-local,
// like the clock binding: 1 (the default) means serial execution and
// leaves every charge untouched.

// Overlap factor active on this thread (>= 1).
inline int CurrentOverlap() { return g_current_overlap; }

// Sets the overlap factor; returns the previous value.
inline int SetCurrentOverlap(int ways) {
  const int prev = g_current_overlap;
  g_current_overlap = ways < 1 ? 1 : ways;
  return prev;
}

// Advances the current clock by one cache-miss-class stall, amortized by
// the active overlap factor (full latency when serial).
inline void ChargeMiss(uint64_t miss) {
  Charge(OverlappedMissCost(CurrentOverlap(), miss));
}

// ChargeMiss for memory homed on `home_socket`: a remote line stalls for
// the miss plus the inter-socket link. The surcharge rides inside the
// overlapped cost — remote loads pipeline across interleaved chains just
// like local ones, only with a longer round trip.
inline void ChargeMissAt(int home_socket, uint64_t miss) {
  ChargeMiss(miss + RemoteLoadSurcharge(home_socket));
}

// RAII overlap window. MultiGet opens one for its prefetch + probe
// phases; un-hinted fallback probes open a ScopedOverlap(1) inside it so
// they cannot free-ride on a batch they did not prefetch for.
class ScopedOverlap {
 public:
  explicit ScopedOverlap(int ways) : prev_(SetCurrentOverlap(ways)) {}
  ~ScopedOverlap() { SetCurrentOverlap(prev_); }
  ScopedOverlap(const ScopedOverlap&) = delete;
  ScopedOverlap& operator=(const ScopedOverlap&) = delete;

 private:
  int prev_;
};

// RAII binding of the core clocks `clocks[0..n)` to this thread.
class ScopedCoreClocks {
 public:
  ScopedCoreClocks(Clock* const* clocks, int n)
      : prev_(g_core_clocks), prev_n_(g_num_core_clocks) {
    g_core_clocks = clocks;
    g_num_core_clocks = n;
  }
  ~ScopedCoreClocks() {
    g_core_clocks = prev_;
    g_num_core_clocks = prev_n_;
  }
  ScopedCoreClocks(const ScopedCoreClocks&) = delete;
  ScopedCoreClocks& operator=(const ScopedCoreClocks&) = delete;

 private:
  Clock* const* prev_;
  int prev_n_;
};

// RAII binding of the current thread to a clock.
class ScopedClock {
 public:
  explicit ScopedClock(Clock* c) : prev_(SetCurrentClock(c)) {}
  ~ScopedClock() { SetCurrentClock(prev_); }
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  Clock* prev_;
};

}  // namespace vt
}  // namespace flatstore

#endif  // FLATSTORE_VT_CLOCK_H_
