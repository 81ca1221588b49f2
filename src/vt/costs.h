// Calibration constants of the virtual-time cost model.
//
// All values are simulated nanoseconds. They are calibrated so that the
// raw-device microbenchmarks (bench_fig01_motivation) land in the ballpark
// of the paper's Figure 1 / Izraelevitz et al.'s Optane DCPMM measurements:
//   * ~90 ns store+clwb latency to ADR;
//   * aggregate random 64 B write throughput saturating around 60 Mops/s
//     across 4 DIMMs (non-scalable write bandwidth);
//   * sequential 256 B writes ~2x random at low thread counts, converging
//     under high concurrency (write-combining buffer thrash);
//   * ~800 ns stall when re-flushing a cacheline that was just flushed.
//
// CPU-side constants deliberately charge *work actually performed* — the
// engines call CostMemcpy(len) for bytes they really copy, kCpuCacheMiss
// for pointer hops they really take — so relative costs between FlatStore
// and the baselines emerge from their real code paths.

#ifndef FLATSTORE_VT_COSTS_H_
#define FLATSTORE_VT_COSTS_H_

#include <cstdint>

namespace flatstore {
namespace vt {

// ---- PM device (see pm/pm_device.h) ----------------------------------

// Number of emulated DIMMs and the address-interleaving granularity.
inline constexpr int kPmDimms = 4;
inline constexpr uint64_t kPmInterleave = 4096;

// Latency from clwb issue until the line is accepted by the DIMM's ADR
// domain (what a following sfence waits for, beyond device queueing).
inline constexpr uint64_t kPmFlushLatency = 90;

// CPU cost of issuing one clwb instruction.
inline constexpr uint64_t kClwbIssueCost = 8;

// CPU cost of an sfence/mfence.
inline constexpr uint64_t kFenceCost = 10;

// Device service time for a random 256 B internal block write (per DIMM).
// 4 DIMMs / 62 ns => ~64 M blocks/s aggregate => ~60+ Mops of 64 B writes.
inline constexpr uint64_t kPmBlockService = 95;

// Service time when the written block immediately follows the previous
// block of an open write-combining stream (sequential locality).
inline constexpr uint64_t kPmSeqBlockService = 30;

// Service time when the flushed line lands in a 256 B block that is still
// open in the write-combining buffer (second..fourth line of a block).
inline constexpr uint64_t kPmCoalescedService = 8;

// Number of open-block entries in each DIMM's write-combining buffer and
// how long an entry stays open. Small on purpose: many concurrent writers
// thrash it, which is what makes sequential ≈ random at high thread counts.
inline constexpr int kPmWcEntries = 6;
inline constexpr uint64_t kPmWcWindow = 600;

// Penalty for re-flushing a cacheline within kPmInPlaceWindow of its last
// flush (paper §2.3 observation 2: ~800 ns).
inline constexpr uint64_t kPmInPlaceDelay = 800;
inline constexpr uint64_t kPmInPlaceWindow = 1000;

// PM read latency for a cacheline that misses the CPU cache (Optane media
// read), charged by engines when they chase pointers into PM.
inline constexpr uint64_t kPmReadLatency = 170;

// ---- NUMA / multi-socket ----------------------------------------------
//
// The paper's testbed is a 2-socket machine: each socket owns its own set
// of kPmDimms DIMMs (and its share of DRAM), and any access whose target
// lives on the *other* socket crosses the inter-socket link (UPI). The
// surcharges below are per-cacheline and land on top of the local cost:
// remote Optane loads measure ~1.7-2x local latency, remote stores pay
// the link plus the remote controller's write path.

// Upper bound on emulated sockets (sizes the device's DIMM array).
inline constexpr int kMaxSockets = 4;

// Extra latency of a cache-miss-class *load* (DRAM or PM) whose home
// socket differs from the executing core's.
inline constexpr uint64_t kRemoteSocketLoadPenalty = 110;

// Extra latency of a flush (clwb) targeting a cacheline owned by another
// socket: the line crosses the link before the remote controller accepts
// it into its ADR domain.
inline constexpr uint64_t kRemoteSocketPersistPenalty = 240;

// Media occupancy of one cacheline read (reads are ~2-3x cheaper than the
// 256 B write block service but share the DIMM bandwidth).
inline constexpr uint64_t kPmReadService = 25;

// ---- CPU --------------------------------------------------------------

// One DRAM cache miss (pointer chase into a cold node).
inline constexpr uint64_t kCpuCacheMiss = 40;

// One cache-hit memory access / slot probe within a fetched node.
inline constexpr uint64_t kCpuSlotProbe = 3;

// One 64-bit hash computation.
inline constexpr uint64_t kCpuHash = 12;

// One CAS / locked RMW on a shared line (uncontended).
inline constexpr uint64_t kCpuCas = 20;

// Cost of copying `len` bytes (fixed overhead + streaming bandwidth).
inline constexpr uint64_t CostMemcpy(uint64_t len) { return 8 + len / 16; }

// ---- Batched reads (MultiGet prefetch pipeline) -----------------------

// CPU cost of issuing one software prefetch: address computation plus the
// prefetch instruction itself; the line arrives asynchronously.
inline constexpr uint64_t kPrefetchIssueCost = 4;

// Demand misses one core can keep in flight when independent lookup
// chains are interleaved (line-fill buffers bound memory-level
// parallelism; ~10 on current x86, kept conservative).
inline constexpr int kMemParallelism = 8;

// Effective stall of one cache-miss-class access when `ways` independent
// prefetch-covered lookup chains are interleaved on the core: the miss
// latency is amortized across the overlapping chains, floored at the
// slot-probe cost of consuming a line that already arrived. ways <= 1
// (serial execution, or an un-prefetched probe) degenerates to the full
// latency, so single-request paths are charged exactly as before.
inline constexpr uint64_t OverlappedMissCost(int ways, uint64_t miss) {
  const int overlap =
      ways < 1 ? 1 : (ways > kMemParallelism ? kMemParallelism : ways);
  const uint64_t amortized = miss / static_cast<uint64_t>(overlap);
  return amortized > kCpuSlotProbe ? amortized : kCpuSlotProbe;
}

// ---- RPC / network (see net/) -----------------------------------------

// One-way network latency of an RDMA write message.
inline constexpr uint64_t kNetOneWay = 900;

// Client-side cost of posting one request (building payload + doorbell).
inline constexpr uint64_t kClientPostCost = 80;

// Server-core cost of polling + parsing one incoming message.
inline constexpr uint64_t kRpcProcessCost = 90;

// Cost of one empty poll sweep over the message buffers.
inline constexpr uint64_t kPollMissCost = 25;

// Posting a response verb via MMIO directly from the agent core.
inline constexpr uint64_t kMmioPostCost = 220;

// Appending a response verb to an already-open doorbell chain (RDMA
// doorbell batching: one MMIO write rings the doorbell for a chain of
// WQEs, so chained verbs pay only the WQE build — the chain head paid
// the MMIO / handoff).
inline constexpr uint64_t kDoorbellChainCost = 25;

// Handing a response verb to the agent core through shared memory
// (paper §4.3: verbs are a few bytes; the agent prefetches them).
inline constexpr uint64_t kDelegateHandoffCost = 60;

// Agent-core cost of forwarding one delegated verb (lower than a remote
// core's MMIO because the agent sits on the NIC's socket).
inline constexpr uint64_t kAgentMmioCost = 40;

// NIC QP-cache model: number of QPs that fit in NIC SRAM, and the extra
// per-message cost once the working set exceeds it (connection-state fetch
// over PCIe). This is what makes all-to-all QPs lose to FlatRPC.
inline constexpr int kNicQpCacheEntries = 96;
inline constexpr uint64_t kQpCacheMissCost = 450;

// ---- Retirement / reclamation (common/epoch.h) ------------------------

// Read-side cost of an epoch-protected log-entry dereference: one plain
// store into a core-local cacheline at pin and one at unpin, plus a
// global-epoch load that stays cache-resident (the cleaner writes it only
// a few times per pass). No RMW, no shared-line ping-pong.
inline constexpr uint64_t kEpochPinCost = 2 * kCpuSlotProbe;

// ---- Batching ---------------------------------------------------------

// Leader's cost to scan one sibling core's request pool while stealing
// (one cacheline read of the pool header).
inline constexpr uint64_t kStealScanCost = 10;

// Cost of enqueueing/claiming one entry in a request pool (pointer grab).
inline constexpr uint64_t kPoolOpCost = 4;

}  // namespace vt
}  // namespace flatstore

#endif  // FLATSTORE_VT_COSTS_H_
