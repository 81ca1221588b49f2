#include "pm/pm_pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>

namespace flatstore {
namespace pm {

const char* PmPool::CrashModeName(CrashMode mode) {
  switch (mode) {
    case CrashMode::kClean:
      return "clean";
    case CrashMode::kTorn:
      return "torn";
    case CrashMode::kUnordered:
      return "unordered";
    case CrashMode::kEviction:
      return "eviction";
  }
  return "?";
}

PmPool::PmPool(const Options& options)
    : size_(AlignUp(options.size, 4ull << 20)),
      num_sockets_(options.num_sockets),
      device_(options.device) {
  FLATSTORE_CHECK(num_sockets_ >= 1 && num_sockets_ <= vt::kMaxSockets);
  if (device_ != nullptr) {
    FLATSTORE_CHECK_GE(device_->num_sockets(), num_sockets_)
        << "pool spans more sockets than the device models";
  }
  socket_span_ =
      AlignUp(size_ / static_cast<uint64_t>(num_sockets_), 4ull << 20);
  mem_ = MapZeroed(size_);
  if (options.crash_tracking) {
    shadow_ = MapZeroed(size_);
    const uint64_t words = (size_ / kPageSize + 63) / 64;
    shadow_pages_ = std::make_unique<std::atomic<uint64_t>[]>(words);
  }
}

PmPool::Mapping PmPool::MapZeroed(uint64_t size) {
  // MAP_NORESERVE: like a DAX namespace, a large pool commits nothing
  // until its pages are touched.
  void* p = mmap(nullptr, size + kPageSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  FLATSTORE_CHECK(p != MAP_FAILED) << "mmap of a " << size << "-byte pool";
  char* base = static_cast<char*>(p);
  FLATSTORE_CHECK(mprotect(base + size, kPageSize, PROT_NONE) == 0);
  return Mapping(base, Unmapper{size + kPageSize});
}

void PmPool::Unmapper::operator()(char* p) const { munmap(p, size); }

void PmPool::Zero(uint64_t off, uint64_t len) {
  FLATSTORE_CHECK_LE(off + len, size_);
  const uint64_t end = off + len;
  const uint64_t first = AlignUp(off, kPageSize);
  const uint64_t last = AlignDown(end, kPageSize);
  if (first >= last) {
    std::memset(mem_.get() + off, 0, len);
    return;
  }
  std::memset(mem_.get() + off, 0, first - off);
  // A private anonymous page dropped with MADV_DONTNEED reads back zero.
  FLATSTORE_CHECK(madvise(mem_.get() + first, last - first, MADV_DONTNEED) ==
                  0);
  std::memset(mem_.get() + last, 0, end - last);
}

void PmPool::MarkShadowPage(uint64_t off) {
  const uint64_t page = off / kPageSize;
  std::atomic<uint64_t>& word = shadow_pages_[page / 64];
  const uint64_t bit = 1ull << (page % 64);
  // relaxed: SimulateCrash reads the bitmap with the pool quiesced (the
  // caller's contract), so the flushing threads are already joined. The
  // load skips the read-modify-write once the page is marked.
  if ((word.load(std::memory_order_relaxed) & bit) == 0) {
    word.fetch_or(bit, std::memory_order_relaxed);
  }
}

void PmPool::CopyLineToShadow(uint64_t off, const void* src) {
  MarkShadowPage(off);
  std::memcpy(shadow_.get() + off, src, kCachelineSize);
}

void PmPool::Persist(const void* p, uint64_t len) {
  if (len == 0) return;
  const uint64_t begin = OffsetOf(p);
  const uint64_t first = CachelineAlignDown(begin);
  const uint64_t last = CachelineAlignDown(begin + len - 1);
  const uint64_t lines = (last - first) / kCachelineSize + 1;
  stats_.AddPersist(lines, len);

  vt::Clock* clock = vt::CurrentClock();
  for (uint64_t off = first; off <= last; off += kCachelineSize) {
    // Crash model: the line reaches the durable image only while the
    // flush budget lasts, subject to the active crash mode.
    if (shadow_) CrashTrackLine(off);
    // Timing model.
    if (clock != nullptr) {
      clock->Advance(vt::kClwbIssueCost);
      if (device_ != nullptr) {
        const int socket = SocketOf(off);
        uint64_t issue = clock->now();
        // A flush targeting another socket's DIMMs crosses the
        // inter-socket link before the remote controller accepts it.
        if (num_sockets_ > 1 && socket != clock->socket()) {
          issue += vt::kRemoteSocketPersistPenalty;
        }
        uint64_t completion = device_->FlushLine(off, issue, socket);
        clock->RaisePendingFence(completion + vt::kPmFlushLatency);
      }
    }
  }
}

void PmPool::CrashTrackLine(uint64_t off) {
  bool durable = true;
  bool exhausted_now = false;
  // relaxed: the budget is a test-only flush counter; the CAS below only
  // needs atomicity, not ordering with the data being flushed.
  int64_t b = flush_budget_.load(std::memory_order_relaxed);
  if (b >= 0) {
    while (b > 0 && !flush_budget_.compare_exchange_weak(
                        b, b - 1, std::memory_order_relaxed)) {
    }
    durable = b > 0;
    // This flush took the budget from 1 to 0: it is the line the power
    // cut catches, and the point where mode-specific damage resolves.
    exhausted_now = (b == 1);
  }
  switch (crash_mode_) {
    case CrashMode::kClean:
      if (durable) CopyLineToShadow(off, mem_.get() + off);
      break;
    case CrashMode::kTorn:
      if (durable) {
        if (exhausted_now) {
          TearLineIntoShadow(off);
        } else {
          CopyLineToShadow(off, mem_.get() + off);
        }
      }
      break;
    case CrashMode::kUnordered:
      if (durable) {
        LockGuard<SpinLock> g(pending_lock_);
        PendingLine& pl = pending_.emplace_back();
        pl.off = off;
        std::memcpy(pl.data, mem_.get() + off, kCachelineSize);
        if (exhausted_now) ResolvePendingAtLossLocked();
      }
      break;
    case CrashMode::kEviction:
      if (durable) CopyLineToShadow(off, mem_.get() + off);
      if (exhausted_now) ResolveEviction();
      break;
  }
  if (exhausted_now) loss_resolved_ = true;
}

uint64_t PmPool::NextCrashRand() {
  // splitmix64 — cheap, and a (mode, seed) pair fully determines every
  // draw, which is what makes explorer repro lines deterministic.
  uint64_t z = (crash_rng_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void PmPool::TearLineIntoShadow(uint64_t off) {
  constexpr int kWords = kCachelineSize / 8;
  const char* src = mem_.get() + off;
  char* dst = shadow_.get() + off;
  MarkShadowPage(off);
  const uint64_t r = NextCrashRand();
  if (r & 1) {
    // Aligned prefix of 0..8 words — the common store-buffer drain shape.
    const uint64_t words = (r >> 1) % (kWords + 1);
    std::memcpy(dst, src, words * 8);
  } else {
    // Arbitrary 8-byte-word subset of the line.
    const uint64_t mask = (r >> 1) & 0xFF;
    for (int w = 0; w < kWords; w++) {
      if (mask & (1ull << w)) std::memcpy(dst + w * 8, src + w * 8, 8);
    }
  }
}

void PmPool::CommitPendingLocked() {
  for (const PendingLine& pl : pending_) CopyLineToShadow(pl.off, pl.data);
  pending_.clear();
}

void PmPool::ResolvePendingAtLossLocked() {
  // The cut landed between a Persist and its Fence: each in-flight line
  // independently may or may not have drained, still in issue order.
  for (const PendingLine& pl : pending_) {
    if (NextCrashRand() & 1) CopyLineToShadow(pl.off, pl.data);
  }
  pending_.clear();
}

void PmPool::ResolveEviction() {
  // Every line whose live content was never flushed may persist anyway.
  // The RNG is consumed only for dirty lines, so the draw sequence depends
  // only on the dirty set — deterministic for a deterministic workload.
  // A page that is zero in both images holds no dirty line, so only pages
  // touched in the live image or marked in the shadow are compared: the
  // draws are the full scan's without faulting in the untouched rest.
  const std::vector<bool> live = LivePagesTouched();
  for (uint64_t page = 0; page < size_ / kPageSize; page++) {
    if (!live[page] && !ShadowPageMarked(page)) continue;
    const uint64_t end = (page + 1) * kPageSize;
    for (uint64_t off = page * kPageSize; off < end; off += kCachelineSize) {
      const char* m = mem_.get() + off;
      if (std::memcmp(m, shadow_.get() + off, kCachelineSize) != 0 &&
          (NextCrashRand() & 1)) {
        CopyLineToShadow(off, m);
      }
    }
  }
  loss_resolved_ = true;
}

std::vector<bool> PmPool::LivePagesTouched() const {
  const uint64_t pages = size_ / kPageSize;
  std::vector<bool> touched(pages, true);
  const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return touched;
  // One 64-bit entry per virtual page: bit 63 = present, bit 62 = swapped.
  const uint64_t first = reinterpret_cast<uintptr_t>(mem_.get()) / kPageSize;
  uint64_t entries[512] = {};
  for (uint64_t p = 0; p < pages; p += 512) {
    const uint64_t n = std::min<uint64_t>(512, pages - p);
    const auto bytes = static_cast<ssize_t>(n * sizeof(uint64_t));
    if (pread(fd, entries, static_cast<size_t>(bytes),
              static_cast<off_t>((first + p) * sizeof(uint64_t))) != bytes) {
      break;  // the rest stays "touched": compared in full
    }
    for (uint64_t i = 0; i < n; i++) touched[p + i] = (entries[i] >> 62) != 0;
  }
  close(fd);
  return touched;
}

void PmPool::ChargeRead(const void* p, uint64_t len) {
  vt::Clock* clock = vt::CurrentClock();
  if (clock == nullptr) return;
  clock->AdvanceTo(ChargeReadAt(p, len, clock->now()));
}

uint64_t PmPool::ChargeReadAt(const void* p, uint64_t len,
                              uint64_t issue_time) {
  const uint64_t begin = OffsetOf(p);
  const int socket = SocketOf(begin);
  // A load homed on another socket pays the link round trip on top of the
  // media read; the lines of one call pipeline, so the surcharge applies
  // once per dereference, not per line.
  const uint64_t surcharge =
      (num_sockets_ > 1 && socket != vt::CurrentSocket())
          ? vt::kRemoteSocketLoadPenalty
          : 0;
  const uint64_t span = len == 0 ? 1 : CachelineSpan(begin, len);
  stats_.AddRead(span);
  if (device_ == nullptr) {
    return issue_time + vt::kPmReadLatency + surcharge;
  }
  // Streaming reads pipeline beyond one block.
  const uint64_t lines = std::min<uint64_t>(span, 4);
  uint64_t completion = issue_time;
  for (uint64_t i = 0; i < lines; i++) {
    completion = device_->ReadLine(CachelineAlignDown(begin) +
                                       i * kCachelineSize,
                                   issue_time, socket);
  }
  return completion + surcharge;
}

void PmPool::Fence() {
  stats_.AddFence();
  if (shadow_ && crash_mode_ == CrashMode::kUnordered) {
    LockGuard<SpinLock> g(pending_lock_);
    CommitPendingLocked();
  }
  if (vt::Clock* clock = vt::CurrentClock()) {
    clock->AdvanceTo(clock->pending_fence());
    clock->ClearPendingFence();
    clock->Advance(vt::kFenceCost);
  }
}

void PmPool::SetCrashMode(CrashMode mode, uint64_t seed) {
  FLATSTORE_CHECK(shadow_ != nullptr) << "crash modes require crash_tracking";
  crash_mode_ = mode;
  // Decorrelate nearby seeds; seed 0 is as good as any other.
  crash_rng_ = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  loss_resolved_ = false;
  LockGuard<SpinLock> g(pending_lock_);
  pending_.clear();
}

void PmPool::SimulateCrash() {
  FLATSTORE_CHECK(shadow_ != nullptr)
      << "SimulateCrash requires crash_tracking";
  // If the power cut is this crash itself (budget never exhausted),
  // resolve in-flight adversarial state as of this instant: unfenced
  // flushes may drain in any subset, dirty lines may evict.
  if (!loss_resolved_) {
    if (crash_mode_ == CrashMode::kUnordered) {
      LockGuard<SpinLock> g(pending_lock_);
      ResolvePendingAtLossLocked();
    } else if (crash_mode_ == CrashMode::kEviction) {
      ResolveEviction();
    }
  }
  {
    LockGuard<SpinLock> g(pending_lock_);
    pending_.clear();
  }
  // Every live page drops to zero, then the shadow pages ever written
  // are copied back; an unmarked shadow page is still all zero.
  FLATSTORE_CHECK(madvise(mem_.get(), size_, MADV_DONTNEED) == 0);
  for (uint64_t page = 0; page < size_ / kPageSize; page++) {
    if (!ShadowPageMarked(page)) continue;
    const uint64_t off = page * kPageSize;
    std::memcpy(mem_.get() + off, shadow_.get() + off, kPageSize);
  }
  // relaxed: re-arming the test budget; no ordering required.
  flush_budget_.store(-1, std::memory_order_relaxed);
  loss_resolved_ = false;
}

}  // namespace pm
}  // namespace flatstore
