// Compacted log-entry format (paper Fig. 3).
//
// Two encodings, bit-for-bit as the figure lays them out:
//
//   ptr-based   (16 B): Op[0:2) Emd[2:4) Version[4:24) Key[24:88) Ptr[88:128)
//   value-based (12+v): Op[0:2) Emd[2:4) Version[4:24) Key[24:88) Size[88:96)
//                       Value[96 : 96+8v)
//
// * Version is the 20-bit per-key version used by log cleaning to decide
//   entry liveness (§3.4) and by recovery to order duplicates (§3.5).
// * Ptr is 40 bits with the low 8 address bits dismissed — the allocator
//   only hands out 256 B-aligned blocks — so 48-bit offsets fit ("40+8
//   bits of pointers are capable of indexing 128 TB of NVM space").
// * Size stores (length - 1), covering inline values of 1..256 B.
// * Delete entries are tombstones; their Ptr field carries the sequence
//   number of the log chunk that held the overwritten version, which is
//   what lets the cleaner decide when the tombstone itself may die.
//
// Transactions reuse the same two encodings plus a third 16 B record:
//
// * A *chain member* is an ordinary Put/Delete entry with bit 3 of the
//   header set (the bit between Emd[2] and Version[4:24), unused by the
//   base format). Members of one transaction are laid out back-to-back.
// * A *commit record* (Op = 3) terminates a chain: its Version field
//   carries the member count, its Key field a 64-bit XXH64 checksum over
//   the chain's raw bytes, and its Ptr field the chain's byte length —
//   enough for replay to locate, bound, and verify the chain it commits.
//   A chain whose commit record is missing or fails verification never
//   happened: recovery drops every member (all-or-nothing).
//
// The 64-bit *packed index value* {entry offset : 44, version : 20} stored
// in the volatile index, and the out-of-log value block a ptr-based entry
// points at, are also defined here.

#ifndef FLATSTORE_LOG_LOG_ENTRY_H_
#define FLATSTORE_LOG_LOG_ENTRY_H_

#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace flatstore {
namespace log {

// Operation type; 0 is deliberately invalid so zero-filled PM never
// decodes as an entry.
enum class OpType : uint8_t {
  kInvalid = 0,
  kPut = 1,
  kDelete = 2,
  kTxnCommit = 3,  // transaction commit record (chain terminator)
};

inline constexpr uint32_t kVersionBits = 20;
inline constexpr uint32_t kVersionMask = (1u << kVersionBits) - 1;

// Wrap-aware version order: `a` strictly newer than `b`.
inline constexpr bool VersionNewer(uint32_t a, uint32_t b) {
  const uint32_t d = (a - b) & kVersionMask;
  return d != 0 && d < (1u << (kVersionBits - 1));
}

inline constexpr uint32_t kPtrEntrySize = 16;
inline constexpr uint32_t kValueEntryHeader = 12;
// Values up to this size are embedded in the log entry (paper: 256 B,
// "enough to saturate the bandwidth of Optane DCPMM").
inline constexpr uint32_t kMaxInlineValue = 256;

// Largest possible encoded entry.
inline constexpr uint32_t kMaxEntrySize = kValueEntryHeader + kMaxInlineValue;

// Header bit marking a Put/Delete as a transaction-chain member (bit 3,
// unused by the base format: Op[0:2) Emd[2] <here> Version[4:24)).
inline constexpr uint32_t kTxnMemberBit = 1u << 3;

// Upper bound on chain members a reader will buffer; chains are staged as
// one fused HB group, so batch::HbEngine::kMaxBatch (64) bounds them.
inline constexpr uint32_t kMaxTxnChain = 64;

// A decoded view of one entry (value pointer aliases the log memory).
struct DecodedEntry {
  OpType op = OpType::kInvalid;
  bool embedded = false;
  bool txn = false;            // transaction-chain member flag
  uint32_t version = 0;        // kTxnCommit: chain member count
  uint64_t key = 0;            // kTxnCommit: chain checksum (XXH64)
  uint64_t ptr = 0;            // ptr-based Put: block pool offset;
                               // Delete: covered chunk sequence;
                               // kTxnCommit: chain byte length
  const uint8_t* value = nullptr;  // embedded Put only
  uint32_t value_len = 0;
  uint32_t entry_len = 0;
};

namespace entry_internal {

inline void PutHeader(uint8_t* dst, OpType op, bool emd, uint32_t version,
                      uint64_t key) {
  const uint32_t h = static_cast<uint32_t>(op) |
                     (emd ? 1u << 2 : 0u) | ((version & kVersionMask) << 4);
  dst[0] = static_cast<uint8_t>(h);
  dst[1] = static_cast<uint8_t>(h >> 8);
  dst[2] = static_cast<uint8_t>(h >> 16);
  std::memcpy(dst + 3, &key, 8);
}

inline void Put40(uint8_t* dst, uint64_t v) {
  for (int i = 0; i < 5; i++) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint64_t Get40(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 5; i++) v |= static_cast<uint64_t>(src[i]) << (8 * i);
  return v;
}

}  // namespace entry_internal

// Size of the encoding chosen for a Put of `value_len` bytes.
inline uint32_t PutEntrySize(uint32_t value_len) {
  return (value_len > 0 && value_len <= kMaxInlineValue)
             ? kValueEntryHeader + value_len
             : kPtrEntrySize;
}

// Encodes a ptr-based Put (value stored out of log at `block_off`, which
// must be 256 B aligned). Returns the entry length (16).
inline uint32_t EncodePutPtr(uint8_t* dst, uint64_t key, uint32_t version,
                             uint64_t block_off) {
  FLATSTORE_DCHECK((block_off & 0xFF) == 0);
  entry_internal::PutHeader(dst, OpType::kPut, /*emd=*/false, version, key);
  entry_internal::Put40(dst + 11, block_off >> 8);
  return kPtrEntrySize;
}

// Encodes a value-based Put with the value embedded (1..256 B).
inline uint32_t EncodePutValue(uint8_t* dst, uint64_t key, uint32_t version,
                               const void* value, uint32_t value_len) {
  FLATSTORE_DCHECK(value_len >= 1 && value_len <= kMaxInlineValue);
  entry_internal::PutHeader(dst, OpType::kPut, /*emd=*/true, version, key);
  dst[11] = static_cast<uint8_t>(value_len - 1);
  std::memcpy(dst + 12, value, value_len);
  return kValueEntryHeader + value_len;
}

// Encodes a Delete tombstone. `covered_seq` is the chunk sequence holding
// the version this delete overwrites (0 if the key only ever lived here).
inline uint32_t EncodeDelete(uint8_t* dst, uint64_t key, uint32_t version,
                             uint64_t covered_seq) {
  entry_internal::PutHeader(dst, OpType::kDelete, /*emd=*/false, version, key);
  entry_internal::Put40(dst + 11, covered_seq);
  return kPtrEntrySize;
}

// Flags an already-encoded Put/Delete as a transaction-chain member.
inline void MarkTxnMember(uint8_t* entry) {
  entry[0] = static_cast<uint8_t>(entry[0] | kTxnMemberBit);
}

// Encodes a transaction commit record: `members` chain entries totalling
// `chain_bytes`, laid out immediately before this record, with `checksum`
// = Hash64 over those bytes. Returns the entry length (16).
inline uint32_t EncodeTxnCommit(uint8_t* dst, uint32_t members,
                                uint64_t chain_bytes, uint64_t checksum) {
  FLATSTORE_DCHECK(members >= 1 && members <= kMaxTxnChain);
  entry_internal::PutHeader(dst, OpType::kTxnCommit, /*emd=*/false, members,
                            checksum);
  entry_internal::Put40(dst + 11, chain_bytes);
  return kPtrEntrySize;
}

// Decodes the entry at `src` (at most `max_len` readable bytes). Returns
// false for invalid/truncated bytes (zero-filled tail of a chunk).
inline bool DecodeEntry(const uint8_t* src, uint64_t max_len,
                        DecodedEntry* out) {
  // The shortest legal entry is a value-based Put of 1 byte (13 bytes);
  // a ptr-based entry needs 16. Check the common 12-byte prefix first.
  if (max_len < kValueEntryHeader) return false;
  const uint32_t h = static_cast<uint32_t>(src[0]) |
                     (static_cast<uint32_t>(src[1]) << 8) |
                     (static_cast<uint32_t>(src[2]) << 16);
  const auto op = static_cast<OpType>(h & 0x3);
  if (op == OpType::kInvalid) return false;
  out->op = op;
  out->embedded = op != OpType::kTxnCommit && ((h >> 2) & 1);
  out->txn = (h & kTxnMemberBit) != 0;
  out->version = h >> 4;
  std::memcpy(&out->key, src + 3, 8);
  if (out->embedded) {
    const uint32_t vlen = static_cast<uint32_t>(src[11]) + 1;
    if (kValueEntryHeader + vlen > max_len) return false;
    out->value = src + 12;
    out->value_len = vlen;
    out->ptr = 0;
    out->entry_len = kValueEntryHeader + vlen;
  } else {
    if (max_len < kPtrEntrySize) return false;
    out->ptr = entry_internal::Get40(src + 11);
    if (out->op == OpType::kPut) out->ptr <<= 8;
    out->value = nullptr;
    out->value_len = 0;
    out->entry_len = kPtrEntrySize;
  }
  return true;
}

// ---- packed index value {offset:44, version:20} ------------------------

inline constexpr uint64_t PackIndexValue(uint64_t entry_off,
                                         uint32_t version) {
  return (entry_off << kVersionBits) | (version & kVersionMask);
}
inline constexpr uint64_t UnpackOffset(uint64_t packed) {
  return packed >> kVersionBits;
}
inline constexpr uint32_t UnpackVersion(uint64_t packed) {
  return static_cast<uint32_t>(packed & kVersionMask);
}

// ---- out-of-log value blocks [u64 len][len bytes] ----------------------
//
// A value too long to embed (and every value of the baseline stores)
// lives in an allocator block: its length word, then its bytes. Callers
// persist and charge the bytes they copy.

inline constexpr uint64_t kValueBlockHeader = 8;

// Bytes a block holding a `len`-byte value occupies.
inline constexpr uint64_t ValueBlockSize(uint64_t len) {
  return kValueBlockHeader + len;
}

// Writes the block for `value` (`len` bytes) at `dst`.
inline void EncodeValueBlock(void* dst, const void* value, uint64_t len) {
  std::memcpy(dst, &len, sizeof(len));
  std::memcpy(static_cast<char*>(dst) + kValueBlockHeader, value, len);
}

// Value length recorded by the block at `block`.
inline uint64_t ValueBlockLen(const void* block) {
  uint64_t len;
  std::memcpy(&len, block, sizeof(len));
  return len;
}

// First value byte of the block at `block`.
inline const char* ValueBlockData(const void* block) {
  return static_cast<const char*>(block) + kValueBlockHeader;
}

}  // namespace log
}  // namespace flatstore

#endif  // FLATSTORE_LOG_LOG_ENTRY_H_
