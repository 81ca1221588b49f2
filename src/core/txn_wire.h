// Wire codec for the FlatRPC transaction op (§5.3).
//
// A kTxn request packs its operations into Request::value:
//
//   u8 count
//   per op:
//     u8  kind   (0 = put, 1 = delete, 2 = cas)
//     u8  flags  (bit 0: the CAS expects the key absent)
//     u64 key    (little-endian)
//     put/cas:                    u32 len          + len value bytes
//     cas with expected present:  u32 expected_len + expected bytes
//
// kRmw has no wire form (callbacks cannot be serialized); clients run
// read-modify-write as a Get followed by a CAS txn.
//
// A decoded txn is a write batch with the chain flag: FlatStore::BeginTxn
// stages it through the write batch's staging routine on the core its
// members route to. Every member must route to the core the request
// reached; the server answers any other txn kUnsupported without
// submitting it.
//
// Decoded TxnOps point INTO the wire buffer — they stay valid only while
// the message buffer does. BeginTxn copies every member byte into the
// staged chain (and every CAS compare happens) before it returns, so
// submitting straight off the ring is safe.

#ifndef FLATSTORE_CORE_TXN_WIRE_H_
#define FLATSTORE_CORE_TXN_WIRE_H_

#include <cstdint>
#include <cstring>

#include "core/flatstore.h"

namespace flatstore {
namespace core {

namespace txn_wire_internal {

inline bool PutBytes(uint8_t* buf, uint32_t cap, uint32_t* pos,
                     const void* src, uint32_t n) {
  if (static_cast<uint64_t>(*pos) + n > cap) return false;
  std::memcpy(buf + *pos, src, n);
  *pos += n;
  return true;
}

}  // namespace txn_wire_internal

// Encodes `ops` into `buf` (capacity `cap`). Returns the encoded length,
// or 0 when the ops do not fit or an op has no wire form (kRmw).
inline uint32_t EncodeTxnOps(uint8_t* buf, uint32_t cap, const TxnOp* ops,
                             size_t n) {
  if (n > 255 || cap < 1) return 0;
  uint32_t pos = 0;
  buf[pos++] = static_cast<uint8_t>(n);
  for (size_t i = 0; i < n; i++) {
    const TxnOp& op = ops[i];
    uint8_t kind;
    switch (op.kind) {
      case TxnOpKind::kPut:
        kind = 0;
        break;
      case TxnOpKind::kDelete:
        kind = 1;
        break;
      case TxnOpKind::kCas:
        kind = 2;
        break;
      default:
        return 0;  // kRmw: no wire form
    }
    const bool expect_absent =
        op.kind == TxnOpKind::kCas && op.expected == nullptr;
    uint8_t hdr[10];
    hdr[0] = kind;
    hdr[1] = expect_absent ? 1 : 0;
    std::memcpy(hdr + 2, &op.key, 8);
    if (!txn_wire_internal::PutBytes(buf, cap, &pos, hdr, 10)) return 0;
    if (op.kind != TxnOpKind::kDelete) {
      if (!txn_wire_internal::PutBytes(buf, cap, &pos, &op.len, 4)) return 0;
      if (!txn_wire_internal::PutBytes(buf, cap, &pos, op.value, op.len)) {
        return 0;
      }
    }
    if (op.kind == TxnOpKind::kCas && !expect_absent) {
      if (!txn_wire_internal::PutBytes(buf, cap, &pos, &op.expected_len, 4)) {
        return 0;
      }
      if (!txn_wire_internal::PutBytes(buf, cap, &pos, op.expected,
                                       op.expected_len)) {
        return 0;
      }
    }
  }
  return pos;
}

// Decodes a wire txn of `len` bytes into `ops` (at most `cap` of them);
// `*n` receives the op count. Value/expected pointers alias `buf`.
// Returns false on any malformed, truncated, or overlong input.
inline bool DecodeTxnOps(const uint8_t* buf, uint32_t len, TxnOp* ops,
                         size_t cap, size_t* n) {
  if (len < 1) return false;
  uint32_t pos = 0;
  const size_t count = buf[pos++];
  if (count > cap) return false;
  for (size_t i = 0; i < count; i++) {
    if (static_cast<uint64_t>(pos) + 10 > len) return false;
    TxnOp& op = ops[i];
    op = TxnOp{};
    const uint8_t kind = buf[pos];
    const uint8_t flags = buf[pos + 1];
    std::memcpy(&op.key, buf + pos + 2, 8);
    pos += 10;
    switch (kind) {
      case 0:
        op.kind = TxnOpKind::kPut;
        break;
      case 1:
        op.kind = TxnOpKind::kDelete;
        break;
      case 2:
        op.kind = TxnOpKind::kCas;
        break;
      default:
        return false;
    }
    if (op.kind != TxnOpKind::kDelete) {
      if (static_cast<uint64_t>(pos) + 4 > len) return false;
      std::memcpy(&op.len, buf + pos, 4);
      pos += 4;
      if (op.len == 0 || static_cast<uint64_t>(pos) + op.len > len) {
        return false;
      }
      op.value = buf + pos;
      pos += op.len;
    }
    if (op.kind == TxnOpKind::kCas && (flags & 1) == 0) {
      if (static_cast<uint64_t>(pos) + 4 > len) return false;
      std::memcpy(&op.expected_len, buf + pos, 4);
      pos += 4;
      if (static_cast<uint64_t>(pos) + op.expected_len > len) return false;
      op.expected = buf + pos;
      pos += op.expected_len;
    }
  }
  *n = count;
  return pos == len;
}

}  // namespace core
}  // namespace flatstore

#endif  // FLATSTORE_CORE_TXN_WIRE_H_
