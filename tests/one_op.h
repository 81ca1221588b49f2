// Single-op helpers for tests of the asynchronous engine protocol. The
// engine has one write path and one read path, both batched: a single
// write is a one-op FlatStore::BeginWriteBatch and a single read a
// one-key MultiGetOnCore, which is exactly what the synchronous
// Put/Get/Delete and the server's per-request schedule issue.

#ifndef FLATSTORE_TESTS_ONE_OP_H_
#define FLATSTORE_TESTS_ONE_OP_H_

#include <string>
#include <string_view>

#include "core/flatstore.h"

namespace flatstore {
namespace one_op {

// Stages (l-persists) one Put on `core` without draining it.
inline core::OpStatus StagePut(core::FlatStore* store, int core, uint64_t key,
                               std::string_view value,
                               core::FlatStore::OpHandle* handle = nullptr) {
  const core::WriteOp op{key, value.data(),
                         static_cast<uint32_t>(value.size())};
  core::FlatStore::OpHandle h;
  core::OpStatus st;
  store->BeginWriteBatch(core, &op, 1, handle != nullptr ? handle : &h, &st);
  return st;
}

// Stages one Delete on `core`; kNotFound if the key is absent.
inline core::OpStatus StageDelete(core::FlatStore* store, int core,
                                  uint64_t key) {
  const core::WriteOp op{key, nullptr, 0, /*tombstone=*/true};
  core::FlatStore::OpHandle h;
  core::OpStatus st;
  store->BeginWriteBatch(core, &op, 1, &h, &st);
  return st;
}

// Reads one key on `core` into `*value` (cleared unless found).
inline core::GetResult ReadOne(core::FlatStore* store, int core, uint64_t key,
                               std::string* value) {
  core::ReadResult r;
  store->MultiGetOnCore(core, &key, 1, &r);
  *value = std::move(r.value);
  return r.status;
}

}  // namespace one_op
}  // namespace flatstore

#endif  // FLATSTORE_TESTS_ONE_OP_H_
