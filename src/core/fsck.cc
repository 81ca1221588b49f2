#include "core/fsck.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "alloc/lazy_allocator.h"
#include "log/layout.h"
#include "log/log_entry.h"
#include "log/log_reader.h"
#include "log/oplog.h"

namespace flatstore {
namespace core {

namespace {

struct Checker {
  const pm::PmPool& pool;
  FsckReport report;

  void Fatal(std::string what) {
    report.ok = false;
    report.issues.push_back({true, std::move(what)});
  }
  void Warn(std::string what) {
    report.issues.push_back({false, std::move(what)});
  }
};

}  // namespace

std::string FsckReport::Summary() const {
  std::ostringstream out;
  out << (ok ? "OK" : "CORRUPT") << ": " << log_chunks << " log chunks, "
      << log_entries << " entries (" << tombstones << " tombstones), "
      << live_keys << " live keys, " << value_blocks << " value blocks, "
      << txn_commits << " txn commits, " << orphan_chains
      << " orphan chains, " << checkpoint_items << " checkpointed pairs";
  int fatals = 0, warns = 0;
  for (const FsckIssue& i : issues) (i.fatal ? fatals : warns)++;
  out << "; " << fatals << " errors, " << warns << " warnings";
  return out.str();
}

FsckReport FsckPool(const pm::PmPool& pool) {
  Checker c{pool, {}};
  auto* mutable_pool = const_cast<pm::PmPool*>(&pool);

  // --- superblock ---
  const auto* sb = mutable_pool->PtrAt<log::Superblock>(0);
  if (sb->magic != log::kSuperblockMagic) {
    c.Fatal("superblock magic mismatch (pool not formatted?)");
    return c.report;
  }
  if (sb->num_cores == 0 || sb->num_cores > log::kMaxCores) {
    c.Fatal("superblock num_cores out of range: " +
            std::to_string(sb->num_cores));
    return c.report;
  }
  if (sb->pool_size != pool.size()) {
    c.Warn("superblock pool_size " + std::to_string(sb->pool_size) +
           " != actual " + std::to_string(pool.size()));
  }
  const int cores = static_cast<int>(sb->num_cores);

  // --- tail records ---
  log::RootArea root(mutable_pool);
  std::vector<uint64_t> tails(static_cast<size_t>(cores));
  for (int core = 0; core < cores; core++) {
    // Slots that fail their check word are torn-write artifacts: benign
    // (ReadTail skips them and falls back to the previous record), but
    // worth surfacing.
    const log::CoreTailArea* area = root.tails(core);
    for (int s = 0; s < log::kTailSlots; s++) {
      const log::TailSlot& slot = area->lines[s].slot;
      if ((slot.seq != 0 || slot.tail != 0 || slot.check != 0) &&
          slot.check != log::TailCheck(slot.seq, slot.tail)) {
        c.Warn("core " + std::to_string(core) + " tail slot " +
               std::to_string(s) + " fails its check word (torn write)");
      }
    }
    uint64_t seq;
    tails[core] = root.ReadTail(core, &seq);
    if (tails[core] != 0 && tails[core] >= pool.size()) {
      c.Fatal("core " + std::to_string(core) + " tail beyond pool: " +
              std::to_string(tails[core]));
      tails[core] = 0;
    }
  }

  // --- chunk registry ---
  struct ChunkRec {
    uint64_t off;
    int core;
    uint32_t seq;
    bool cleaner;  // persisted kChunkCleaner flag (relocation chunk)
  };
  std::vector<ChunkRec> chunks;
  std::set<uint64_t> chunk_offs;
  std::map<uint64_t, bool> cleaner_chunks;  // chunk off -> cleaner flag
  const log::ChunkRecord* regs = root.registry();
  for (uint64_t s = 0; s < root.registry_slots(); s++) {
    if (regs[s].chunk_off == 0) continue;
    if (regs[s].chunk_off & log::kChunkProvisional) {
      // Crash mid-RegisterChunk: the slot was claimed but never committed
      // (its core/seq may be garbage). Recovery scrubs these on open.
      c.Warn("registry slot " + std::to_string(s) +
             " is provisional (crash during chunk registration)");
      continue;
    }
    const uint64_t off = regs[s].chunk_off & ~log::kChunkFlagsMask;
    const bool cleaner = (regs[s].chunk_off & log::kChunkCleaner) != 0;
    if (off % alloc::kChunkSize != 0 || off == 0 ||
        off + alloc::kChunkSize > pool.size()) {
      c.Fatal("registry slot " + std::to_string(s) +
              ": bad chunk offset " + std::to_string(off));
      continue;
    }
    if (regs[s].core >= sb->num_cores) {
      c.Fatal("registry slot " + std::to_string(s) + ": bad core " +
              std::to_string(regs[s].core));
      continue;
    }
    if (!chunk_offs.insert(off).second) {
      c.Fatal("chunk " + std::to_string(off) + " registered twice");
      continue;
    }
    const auto* ch = mutable_pool->PtrAt<alloc::ChunkHeader>(off);
    if (ch->magic != alloc::kChunkMagic) {
      c.Fatal("registered chunk " + std::to_string(off) +
              " has no allocator magic");
      continue;
    }
    if (ch->size_class != 0) {
      c.Warn("registered log chunk " + std::to_string(off) +
             " carries a value size class");
    }
    chunks.push_back({off, static_cast<int>(regs[s].core), regs[s].seq,
                      cleaner});
    cleaner_chunks[off] = cleaner;
  }
  c.report.log_chunks = chunks.size();

  // Per-core: sequences must be unique.
  {
    std::map<int, std::set<uint32_t>> seqs;
    for (const ChunkRec& r : chunks) {
      if (!seqs[r.core].insert(r.seq).second) {
        c.Fatal("core " + std::to_string(r.core) + " has two chunks with seq " +
                std::to_string(r.seq));
      }
    }
  }

  // Tail containment.
  for (int core = 0; core < cores; core++) {
    if (tails[core] == 0) continue;
    const uint64_t tail_chunk = AlignDown(tails[core], alloc::kChunkSize);
    bool found = false;
    for (const ChunkRec& r : chunks) {
      if (r.off == tail_chunk) {
        found = true;
        if (r.core != core) {
          c.Fatal("core " + std::to_string(core) +
                  " tail lies in a chunk registered to core " +
                  std::to_string(r.core));
        }
      }
    }
    if (!found) {
      c.Fatal("core " + std::to_string(core) +
              " tail points into an unregistered chunk");
    }
  }

  // --- walk every chunk; dry-run replay ---
  struct Winner {
    uint64_t off;
    uint32_t version;
    bool tombstone;
    uint64_t ptr;  // 0 for inline
  };
  std::unordered_map<uint64_t, Winner> replay;
  for (const ChunkRec& r : chunks) {
    const uint64_t committed =
        log::CommittedBytesAtRest(mutable_pool, r.off, tails[r.core]);
    if (committed > log::kLogDataBytes) {
      c.Fatal("chunk " + std::to_string(r.off) + " committed length " +
              std::to_string(committed) + " exceeds capacity");
      continue;
    }
    // Chain-aware walk (§5.3): txn members surface only behind a valid
    // commit record, exactly as recovery will replay them; chains without
    // one are counted and warned about below.
    // fs-lint: unpinned-read(offline pool; no serving thread or cleaner runs)
    // Nothing can retire the chunk mid-walk.
    log::ChainedChunkReader reader(mutable_pool, r.off, committed);
    log::DecodedEntry e;
    uint64_t off;
    uint64_t entries_here = 0;
    while (reader.Next(&e, &off)) {
      entries_here++;
      c.report.log_entries++;
      if (e.op == log::OpType::kTxnCommit) {
        // Commit records never join the replay map (their Key field is a
        // checksum, not a key).
        c.report.txn_commits++;
        continue;
      }
      if (e.op == log::OpType::kDelete) c.report.tombstones++;
      if (e.op == log::OpType::kPut && !e.embedded) {
        if (e.ptr == 0 || e.ptr + 8 > pool.size()) {
          c.Fatal("entry at " + std::to_string(off) +
                  " has out-of-pool value ptr " + std::to_string(e.ptr));
          continue;
        }
      }
      auto it = replay.find(e.key);
      if (it == replay.end() ||
          log::VersionNewer(e.version, it->second.version)) {
        replay[e.key] = {off, e.version, e.op == log::OpType::kDelete,
                         e.embedded ? 0 : e.ptr};
      } else if (it->second.version == e.version &&
                 it->second.off != off) {
        // Half-relocated-victim rule: a crash between a relocation
        // sub-batch's used_final commit and the victim's retirement
        // legally leaves the same version at two offsets — but only as
        // byte-identical copies, at least one of which sits in a chunk
        // carrying the persistent cleaner flag. Replay is idempotent
        // over such pairs (same key, version, and value).
        const auto* a =
            static_cast<const uint8_t*>(mutable_pool->At(it->second.off));
        const auto* b = static_cast<const uint8_t*>(mutable_pool->At(off));
        if (!std::equal(b, b + e.entry_len, a)) {
          c.Fatal("key " + std::to_string(e.key) +
                  ": two different entries share version " +
                  std::to_string(e.version));
        } else {
          const uint64_t other_chunk =
              AlignDown(it->second.off, alloc::kChunkSize);
          const bool other_cleaner = cleaner_chunks.count(other_chunk) != 0 &&
                                     cleaner_chunks[other_chunk];
          if (!r.cleaner && !other_cleaner) {
            c.Warn("key " + std::to_string(e.key) + " version " +
                   std::to_string(e.version) +
                   " duplicated outside any cleaner-flagged chunk");
          }
        }
      }
    }
    if (reader.position() < committed &&
        reader.position() + kCachelineSize <= committed) {
      c.Warn("chunk " + std::to_string(r.off) + " scan stopped " +
             std::to_string(committed - reader.position()) +
             " bytes before its committed length");
    }
    if (reader.orphan_chains() > 0) {
      // Benign (recovery drops them: a torn or aborted txn "never
      // happened") but worth surfacing — it marks how close a crash came
      // to the commit point.
      c.Warn("chunk " + std::to_string(r.off) + " has " +
             std::to_string(reader.orphan_chains()) +
             " txn chain(s) without a valid commit record (" +
             std::to_string(reader.dropped_entries()) +
             " entries dropped as never-committed)");
      c.report.orphan_chains += reader.orphan_chains();
      c.report.orphan_entries += reader.dropped_entries();
    }
    (void)entries_here;
  }

  // Winning value blocks: bounds + overlap.
  std::map<uint64_t, uint64_t> blocks;  // off -> len
  for (const auto& [key, w] : replay) {
    if (w.tombstone) continue;
    c.report.live_keys++;
    if (w.ptr == 0) continue;
    c.report.value_blocks++;
    const uint64_t len = log::ValueBlockLen(mutable_pool->At(w.ptr));
    if (len > alloc::kChunkSize) {
      c.Fatal("value block at " + std::to_string(w.ptr) +
              " claims absurd length " + std::to_string(len));
      continue;
    }
    auto [it, fresh] = blocks.emplace(w.ptr, log::ValueBlockSize(len));
    if (!fresh) {
      c.Fatal("two live keys share value block " + std::to_string(w.ptr));
    }
  }
  uint64_t prev_end = 0;
  for (const auto& [off, len] : blocks) {
    if (off < prev_end) {
      c.Fatal("value blocks overlap at " + std::to_string(off));
    }
    prev_end = off + len;
  }

  // --- checkpoint chain ---
  if (sb->clean_shutdown != 0) {
    uint64_t chunk = sb->checkpoint_off;
    uint64_t items = 0;
    std::set<uint64_t> seen;
    while (chunk != 0) {
      if (chunk % alloc::kChunkSize != 0 ||
          chunk + alloc::kChunkSize > pool.size() ||
          !seen.insert(chunk).second) {
        c.Fatal("checkpoint chain broken at " + std::to_string(chunk));
        break;
      }
      const log::CheckpointHeader* hdr =
          log::CheckpointAt(mutable_pool, chunk);
      items += hdr->count;
      chunk = hdr->next;
    }
    if (chunk == 0 && items != sb->checkpoint_items) {
      c.Fatal("checkpoint pair count " + std::to_string(items) +
              " != superblock " + std::to_string(sb->checkpoint_items));
    }
    c.report.checkpoint_items = items;
  }

  return c.report;
}

}  // namespace core
}  // namespace flatstore
