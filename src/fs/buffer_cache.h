// The server file cache: fixed-size blocks of kernel memory fronting the
// disk, LRU replacement, write-back of dirty blocks, and hooks that tell the
// ODAFS server when a block's memory is about to be reused — the event that
// must revoke exported memory references (§4.2: "invalid ORDMAs are caught
// at the server NIC").
//
// Cache blocks live at stable kernel virtual addresses holding real bytes;
// the NIC exports/DMAs these pages directly.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/intrusive_list.h"
#include "common/result.h"
#include "fs/disk.h"
#include "host/host.h"
#include "sim/task.h"

namespace ordma::fs {

using Ino = std::uint64_t;

struct CacheKey {
  Ino ino = 0;
  std::uint64_t fbn = 0;  // file block number
  bool operator==(const CacheKey&) const = default;
};
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return std::hash<std::uint64_t>()(k.ino * 0x9E3779B97F4A7C15ull ^ k.fbn);
  }
};

struct CacheBlock : ListNode {
  CacheKey key;
  mem::Vaddr va = 0;        // stable kernel address of the block's memory
  BlockNo disk_block = 0;   // backing location
  bool valid = false;
  bool dirty = false;
  int pin = 0;              // held by in-flight operations
  Bytes valid_len = 0;      // bytes meaningful in this block (tail blocks)

  // ODAFS bookkeeping: the NIC segment currently exporting this block
  // (0 = not exported). Owned by the DAFS server, carried here so the
  // eviction path can find it.
  std::uint64_t export_seg = 0;
};

class BufferCache {
 public:
  // `capacity_blocks` blocks of `block_size` bytes each, carved out of the
  // host's kernel address space once at construction.
  BufferCache(host::Host& host, Disk& disk, std::size_t capacity_blocks,
              Bytes block_size);
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  Bytes block_size() const { return block_size_; }
  std::size_t capacity() const { return capacity_; }

  // Called just before a block's memory is reused or dropped; the ODAFS
  // server revokes the block's exported segment here.
  using EvictHook = std::function<void(CacheBlock&)>;
  void set_evict_hook(EvictHook h) { evict_hook_ = std::move(h); }

  // Find or load the block. `disk_block` is the backing block to read on a
  // miss (the fs layer resolves file→disk mapping). If `zero_fill`, a miss
  // materialises a zeroed block without touching the disk (fresh writes).
  // The returned pointer stays valid while the caller holds `pin`.
  // `trace_op` charges any miss-path disk I/O to a file op (obs/trace.h).
  sim::Task<Result<CacheBlock*>> get(CacheKey key, BlockNo disk_block,
                                     bool zero_fill, obs::OpId trace_op = 0);

  // Pin/unpin across await points.
  static void pin(CacheBlock& b) { ++b.pin; }
  static void unpin(CacheBlock& b) {
    ORDMA_CHECK(b.pin > 0);
    --b.pin;
  }

  void mark_dirty(CacheBlock& b) { b.dirty = true; }

  // Drop a block (e.g. file truncation/removal). Write-back is skipped —
  // the data is going away. Fires the evict hook.
  void invalidate(CacheKey key);

  // Write all dirty blocks back to disk.
  sim::Task<Status> sync();

  // Lookup without faulting in (nullptr on miss); does not touch LRU.
  CacheBlock* peek(CacheKey key);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t resident() const { return map_.size(); }
  const CounterGroup& counters() const { return counters_; }

  mem::AddressSpace& space() { return host_.kernel_as(); }

 private:
  sim::Task<Result<CacheBlock*>> evict_one(obs::OpId trace_op);

  host::Host& host_;
  Disk& disk_;
  std::size_t capacity_;
  Bytes block_size_;
  std::vector<CacheBlock> blocks_;           // fixed arena of descriptors
  IntrusiveList<CacheBlock> free_;           // never-used descriptors
  IntrusiveList<CacheBlock> lru_;            // valid blocks, front = LRU
  std::unordered_map<CacheKey, CacheBlock*, CacheKeyHash> map_;
  EvictHook evict_hook_;
  CounterGroup counters_;
  Counter hits_{counters_, "cache/hits"};
  Counter misses_{counters_, "cache/misses"};
};

}  // namespace ordma::fs
