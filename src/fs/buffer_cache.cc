#include "fs/buffer_cache.h"

namespace ordma::fs {

namespace {
// Media transients (fault plan) are retried a bounded number of times at
// this layer — the classic block-layer requeue — before the error surfaces
// to the protocol above.
constexpr unsigned kDiskAttempts = 3;
}  // namespace

BufferCache::BufferCache(host::Host& host, Disk& disk,
                         std::size_t capacity_blocks, Bytes block_size)
    : host_(host),
      disk_(disk),
      capacity_(capacity_blocks),
      block_size_(block_size),
      blocks_(capacity_blocks) {
  ORDMA_CHECK(block_size % mem::kPageSize == 0 ||
              mem::kPageSize % block_size == 0);
  ORDMA_CHECK(block_size == disk.block_size());
  for (auto& b : blocks_) {
    b.va = host_.map_new(host_.kernel_as(), block_size_);
    free_.push_back(&b);
  }
}

CacheBlock* BufferCache::peek(CacheKey key) {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

sim::Task<Result<CacheBlock*>> BufferCache::evict_one(obs::OpId trace_op) {
  // First unpinned block from the LRU end.
  CacheBlock* victim =
      lru_.find_first([](const CacheBlock* cand) { return cand->pin == 0; });
  if (!victim) co_return Errc::no_space;  // everything pinned

  // Detach before any await so a concurrent eviction cannot pick the same
  // victim; the hook (ODAFS revocation) also fires before the write-back
  // await, so no ORDMA can observe the block once we commit to reuse.
  if (evict_hook_) evict_hook_(*victim);
  map_.erase(victim->key);
  lru_.erase(victim);
  victim->valid = false;
  victim->export_seg = 0;

  if (victim->dirty) {
    // Written straight from the block's memory: the victim is detached and
    // its export revoked, so nothing changes those bytes while we wait.
    Status st = Status::Ok();
    for (unsigned attempt = 0; attempt < kDiskAttempts; ++attempt) {
      st = co_await disk_.write(victim->disk_block, host_.kernel_as(),
                                victim->va, trace_op);
      if (st.ok() || st.code() != Errc::io_error) break;
    }
    if (!st.ok()) co_return st;
    victim->dirty = false;
  }
  co_return victim;
}

sim::Task<Result<CacheBlock*>> BufferCache::get(CacheKey key,
                                                BlockNo disk_block,
                                                bool zero_fill,
                                                obs::OpId trace_op) {
  if (auto* b = peek(key)) {
    ++hits_;
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::cache_hit, key.ino, key.fbn);
    lru_.touch(b);
    co_return b;
  }
  ++misses_;
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::cache_miss,
                        key.ino, key.fbn);

  CacheBlock* b = free_.pop_front();
  if (!b) {
    auto evicted = co_await evict_one(trace_op);
    if (!evicted.ok()) co_return evicted.status();
    b = evicted.value();
  }

  b->key = key;
  b->disk_block = disk_block;
  b->dirty = false;
  b->valid_len = block_size_;
  if (zero_fill) {
    ORDMA_CHECK(host_.kernel_as().zero(b->va, block_size_).ok());
  } else {
    Status st = Status::Ok();
    for (unsigned attempt = 0; attempt < kDiskAttempts; ++attempt) {
      st = co_await disk_.read(disk_block, host_.kernel_as(), b->va,
                               trace_op);
      if (st.ok() || st.code() != Errc::io_error) break;
    }
    if (!st.ok()) {
      free_.push_back(b);
      co_return st;
    }
  }
  b->valid = true;

  // The block may have been faulted in concurrently while we read the disk;
  // keep the established entry (it may already be pinned or exported) and
  // return our freshly loaded descriptor to the free list.
  if (auto* existing = peek(key)) {
    b->valid = false;
    free_.push_back(b);
    lru_.touch(existing);
    co_return existing;
  }
  map_[key] = b;
  lru_.push_back(b);
  co_return b;
}

void BufferCache::invalidate(CacheKey key) {
  auto* b = peek(key);
  if (!b) return;
  ORDMA_CHECK_MSG(b->pin == 0, "invalidate of pinned cache block");
  if (evict_hook_) evict_hook_(*b);
  map_.erase(key);
  lru_.erase(b);
  b->valid = false;
  b->dirty = false;
  b->export_seg = 0;
  free_.push_back(b);
}

sim::Task<Status> BufferCache::sync() {
  std::vector<CacheBlock*> dirty;
  lru_.for_each([&](CacheBlock* b) {
    if (b->dirty) dirty.push_back(b);
  });
  // One staging buffer for the whole pass: a block stays live while its
  // write waits, so the disk must get the bytes as they were at the start.
  std::vector<std::byte> data(block_size_);
  for (CacheBlock* b : dirty) {
    ORDMA_CHECK(host_.kernel_as().read(b->va, data).ok());
    Status st = Status::Ok();
    for (unsigned attempt = 0; attempt < kDiskAttempts; ++attempt) {
      st = co_await disk_.write(b->disk_block, data);
      if (st.ok() || st.code() != Errc::io_error) break;
    }
    if (!st.ok()) co_return st;
    b->dirty = false;
  }
  co_return Status::Ok();
}

}  // namespace ordma::fs
