#include "db/pager.h"

namespace ordma::db {

Pager::Pager(host::Host& host, core::FileClient& file, std::uint64_t fh,
             Bytes file_size, PagerConfig cfg)
    : host_(host),
      file_(file),
      fh_(fh),
      cfg_(cfg),
      num_pages_(static_cast<PageNo>((file_size + cfg.page_size - 1) /
                                     cfg.page_size)) {
  slab_ = host_.map_new(host_.user_as(),
                        cfg_.cache_pages * cfg_.page_size);
  frames_.reserve(cfg_.cache_pages);
  for (std::size_t i = 0; i < cfg_.cache_pages; ++i) {
    auto f = std::make_unique<Frame>();
    f->slot = static_cast<int>(i);
    f->bytes.resize(cfg_.page_size);
    free_.push_back(f.get());
    frames_.push_back(std::move(f));
  }
}

Pager::~Pager() = default;

sim::Task<Result<Pager::Frame*>> Pager::take_frame() {
  if (auto* f = free_.pop_front()) co_return f;
  Frame* victim =
      lru_.find_first([](const Frame* cand) { return cand->pin == 0; });
  if (!victim) co_return Errc::no_space;
  if (victim->dirty) {
    auto st = co_await write_back(*victim);
    if (!st.ok()) co_return st;
  }
  map_.erase(victim->page);
  lru_.erase(victim);
  victim->valid = false;
  co_return victim;
}

sim::Task<Status> Pager::write_back(Frame& f) {
  // Mirror → slab → file.
  ORDMA_CHECK(host_.user_as().write(slot_va(f.slot), f.bytes).ok());
  auto n = co_await file_.pwrite(fh_, static_cast<Bytes>(f.page) *
                                          cfg_.page_size,
                                 slot_va(f.slot), cfg_.page_size);
  if (!n.ok()) co_return n.status();
  f.dirty = false;
  co_return Status::Ok();
}

sim::Task<Result<Pager::Frame*>> Pager::load(PageNo p) {
  auto frame = co_await take_frame();
  if (!frame.ok()) co_return frame.status();
  Frame* f = frame.value();
  f->page = p;
  pin(*f);

  auto n = co_await file_.pread(fh_, static_cast<Bytes>(p) * cfg_.page_size,
                                slot_va(f->slot), cfg_.page_size);
  unpin(*f);
  if (!n.ok()) {
    free_.push_back(f);
    co_return n.status();
  }
  // Sync the mirror from the slab (data may have been RDMA-placed).
  ORDMA_CHECK(host_.user_as().read(slot_va(f->slot), f->bytes).ok());
  if (n.value() < cfg_.page_size) {
    std::fill(f->bytes.begin() + n.value(), f->bytes.end(), std::byte{0});
  }
  f->valid = true;
  f->dirty = false;
  map_[p] = f;
  lru_.push_back(f);
  co_return f;
}

sim::Task<Result<Pager::Frame*>> Pager::fetch(PageNo p) {
  if (auto it = map_.find(p); it != map_.end()) {
    ++hits_;
    lru_.touch(it->second);
    co_await host_.cpu_consume(host_.costs().cache_hit_proc);
    co_return it->second;
  }
  if (auto it = inflight_.find(p); it != inflight_.end()) {
    // Join the in-flight prefetch.
    auto shared = it->second;
    co_return co_await shared->done.wait();
  }
  ++misses_;
  co_await host_.cpu_consume(host_.costs().cache_miss_proc);
  co_return co_await load(p);
}

void Pager::prefetch(PageNo p) {
  if (map_.count(p) || inflight_.count(p)) return;
  auto state = std::make_shared<Inflight>(host_.engine());
  inflight_[p] = state;
  host_.engine().spawn([](Pager& pager, PageNo p,
                          std::shared_ptr<Inflight> state)
                           -> sim::Task<void> {
    auto res = co_await pager.load(p);
    pager.inflight_.erase(p);
    state->done.set(res);
  }(*this, p, state));
}

sim::Task<void> Pager::load_run(PageNo first, std::uint32_t count,
                                std::vector<std::shared_ptr<Inflight>>
                                    flights) {
  const Bytes run_len = static_cast<Bytes>(count) * cfg_.page_size;
  // One large read into a staging area from the pool (each in-flight run
  // needs its own); direct-transfer protocols place the whole run with a
  // single request's worth of per-I/O overhead. A real implementation
  // gathers straight into cache pages (readv); the staging redistribution
  // below is bookkeeping only.
  const mem::Vaddr scratch = co_await scratch_pool_->recv();
  auto n = co_await file_.pread(
      fh_, static_cast<Bytes>(first) * cfg_.page_size, scratch, run_len);

  for (std::uint32_t i = 0; i < count; ++i) {
    Result<Frame*> res = Errc::io_error;
    if (n.ok()) {
      auto frame = co_await take_frame();
      if (frame.ok()) {
        Frame* f = frame.value();
        f->page = first + i;
        const Bytes off = static_cast<Bytes>(i) * cfg_.page_size;
        const Bytes have =
            n.value() > off ? std::min<Bytes>(cfg_.page_size,
                                              n.value() - off)
                            : 0;
        ORDMA_CHECK(host_.user_as()
                        .read(scratch + off,
                              std::span<std::byte>(f->bytes.data(), have))
                        .ok());
        if (have < cfg_.page_size) {
          std::fill(f->bytes.begin() + have, f->bytes.end(), std::byte{0});
        }
        // Keep the slab slot coherent with the mirror.
        ORDMA_CHECK(host_.user_as().write(slot_va(f->slot), f->bytes).ok());
        f->valid = true;
        f->dirty = false;
        map_[f->page] = f;
        lru_.push_back(f);
        res = f;
      } else {
        res = frame.status();
      }
    }
    inflight_.erase(first + i);
    flights[i]->done.set(res);
  }
  scratch_pool_->send(scratch);
}

void Pager::prefetch_list(const std::vector<PageNo>& pages) {
  if (!scratch_pool_) {
    scratch_pool_ = std::make_unique<sim::Channel<mem::Vaddr>>(
        host_.engine());
    scratch_run_len_ = 16 * cfg_.page_size;
    for (int i = 0; i < 16; ++i) {
      scratch_pool_->send(host_.map_new(host_.user_as(), scratch_run_len_));
    }
  }
  const auto max_run =
      static_cast<std::uint32_t>(scratch_run_len_ / cfg_.page_size);

  std::size_t i = 0;
  while (i < pages.size()) {
    const PageNo p = pages[i];
    if (map_.count(p) || inflight_.count(p)) {
      ++i;
      continue;
    }
    // Extend a maximal contiguous run of uncached pages.
    std::uint32_t count = 1;
    while (i + count < pages.size() && count < max_run &&
           pages[i + count] == p + count && !map_.count(pages[i + count]) &&
           !inflight_.count(pages[i + count])) {
      ++count;
    }
    std::vector<std::shared_ptr<Inflight>> flights;
    flights.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      auto state = std::make_shared<Inflight>(host_.engine());
      inflight_[p + k] = state;
      flights.push_back(std::move(state));
    }
    host_.engine().spawn(load_run(p, count, std::move(flights)));
    i += count;
  }
}

sim::Task<Result<Pager::Frame*>> Pager::allocate() {
  auto frame = co_await take_frame();
  if (!frame.ok()) co_return frame.status();
  Frame* f = frame.value();
  f->page = num_pages_++;
  std::fill(f->bytes.begin(), f->bytes.end(), std::byte{0});
  f->valid = true;
  f->dirty = true;
  map_[f->page] = f;
  lru_.push_back(f);
  co_return f;
}

sim::Task<Status> Pager::flush() {
  std::vector<Frame*> dirty;
  lru_.for_each([&](Frame* f) {
    if (f->dirty) dirty.push_back(f);
  });
  for (Frame* f : dirty) {
    auto st = co_await write_back(*f);
    if (!st.ok()) co_return st;
  }
  co_return Status::Ok();
}

sim::Task<Status> Pager::reset() {
  auto st = co_await flush();
  if (!st.ok()) co_return st;
  std::vector<Frame*> all;
  lru_.for_each([&](Frame* f) { all.push_back(f); });
  for (Frame* f : all) {
    ORDMA_CHECK_MSG(f->pin == 0, "reset with pinned pages");
    map_.erase(f->page);
    lru_.erase(f);
    f->valid = false;
    free_.push_back(f);
  }
  hits_ = misses_ = 0;
  co_return Status::Ok();
}

}  // namespace ordma::db
