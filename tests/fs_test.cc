// Unit tests for the storage substrate: disk model, buffer cache (LRU,
// write-back, pinning, evict hooks), and the server file system.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "fs/buffer_cache.h"
#include "fs/disk.h"
#include "fs/server_fs.h"
#include "host/host.h"
#include "sim/engine.h"

namespace ordma::fs {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 97 + seed) & 0xff);
  }
  return v;
}

// Run a coroutine to completion on a fresh engine.
template <typename F>
void run(sim::Engine& eng, F&& body) {
  bool done = false;
  eng.spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  eng.run();
  ASSERT_TRUE(done) << "driver coroutine did not finish";
}

class FsTest : public ::testing::Test {
 protected:
  sim::Engine eng_;
  host::CostModel cm_;
  host::Host host_{eng_, "server", cm_, {MiB(64)}};
};

TEST_F(FsTest, DiskReadWriteRoundTrip) {
  Disk disk(host_, MiB(1), KiB(8));
  const auto data = pattern(KiB(8));
  run(eng_, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await disk.write(3, data)).ok());
    std::vector<std::byte> out(KiB(8));
    EXPECT_TRUE((co_await disk.read(3, out)).ok());
    EXPECT_EQ(out, data);
  });
}

TEST_F(FsTest, DiskUnwrittenBlocksReadZero) {
  Disk disk(host_, MiB(1), KiB(8));
  run(eng_, [&]() -> sim::Task<void> {
    std::vector<std::byte> out(KiB(8), std::byte{0xff});
    EXPECT_TRUE((co_await disk.read(0, out)).ok());
    for (auto b : out) EXPECT_EQ(b, std::byte{0});
  });
}

TEST_F(FsTest, DiskSequentialAccessSkipsSeek) {
  Disk disk(host_, MiB(1), KiB(8));
  run(eng_, [&]() -> sim::Task<void> {
    const auto data = pattern(KiB(8));
    const auto t0 = eng_.now();
    (void)co_await disk.write(0, data);
    const auto first = eng_.now() - t0;  // seek + transfer
    const auto t1 = eng_.now();
    (void)co_await disk.write(1, data);
    const auto second = eng_.now() - t1;  // transfer only
    EXPECT_GT(first.ns, second.ns + cm_.disk_seek.ns / 2);
  });
}

TEST_F(FsTest, DiskOutOfRangeRejected) {
  Disk disk(host_, KiB(64), KiB(8));  // 8 blocks
  run(eng_, [&]() -> sim::Task<void> {
    std::vector<std::byte> out(KiB(8));
    EXPECT_EQ((co_await disk.read(8, out)).code(), Errc::invalid_argument);
  });
}

TEST_F(FsTest, CacheHitAvoidsDisk) {
  Disk disk(host_, MiB(1), KiB(8));
  BufferCache cache(host_, disk, 4, KiB(8));
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await cache.get(CacheKey{1, 0}, 0, false);
    const auto reads_after_miss = disk.reads();
    (void)co_await cache.get(CacheKey{1, 0}, 0, false);
    EXPECT_EQ(disk.reads(), reads_after_miss);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
  });
}

TEST_F(FsTest, CacheEvictsLruAndWritesBackDirty) {
  Disk disk(host_, MiB(1), KiB(8));
  BufferCache cache(host_, disk, 2, KiB(8));
  const auto data = pattern(KiB(8), 7);
  run(eng_, [&]() -> sim::Task<void> {
    auto b0 = co_await cache.get(CacheKey{1, 0}, 10, true);
    EXPECT_TRUE(b0.ok());
    EXPECT_TRUE(host_.kernel_as().write(b0.value()->va, data).ok());
    cache.mark_dirty(*b0.value());

    (void)co_await cache.get(CacheKey{1, 1}, 11, true);
    // Third block forces eviction of (1,0) — dirty, so it must hit disk.
    (void)co_await cache.get(CacheKey{1, 2}, 12, true);
    EXPECT_EQ(cache.peek(CacheKey{1, 0}), nullptr);
    EXPECT_GE(disk.writes(), 1u);

    std::vector<std::byte> out(KiB(8));
    EXPECT_TRUE((co_await disk.read(10, out)).ok());
    EXPECT_EQ(out, data);
  });
}

TEST_F(FsTest, CachePinnedBlocksAreNotEvicted) {
  Disk disk(host_, MiB(1), KiB(8));
  BufferCache cache(host_, disk, 2, KiB(8));
  run(eng_, [&]() -> sim::Task<void> {
    auto b0 = co_await cache.get(CacheKey{1, 0}, 0, true);
    auto b1 = co_await cache.get(CacheKey{1, 1}, 1, true);
    BufferCache::pin(*b0.value());
    BufferCache::pin(*b1.value());
    auto b2 = co_await cache.get(CacheKey{1, 2}, 2, true);
    EXPECT_EQ(b2.code(), Errc::no_space);  // everything pinned
    BufferCache::unpin(*b0.value());
    auto b3 = co_await cache.get(CacheKey{1, 2}, 2, true);
    EXPECT_TRUE(b3.ok());
  });
}

TEST_F(FsTest, CacheEvictionSkipsPinnedLruFront) {
  Disk disk(host_, MiB(1), KiB(8));
  BufferCache cache(host_, disk, 2, KiB(8));
  std::vector<CacheKey> evicted;
  cache.set_evict_hook([&](CacheBlock& b) { evicted.push_back(b.key); });
  run(eng_, [&]() -> sim::Task<void> {
    auto b0 = co_await cache.get(CacheKey{1, 0}, 0, true);  // LRU front
    (void)co_await cache.get(CacheKey{1, 1}, 1, true);
    BufferCache::pin(*b0.value());
    auto b2 = co_await cache.get(CacheKey{1, 2}, 2, true);  // evicts (1,1)
    EXPECT_TRUE(b2.ok());
  });
  EXPECT_NE(cache.peek(CacheKey{1, 0}), nullptr);
  EXPECT_EQ(cache.peek(CacheKey{1, 1}), nullptr);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (CacheKey{1, 1}));
}

TEST_F(FsTest, CacheEvictHookFiresOnEvictionAndInvalidation) {
  Disk disk(host_, MiB(1), KiB(8));
  BufferCache cache(host_, disk, 2, KiB(8));
  std::vector<CacheKey> evicted;
  cache.set_evict_hook([&](CacheBlock& b) { evicted.push_back(b.key); });
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await cache.get(CacheKey{1, 0}, 0, true);
    (void)co_await cache.get(CacheKey{1, 1}, 1, true);
    (void)co_await cache.get(CacheKey{1, 2}, 2, true);  // evicts (1,0)
    cache.invalidate(CacheKey{1, 1});
  });
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], (CacheKey{1, 0}));
  EXPECT_EQ(evicted[1], (CacheKey{1, 1}));
}

class ServerFsTest : public ::testing::Test {
 protected:
  sim::Engine eng_;
  host::CostModel cm_;
  host::Host host_{eng_, "server", cm_, {MiB(128)}};
  ServerFs fs_{host_, {MiB(256), KiB(8), 512}};
};

TEST_F(ServerFsTest, CreateLookupRemove) {
  auto ino = fs_.create(ServerFs::kRootIno, "file.txt", FileType::regular);
  ASSERT_TRUE(ino.ok());
  auto found = fs_.lookup(ServerFs::kRootIno, "file.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), ino.value());

  EXPECT_EQ(fs_.create(ServerFs::kRootIno, "file.txt", FileType::regular)
                .code(),
            Errc::already_exists);
  EXPECT_TRUE(fs_.remove(ServerFs::kRootIno, "file.txt").ok());
  EXPECT_EQ(fs_.lookup(ServerFs::kRootIno, "file.txt").code(),
            Errc::not_found);
}

TEST_F(ServerFsTest, SubdirectoriesWork) {
  auto dir = fs_.create(ServerFs::kRootIno, "sub", FileType::directory);
  ASSERT_TRUE(dir.ok());
  auto f = fs_.create(dir.value(), "inner", FileType::regular);
  ASSERT_TRUE(f.ok());
  auto names = fs_.readdir(dir.value());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"inner"});
  // Removing a non-empty directory fails.
  EXPECT_EQ(fs_.remove(ServerFs::kRootIno, "sub").code(),
            Errc::invalid_argument);
}

TEST_F(ServerFsTest, WriteReadBackAcrossBlocks) {
  auto ino = fs_.create(ServerFs::kRootIno, "data", FileType::regular);
  ASSERT_TRUE(ino.ok());
  const auto data = pattern(KiB(8) * 3 + 777, 5);  // unaligned length
  run(eng_, [&]() -> sim::Task<void> {
    auto wrote = co_await fs_.write(ino.value(), 0, data);
    EXPECT_TRUE(wrote.ok());
    EXPECT_EQ(wrote.value(), data.size());
    std::vector<std::byte> out(data.size());
    auto got = co_await fs_.read(ino.value(), 0, out);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data.size());
    EXPECT_EQ(out, data);
  });
  auto attr = fs_.getattr(ino.value());
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, data.size());
}

TEST_F(ServerFsTest, UnalignedOffsetsReadCorrectly) {
  auto ino = fs_.create(ServerFs::kRootIno, "d", FileType::regular);
  const auto data = pattern(KiB(32), 3);
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), 0, data);
    std::vector<std::byte> out(5000);
    auto got = co_await fs_.read(ino.value(), 7321, out);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 5000u);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 7321));
  });
}

TEST_F(ServerFsTest, ReadPastEofIsShort) {
  auto ino = fs_.create(ServerFs::kRootIno, "short", FileType::regular);
  const auto data = pattern(1000);
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), 0, data);
    std::vector<std::byte> out(4096);
    auto got = co_await fs_.read(ino.value(), 500, out);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 500u);
    auto eof = co_await fs_.read(ino.value(), 5000, out);
    EXPECT_TRUE(eof.ok());
    EXPECT_EQ(eof.value(), 0u);
  });
}

TEST_F(ServerFsTest, SparseWriteZeroFillsGap) {
  auto ino = fs_.create(ServerFs::kRootIno, "sparse", FileType::regular);
  const auto data = pattern(100, 9);
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), KiB(20), data);
    std::vector<std::byte> out(100);
    auto got = co_await fs_.read(ino.value(), 0, out);
    EXPECT_TRUE(got.ok());
    for (auto b : out) EXPECT_EQ(b, std::byte{0});
  });
}

TEST_F(ServerFsTest, TruncateFreesAndShrinks) {
  auto ino = fs_.create(ServerFs::kRootIno, "t", FileType::regular);
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), 0, pattern(KiB(64)));
    EXPECT_TRUE((co_await fs_.truncate(ino.value(), KiB(8))).ok());
    EXPECT_EQ(fs_.getattr(ino.value()).value().size, KiB(8));
    std::vector<std::byte> out(KiB(16));
    auto got = co_await fs_.read(ino.value(), 0, out);
    EXPECT_EQ(got.value(), KiB(8));
  });
}

TEST_F(ServerFsTest, WarmLoadsAllBlocksIntoCache) {
  auto ino = fs_.create(ServerFs::kRootIno, "warm", FileType::regular);
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), 0, pattern(KiB(64)));
    EXPECT_TRUE((co_await fs_.warm(ino.value())).ok());
    const auto hits0 = fs_.cache().hits();
    std::vector<std::byte> out(KiB(64));
    (void)co_await fs_.read(ino.value(), 0, out);
    EXPECT_EQ(fs_.cache().hits(), hits0 + 8);  // all 8 blocks hit
  });
}

TEST_F(ServerFsTest, RemoveInvalidatesCacheEntries) {
  auto ino = fs_.create(ServerFs::kRootIno, "gone", FileType::regular);
  std::set<std::uint64_t> evicted_fbns;
  fs_.cache().set_evict_hook(
      [&](CacheBlock& b) { evicted_fbns.insert(b.key.fbn); });
  run(eng_, [&]() -> sim::Task<void> {
    (void)co_await fs_.write(ino.value(), 0, pattern(KiB(24)));
    EXPECT_TRUE(fs_.remove(ServerFs::kRootIno, "gone").ok());
  });
  EXPECT_EQ(evicted_fbns.size(), 3u);  // 3 x 8 KB blocks invalidated
}

}  // namespace
}  // namespace ordma::fs
