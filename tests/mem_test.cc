// Unit tests for the memory substrate: physical memory, page tables,
// pin/lock semantics, registrations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/address_space.h"
#include "mem/physical_memory.h"

namespace ordma::mem {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> xs) {
  std::vector<std::byte> v;
  for (int x : xs) v.push_back(static_cast<std::byte>(x));
  return v;
}

TEST(PhysicalMemory, ReadsOfUntouchedMemoryAreZero) {
  PhysicalMemory pm(16);
  std::vector<std::byte> out(64);
  pm.read(100, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(pm.frames_touched(), 0u);
}

TEST(PhysicalMemory, WriteReadRoundTrip) {
  PhysicalMemory pm(16);
  const auto data = bytes({1, 2, 3, 4, 5});
  pm.write(1000, data);
  std::vector<std::byte> out(5);
  pm.read(1000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.frames_touched(), 1u);
}

TEST(PhysicalMemory, CrossFrameTransfer) {
  PhysicalMemory pm(16);
  std::vector<std::byte> data(kPageSize + 100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i & 0xff);
  }
  const Paddr addr = kPageSize - 50;  // straddles frames 0,1,2
  pm.write(addr, data);
  std::vector<std::byte> out(data.size());
  pm.read(addr, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.frames_touched(), 3u);
}

TEST(PhysicalMemory, FrameDataGivesWholePage) {
  PhysicalMemory pm(4);
  auto f = pm.frame_data(2);
  EXPECT_EQ(f.size(), kPageSize);
  f[0] = std::byte{0xAB};
  std::vector<std::byte> out(1);
  pm.read(frame_base(2), out);
  EXPECT_EQ(out[0], std::byte{0xAB});
}

TEST(PhysicalMemory, ViewOfUntouchedFrameIsZeroAndMaterialisesNothing) {
  PhysicalMemory pm(4);
  const auto v = pm.view(2 * kPageSize + 10, 100);
  ASSERT_EQ(v.size(), 100u);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_EQ(pm.frames_touched(), 0u);
  const auto data = bytes({1, 2, 3});
  pm.write(2 * kPageSize + 10, data);
  const auto w = pm.view(2 * kPageSize + 10, 3);
  EXPECT_TRUE(std::equal(w.begin(), w.end(), data.begin()));
}

TEST(FrameAllocator, AllocatesDistinctFramesAndRecycles) {
  FrameAllocator alloc(10, 3);
  auto a = alloc.allocate();
  auto b = alloc.allocate();
  auto c = alloc.allocate();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(alloc.allocate().code(), Errc::no_space);
  alloc.free(b.value());
  auto d = alloc.allocate();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), b.value());
}

TEST(FrameAllocator, TracksFreeCount) {
  FrameAllocator alloc(0, 5);
  EXPECT_EQ(alloc.free_frames(), 5u);
  auto a = alloc.allocate();
  EXPECT_EQ(alloc.free_frames(), 4u);
  alloc.free(a.value());
  EXPECT_EQ(alloc.free_frames(), 5u);
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory pm_{64};
  AddressSpace as_{pm_};
};

TEST_F(AddressSpaceTest, TranslateMappedPage) {
  as_.map(5, 9);
  auto pa = as_.translate(5 * kPageSize + 123, false);
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(pa.value(), 9 * kPageSize + 123);
}

TEST_F(AddressSpaceTest, TranslateUnmappedFaults) {
  EXPECT_EQ(as_.translate(kPageSize, false).code(), Errc::access_fault);
}

TEST_F(AddressSpaceTest, WriteProtectionFaultsWritesOnly) {
  as_.map(1, 2, /*writable=*/false);
  EXPECT_TRUE(as_.translate(kPageSize, false).ok());
  EXPECT_EQ(as_.translate(kPageSize, true).code(), Errc::access_fault);
  as_.protect(1, /*writable=*/true);
  EXPECT_TRUE(as_.translate(kPageSize, true).ok());
}

TEST_F(AddressSpaceTest, ReadWriteThroughPageTable) {
  as_.map(0, 3);
  as_.map(1, 7);  // non-contiguous frames behind contiguous va
  std::vector<std::byte> data(kPageSize + 32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 7) & 0xff);
  }
  // Starting at vpn0 end, the range spans vpns 0..2; vpn 2 is unmapped.
  EXPECT_FALSE(as_.write(kPageSize - 16, data).ok());
  as_.map(2, 9);
  ASSERT_TRUE(as_.write(kPageSize - 16, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(as_.read(kPageSize - 16, out).ok());
  EXPECT_EQ(out, data);
}

std::vector<std::byte> numbered(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 13 + seed) & 0xff);
  }
  return v;
}

TEST_F(AddressSpaceTest, CopyFromCrossesMisalignedPages) {
  // Source and destination page boundaries fall at different offsets of
  // the copy, and neither space's frames are contiguous.
  PhysicalMemory other_pm(16);
  AddressSpace src(other_pm);
  for (Vpn v = 0; v < 4; ++v) src.map(10 + v, 11 - v);
  for (Vpn v = 0; v < 4; ++v) as_.map(20 + v, 40 - 3 * v);
  const auto data = numbered(2 * kPageSize + 300, 1);
  const Vaddr src_va = 10 * kPageSize + 1000;
  const Vaddr dst_va = 20 * kPageSize + 3000;
  ASSERT_TRUE(src.write(src_va, data).ok());

  ASSERT_TRUE(as_.copy_from(dst_va, src, src_va, data.size()).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(as_.read(dst_va, out).ok());
  EXPECT_EQ(out, data);

  // Within one space, from untouched (zero) memory.
  ASSERT_TRUE(as_.copy_from(dst_va, as_, 23 * kPageSize + 5, 100).ok());
  ASSERT_TRUE(as_.read(dst_va, std::span(out).first(100)).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.begin() + 100,
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST_F(AddressSpaceTest, CopyFromFaultsWithWritesPartialProgress) {
  PhysicalMemory other_pm(16);
  AddressSpace src(other_pm);
  for (Vpn v = 0; v < 3; ++v) src.map(v, v + 1);
  const auto data = numbered(3 * kPageSize - 200, 2);
  ASSERT_TRUE(src.write(100, data).ok());

  // Read-only destination page: copy_from stops where write() stops.
  PhysicalMemory twin_pm(64);
  AddressSpace twin(twin_pm);
  for (AddressSpace* as : {&as_, &twin}) {
    as->map(5, 6);
    as->map(6, 7, /*writable=*/false);
    as->map(7, 8);
  }
  const Vaddr dst_va = 5 * kPageSize + 50;
  EXPECT_EQ(as_.copy_from(dst_va, src, 100, data.size()).code(),
            Errc::access_fault);
  EXPECT_EQ(twin.write(dst_va, data).code(), Errc::access_fault);
  for (Pfn f : {6, 7, 8}) {
    const auto a = pm_.frame_data(f);
    const auto b = twin_pm.frame_data(f);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "frame " << f;
  }

  // Unmapped source page: the bytes before it land, nothing after it.
  src.unmap(2);
  as_.protect(6, /*writable=*/true);
  const std::vector<std::byte> before(data.size(), std::byte{0xee});
  ASSERT_TRUE(as_.write(dst_va, before).ok());
  EXPECT_EQ(as_.copy_from(dst_va, src, 100, data.size()).code(),
            Errc::access_fault);
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(as_.read(dst_va, out).ok());
  const std::size_t landed = 2 * kPageSize - 100;  // up to source vpn 2
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + landed, data.begin()));
  EXPECT_TRUE(std::equal(out.begin() + landed, out.end(),
                         before.begin() + landed));
}

TEST_F(AddressSpaceTest, PinPreventsUnmapUntilUnpinned) {
  as_.map(4, 8);
  as_.pin(4);
  EXPECT_TRUE(as_.lookup(4)->pinned());
  as_.unpin(4);
  EXPECT_FALSE(as_.lookup(4)->pinned());
  EXPECT_EQ(as_.unmap(4), Pfn{8});
}

TEST_F(AddressSpaceTest, PinRangeValidatesBeforePinning) {
  as_.map(0, 1);
  // Range extends into unmapped vpn 1: must fail with no pins taken.
  EXPECT_EQ(as_.pin_range(100, kPageSize * 2).code(), Errc::access_fault);
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
  EXPECT_TRUE(as_.pin_range(0, kPageSize).ok());
  EXPECT_EQ(as_.lookup(0)->pin_count, 1);
  as_.unpin_range(0, kPageSize);
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
}

TEST_F(AddressSpaceTest, LockFlagToggles) {
  as_.map(2, 5);
  EXPECT_FALSE(as_.lookup(2)->locked);
  as_.lock(2);
  EXPECT_TRUE(as_.lookup(2)->locked);
  as_.unlock(2);
  EXPECT_FALSE(as_.lookup(2)->locked);
}

TEST_F(AddressSpaceTest, RegistrationPinsAndUnpinsRaii) {
  as_.map(0, 1);
  as_.map(1, 2);
  {
    Registration reg(as_, 100, kPageSize);  // spans vpn 0 and 1
    EXPECT_EQ(as_.lookup(0)->pin_count, 1);
    EXPECT_EQ(as_.lookup(1)->pin_count, 1);
  }
  EXPECT_EQ(as_.lookup(0)->pin_count, 0);
  EXPECT_EQ(as_.lookup(1)->pin_count, 0);
}

TEST_F(AddressSpaceTest, PageHelpers) {
  EXPECT_EQ(page_of(0), 0u);
  EXPECT_EQ(page_of(kPageSize - 1), 0u);
  EXPECT_EQ(page_of(kPageSize), 1u);
  EXPECT_EQ(page_offset(kPageSize + 17), 17u);
  EXPECT_EQ(frame_base(3), 3 * kPageSize);
}

}  // namespace
}  // namespace ordma::mem
