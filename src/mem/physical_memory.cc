#include "mem/physical_memory.h"

#include <algorithm>
#include <cstring>

namespace ordma::mem {

PhysicalMemory::Frame& PhysicalMemory::materialise(Pfn f) const {
  ORDMA_CHECK_MSG(f < num_frames_, "physical frame out of range");
  auto& leaf = leaves_[f / kLeafFrames];
  if (!leaf) leaf = std::make_unique<Leaf>();
  auto& slot = (*leaf)[f % kLeafFrames];
  if (!slot) {
    slot = std::make_unique<Frame>();  // value-initialised: all zeroes
    ++frames_touched_;
  }
  return *slot;
}

const PhysicalMemory::Frame* PhysicalMemory::find(Pfn f) const {
  ORDMA_CHECK_MSG(f < num_frames_, "physical frame out of range");
  const auto& leaf = leaves_[f / kLeafFrames];
  return leaf ? (*leaf)[f % kLeafFrames].get() : nullptr;
}

// Run fn(frame, offset in frame, bytes done, chunk) over [addr, addr+len)
// one frame-bounded chunk at a time.
template <typename Fn>
static void for_each_frame(Paddr addr, std::size_t len, Fn&& fn) {
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t off = page_offset(addr + done);
    const std::size_t chunk =
        std::min<std::size_t>(len - done, kPageSize - off);
    fn(frame_of(addr + done), off, done, chunk);
    done += chunk;
  }
}

void PhysicalMemory::write(Paddr addr, std::span<const std::byte> data) {
  for_each_frame(addr, data.size(),
                 [&](Pfn f, std::uint64_t off, std::size_t done,
                     std::size_t chunk) {
                   std::memcpy(materialise(f).data() + off,
                               data.data() + done, chunk);
                 });
}

void PhysicalMemory::zero(Paddr addr, Bytes len) {
  for_each_frame(addr, len,
                 [&](Pfn f, std::uint64_t off, std::size_t, std::size_t chunk) {
                   std::memset(materialise(f).data() + off, 0, chunk);
                 });
}

void PhysicalMemory::read(Paddr addr, std::span<std::byte> out) const {
  for_each_frame(addr, out.size(),
                 [&](Pfn, std::uint64_t, std::size_t done, std::size_t chunk) {
                   const auto v = view(addr + done, chunk);
                   std::memcpy(out.data() + done, v.data(), chunk);
                 });
}

std::span<const std::byte> PhysicalMemory::view(Paddr addr, Bytes len) const {
  static const Frame kZeroFrame{};
  const Pfn f = frame_of(addr);
  const std::uint64_t off = page_offset(addr);
  ORDMA_CHECK_MSG(off + len <= kPageSize,
                  "PhysicalMemory::view crosses a frame boundary");
  const Frame* frame = find(f);
  return {(frame ? frame : &kZeroFrame)->data() + off, len};
}

std::span<std::byte> PhysicalMemory::frame_data(Pfn f) {
  Frame& frame = materialise(f);
  return {frame.data(), frame.size()};
}

std::span<const std::byte> PhysicalMemory::frame_data(Pfn f) const {
  Frame& frame = materialise(f);
  return {frame.data(), frame.size()};
}

}  // namespace ordma::mem
