#include "refwork.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

constexpr std::size_t kHashWords = 256;
constexpr std::size_t kCopyBytes = 4096;
constexpr std::size_t kCopyBuf = std::size_t{1} << 20;
constexpr std::size_t kRing = 256;
constexpr int kAllocs = 16;
constexpr std::size_t kMapSize = 4096;
constexpr int kMapOps = 4;
constexpr std::size_t kChaseLines = std::size_t{1} << 15;  // 2 MB
constexpr std::size_t kLineWords = 64 / sizeof(std::uint32_t);
constexpr int kChaseSteps = 8;

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

RefWork::RefWork()
    : hashed_(kHashWords),
      copy_src_(kCopyBuf, 0x5a),
      copy_dst_(kCopyBuf, 0xa5),
      ring_(kRing, nullptr),
      chase_(kChaseLines * kLineWords, 0) {
  // One random cycle through every line of the table.
  std::vector<std::uint32_t> order(kChaseLines);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t s = 0x2545f4914f6cdd1dull;
  for (std::size_t i = kChaseLines - 1; i > 0; --i) {
    s += 0x9e3779b97f4a7c15ull;
    std::swap(order[i], order[mix(s) % (i + 1)]);
  }
  for (std::size_t i = 0; i < kChaseLines; ++i) {
    chase_[order[i] * kLineWords] = order[(i + 1) % kChaseLines];
  }
}

RefWork::~RefWork() {
  for (void* p : ring_) std::free(p);
}

void RefWork::slice() {
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& w : hashed_) {
    state_ += 0x9e3779b97f4a7c15ull;
    w = mix(state_);
  }
  std::memcpy(copy_dst_.data() + (kCopyBuf - kCopyBytes - copy_pos_),
              copy_src_.data() + copy_pos_, kCopyBytes);
  copy_pos_ = (copy_pos_ + kCopyBytes + 64) % (kCopyBuf - kCopyBytes);
  for (int i = 0; i < kAllocs; ++i) {
    const std::uint64_t r = mix(++state_);
    void*& slot = ring_[r % kRing];
    std::free(slot);
    slot = std::malloc(16 + (r >> 32) % 512);
    static_cast<unsigned char*>(slot)[0] = static_cast<unsigned char>(r);
  }
  for (int i = 0; i < kMapOps; ++i) {
    const std::uint64_t key = mix(++state_) >> 40;
    map_[key] = state_;
    if (map_.size() > kMapSize) map_.erase(map_.begin());
  }
  std::uint32_t p = chase_pos_;
  for (int i = 0; i < kChaseSteps; ++i) p = chase_[p * kLineWords];
  chase_pos_ = p;
  // Keep the results observable so none of the work is optimised away.
  state_ ^= hashed_[p % kHashWords] ^ copy_dst_[p % kCopyBuf];
  seconds_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

}  // namespace perfbench
