// Reference work: a fixed slice of host work that the benchmark runs after
// every measured op, so that it shares the simulator's host time slot by
// slot.
//
// The machine the benchmark runs on is shared: its speed drifts by tens of
// percent over seconds and minutes, and slows the simulator and any other
// code running at the same moment alike. The time the reference work takes
// in a pass measures the machine's speed during that pass, and the
// simulator's host time divided by it is a cost that the drift largely
// cancels out of. The slice mixes the kinds of work the simulator does:
// integer hashing, a 4 KB copy, heap allocation, an ordered map and
// dependent loads from a 2 MB table. Its work depends on
// nothing but the number of slices run.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

class RefWork {
 public:
  RefWork();
  ~RefWork();
  RefWork(const RefWork&) = delete;
  RefWork& operator=(const RefWork&) = delete;

  // Runs one slice and adds its host time to seconds().
  void slice();
  double seconds() const { return seconds_; }
  void reset() { seconds_ = 0; }

 private:
  double seconds_ = 0;
  std::uint64_t state_ = 1;
  std::vector<std::uint64_t> hashed_;
  std::vector<unsigned char> copy_src_, copy_dst_;
  std::size_t copy_pos_ = 0;
  std::vector<void*> ring_;
  std::map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint32_t> chase_;  // one cache line per entry
  std::uint32_t chase_pos_ = 0;
};

}  // namespace perfbench
