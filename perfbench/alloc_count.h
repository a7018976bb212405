// Heap-allocation counter for the benchmark binary: replaces the global
// operator new/delete with malloc/free wrappers that count calls and bytes
// on the calling thread. The simulation runs on one thread, so the main
// thread's counters are the simulator's allocations.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// Allocations made by the calling thread so far.
AllocCount alloc_count();

}  // namespace perfbench
