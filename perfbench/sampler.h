// Program-counter sampler for the host-time split by module.
//
// A POSIX timer (timer_create on CLOCK_MONOTONIC) raises SIGPROF at a
// fixed rate; the handler stores the interrupted instruction
// pointer in a preallocated array and does nothing else. After the run,
// write() maps every sample to the object that contains it: addresses in
// the benchmark executable are written as ELF virtual addresses (for
// addr2line), samples in shared libraries are counted per library.
#pragma once

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class PcSampler {
 public:
  // The first `capacity` samples are kept (2^21 is 200 s at 10 kHz).
  explicit PcSampler(std::size_t capacity);
  ~PcSampler();
  PcSampler(const PcSampler&) = delete;
  PcSampler& operator=(const PcSampler&) = delete;

  // Sample every `period_us` until stop(). Samples of
  // successive start()/stop() intervals accumulate.
  void start(long period_us);
  void stop();

  // Histogram file: "exe <path>", then "pc <hex elf vaddr> <count>" for
  // samples in the executable, "lib <basename> <count>" per shared object
  // and "unknown <count>" for samples outside every loaded object.
  bool write(const std::string& path) const;

 private:
  std::vector<std::uintptr_t> pcs_;
  bool running_ = false;
  timer_t timer_{};
};

}  // namespace perfbench
