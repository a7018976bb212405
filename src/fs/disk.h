// Block-device model: a single arm (seek cost for non-sequential access) and
// a streaming transfer rate, storing real bytes lazily. Most of the paper's
// experiments run with warm server caches, but cold-start paths, write-back
// and the ORDMA-miss economics (§4.2.2: disk latency masks fallback cost)
// need a real device underneath.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/units.h"
#include "fault/fault.h"
#include "host/host.h"
#include "sim/resource.h"
#include "sim/task.h"

namespace ordma::fs {

using BlockNo = std::uint64_t;

class Disk {
 public:
  Disk(host::Host& host, Bytes capacity, Bytes block_size)
      : host_(host),
        block_size_(block_size),
        num_blocks_(capacity / block_size),
        arm_(host.engine(), 1, host.name() + ".disk") {}
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  Bytes block_size() const { return block_size_; }
  BlockNo num_blocks() const { return num_blocks_; }

  // `trace_op` ties the arm hold's "disk/io" span to a file op
  // (obs/trace.h; 0 = untraced).
  sim::Task<Status> read(BlockNo b, std::span<std::byte> out,
                         obs::OpId trace_op = 0);
  sim::Task<Status> write(BlockNo b, std::span<const std::byte> data,
                          obs::OpId trace_op = 0);
  // Whole-block I/O straight between the medium and [va, va+block_size)
  // of `as`: one copy when the access completes, no staging buffer. The
  // write reads `as` at completion time, so the caller must keep those
  // bytes unchanged while it waits.
  sim::Task<Status> read(BlockNo b, mem::AddressSpace& as, mem::Vaddr va,
                         obs::OpId trace_op = 0);
  sim::Task<Status> write(BlockNo b, const mem::AddressSpace& as,
                          mem::Vaddr va, obs::OpId trace_op = 0);

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

  // --- fault injection ------------------------------------------------------
  // Fail the next `n` I/Os with Errc::io_error (after their simulated
  // latency, like a real medium error). Used by failure-path tests.
  void inject_failures(std::uint64_t n) { inject_failures_ = n; }
  std::uint64_t injected_remaining() const { return inject_failures_; }

  // Probabilistic transient errors and service-time outliers from a
  // deterministic plan (not owned; must outlive the disk).
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }
  std::uint64_t transient_errors() const { return transient_errors_; }
  const CounterGroup& counters() const { return counters_; }

 private:
  sim::Task<void> access(BlockNo b, obs::OpId trace_op);
  // Count a completed access and apply any injected failure.
  Status finish_io(BlockNo b, bool write);
  // The stored bytes of block b, materialised (zeroed) on first use.
  std::vector<std::byte>& stored(BlockNo b);

  host::Host& host_;
  Bytes block_size_;
  BlockNo num_blocks_;
  sim::Resource arm_;
  BlockNo next_sequential_ = ~BlockNo{0};
  std::unordered_map<BlockNo, std::vector<std::byte>> blocks_;
  fault::FaultInjector* faults_ = nullptr;
  std::uint64_t inject_failures_ = 0;
  CounterGroup counters_;
  Counter reads_{counters_, "disk/reads"};
  Counter writes_{counters_, "disk/writes"};
  Counter transient_errors_{counters_, "disk/transient_errors"};
};

}  // namespace ordma::fs
