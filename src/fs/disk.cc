#include "fs/disk.h"

#include <cstring>

namespace ordma::fs {

sim::Task<void> Disk::access(BlockNo b, obs::OpId trace_op) {
  const SimTime q0 = host_.engine().now();
  co_await arm_.acquire();
  sim::Resource::ReleaseGuard guard(arm_);
  if (host_.engine().now().ns != q0.ns) {
    obs::span(arm_.queue_track(), trace_op, "queue/wait", q0,
              host_.engine().now());
  }
  const auto& cm = host_.costs();
  Duration cost = cm.disk_bw.time_for(block_size_);
  if (b != next_sequential_) cost += cm.disk_seek;
  next_sequential_ = b + 1;
  if (faults_) {
    // Service-time outlier (remapped sector, thermal recalibration, ...).
    cost = cost + faults_->disk_latency_spike();
  }
  const SimTime begin = host_.engine().now();
  co_await host_.engine().delay(cost);
  obs::span(arm_.trace_track(), trace_op, "disk/io", begin,
            host_.engine().now());
}

Status Disk::finish_io(BlockNo b, bool write) {
  if (write) {
    ++writes_;
  } else {
    ++reads_;
  }
  host_.flight().record(
      host_.engine().now().ns,
      write ? obs::flight::Ev::disk_write : obs::flight::Ev::disk_read, b);
  if (inject_failures_ > 0) {
    --inject_failures_;
    return Status(Errc::io_error);
  }
  if (faults_ && faults_->disk_transient_error()) {
    ++transient_errors_;
    return Status(Errc::io_error);
  }
  return Status::Ok();
}

std::vector<std::byte>& Disk::stored(BlockNo b) {
  auto& blk = blocks_[b];
  if (blk.size() != block_size_) blk.assign(block_size_, std::byte{0});
  return blk;
}

sim::Task<Status> Disk::read(BlockNo b, std::span<std::byte> out,
                             obs::OpId trace_op) {
  if (b >= num_blocks_ || out.size() > block_size_) {
    co_return Status(Errc::invalid_argument);
  }
  co_await access(b, trace_op);
  if (Status st = finish_io(b, /*write=*/false); !st.ok()) co_return st;
  auto it = blocks_.find(b);
  if (it == blocks_.end()) {
    std::memset(out.data(), 0, out.size());
  } else {
    std::memcpy(out.data(), it->second.data(), out.size());
  }
  co_return Status::Ok();
}

sim::Task<Status> Disk::read(BlockNo b, mem::AddressSpace& as, mem::Vaddr va,
                             obs::OpId trace_op) {
  if (b >= num_blocks_) co_return Status(Errc::invalid_argument);
  co_await access(b, trace_op);
  if (Status st = finish_io(b, /*write=*/false); !st.ok()) co_return st;
  auto it = blocks_.find(b);
  co_return it == blocks_.end() ? as.zero(va, block_size_)
                                : as.write(va, it->second);
}

sim::Task<Status> Disk::write(BlockNo b, std::span<const std::byte> data,
                              obs::OpId trace_op) {
  if (b >= num_blocks_ || data.size() > block_size_) {
    co_return Status(Errc::invalid_argument);
  }
  co_await access(b, trace_op);
  if (Status st = finish_io(b, /*write=*/true); !st.ok()) co_return st;
  std::memcpy(stored(b).data(), data.data(), data.size());
  co_return Status::Ok();
}

sim::Task<Status> Disk::write(BlockNo b, const mem::AddressSpace& as,
                              mem::Vaddr va, obs::OpId trace_op) {
  if (b >= num_blocks_) co_return Status(Errc::invalid_argument);
  co_await access(b, trace_op);
  if (Status st = finish_io(b, /*write=*/true); !st.ok()) co_return st;
  co_return as.read(va, stored(b));
}

}  // namespace ordma::fs
