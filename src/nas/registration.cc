#include "nas/registration.h"

#include "nic/nic.h"

namespace ordma::nas {

RegistrationCache::Entry* RegistrationCache::lookup(mem::Vaddr va,
                                                    Bytes len) {
  for (auto& r : regs_) {
    if (va >= r.host_base && va + len <= r.host_base + r.len) return &r;
  }
  return nullptr;
}

sim::Task<Result<RegistrationCache::Entry*>> RegistrationCache::ensure(
    mem::Vaddr va, Bytes len, obs::OpId op) {
  if (auto* r = lookup(va, len)) co_return r;
  const mem::Vaddr base = va & ~(mem::kPageSize - 1);
  const Bytes aligned_len =
      ((va + len + mem::kPageSize - 1) & ~(mem::kPageSize - 1)) - base;
  co_await host_.cpu_consume(host_.costs().memory_register, op,
                             "io/register");
  // Re-check after the await: a concurrent caller may have registered the
  // range while this one waited for the CPU (single-flight; duplicate
  // exports would flood the NIC TLB with redundant pinned entries).
  if (auto* r = lookup(va, len)) co_return r;
  auto cap = host_.nic().export_segment(host_.user_as(), base, aligned_len,
                                        crypto::SegPerm::read_write,
                                        /*pin_now=*/true);
  if (!cap.ok()) co_return cap.status();
  if (exports_) ++*exports_;
  regs_.push_back(Entry{base, aligned_len, cap.value()});
  co_return &regs_.back();
}

}  // namespace ordma::nas
