#include "mem/address_space.h"

#include <algorithm>
#include <cstring>

namespace ordma::mem {

void AddressSpace::map(Vpn vpn, Pfn pfn, bool writable) {
  auto [it, inserted] = table_.try_emplace(vpn);
  ORDMA_CHECK_MSG(inserted, "vpn already mapped");
  it->second.pfn = pfn;
  it->second.present = true;
  it->second.writable = writable;
}

Pfn AddressSpace::unmap(Vpn vpn) {
  auto it = table_.find(vpn);
  ORDMA_CHECK_MSG(it != table_.end(), "unmap of unmapped vpn");
  ORDMA_CHECK_MSG(!it->second.pinned(), "unmap of pinned page");
  const Pfn f = it->second.pfn;
  table_.erase(it);
  return f;
}

const PageEntry* AddressSpace::lookup(Vpn vpn) const {
  auto it = table_.find(vpn);
  return it == table_.end() ? nullptr : &it->second;
}

PageEntry* AddressSpace::lookup_mutable(Vpn vpn) {
  auto it = table_.find(vpn);
  return it == table_.end() ? nullptr : &it->second;
}

void AddressSpace::pin(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e && e->present, "pin of non-resident page");
  ++e->pin_count;
}

void AddressSpace::unpin(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e && e->pin_count > 0, "unbalanced unpin");
  --e->pin_count;
}

void AddressSpace::lock(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "lock of unmapped page");
  e->locked = true;
}

void AddressSpace::unlock(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "unlock of unmapped page");
  e->locked = false;
}

void AddressSpace::protect(Vpn vpn, bool writable) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "protect of unmapped page");
  e->writable = writable;
}

Result<Paddr> AddressSpace::translate(Vaddr va, bool for_write) const {
  const auto* e = lookup(page_of(va));
  if (!e || !e->present) return Errc::access_fault;
  if (for_write && !e->writable) return Errc::access_fault;
  return frame_base(e->pfn) + page_offset(va);
}

template <typename Fn>
Status AddressSpace::for_each_page(Vaddr va, Bytes len, bool for_write,
                                   Fn&& fn) const {
  Bytes done = 0;
  while (done < len) {
    const Bytes chunk =
        std::min<Bytes>(len - done, kPageSize - page_offset(va + done));
    auto pa = translate(va + done, for_write);
    if (!pa.ok()) return pa.status();
    fn(pa.value(), done, chunk);
    done += chunk;
  }
  return Status::Ok();
}

Status AddressSpace::write(Vaddr va, std::span<const std::byte> data) {
  return for_each_page(va, data.size(), /*for_write=*/true,
                       [&](Paddr pa, Bytes done, Bytes chunk) {
                         phys_.write(pa, data.subspan(done, chunk));
                       });
}

Status AddressSpace::read(Vaddr va, std::span<std::byte> out) const {
  return for_each_page(va, out.size(), /*for_write=*/false,
                       [&](Paddr pa, Bytes done, Bytes chunk) {
                         phys_.read(pa, out.subspan(done, chunk));
                       });
}

Status AddressSpace::zero(Vaddr va, Bytes len) {
  return for_each_page(va, len, /*for_write=*/true,
                       [&](Paddr pa, Bytes, Bytes chunk) {
                         phys_.zero(pa, chunk);
                       });
}

Status AddressSpace::copy_from(Vaddr va, const AddressSpace& src,
                               Vaddr src_va, Bytes len) {
  // The rest of the current destination and source page; each side is
  // translated once per page it enters, not once per copied run.
  std::span<std::byte> to;
  std::span<const std::byte> from;
  Bytes done = 0;
  while (done < len) {
    if (to.empty()) {
      auto pa = translate(va + done, /*for_write=*/true);
      if (!pa.ok()) return pa.status();
      to = phys_.frame_data(frame_of(pa.value()))
               .subspan(page_offset(pa.value()));
    }
    if (from.empty()) {
      auto pa = src.translate(src_va + done, /*for_write=*/false);
      if (!pa.ok()) return pa.status();
      from = src.phys_.view(pa.value(), kPageSize - page_offset(pa.value()));
    }
    const Bytes n =
        std::min({len - done, Bytes{to.size()}, Bytes{from.size()}});
    std::memcpy(to.data(), from.data(), n);
    to = to.subspan(n);
    from = from.subspan(n);
    done += n;
  }
  return Status::Ok();
}

Status AddressSpace::pin_range(Vaddr va, Bytes len) {
  if (len == 0) return Status::Ok();
  const Vpn first = page_of(va);
  const Vpn last = page_of(va + len - 1);
  // Validate first so failure has no side effects.
  for (Vpn v = first; v <= last; ++v) {
    const auto* e = lookup(v);
    if (!e || !e->present) return Status(Errc::access_fault);
  }
  for (Vpn v = first; v <= last; ++v) pin(v);
  return Status::Ok();
}

void AddressSpace::unpin_range(Vaddr va, Bytes len) {
  if (len == 0) return;
  const Vpn first = page_of(va);
  const Vpn last = page_of(va + len - 1);
  for (Vpn v = first; v <= last; ++v) unpin(v);
}

}  // namespace ordma::mem
