// Registration cache for user buffers (§5.1: "avoid registering application
// buffers with the NIC on each I/O by caching registrations"), shared by
// the clients that hand the server a buffer to RDMA into: DAFS direct I/O
// and NFS hybrid.
#pragma once

#include <deque>

#include "common/result.h"
#include "common/stats.h"
#include "crypto/capability.h"
#include "host/host.h"
#include "obs/trace.h"
#include "sim/task.h"

namespace ordma::nas {

class RegistrationCache {
 public:
  // One registered, pinned range, mapping host addresses to NIC addresses.
  struct Entry {
    mem::Vaddr host_base = 0;
    Bytes len = 0;
    crypto::Capability cap;
    mem::Vaddr nic_va(mem::Vaddr host_va) const {
      return cap.base + (host_va - host_base);
    }
  };

  // `exports`, when given, counts the NIC registrations made.
  explicit RegistrationCache(host::Host& host, Counter* exports = nullptr)
      : host_(host), exports_(exports) {}

  // The entry covering [va, va+len), registering its page-aligned range
  // with the NIC on a miss. Entries are stable: they are never dropped.
  sim::Task<Result<Entry*>> ensure(mem::Vaddr va, Bytes len, obs::OpId op);

 private:
  Entry* lookup(mem::Vaddr va, Bytes len);

  host::Host& host_;
  Counter* exports_;
  std::deque<Entry> regs_;
};

}  // namespace ordma::nas
