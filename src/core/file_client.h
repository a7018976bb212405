// The uniform file-access interface every protocol client implements, so
// workloads (streaming reader, Berkeley-DB stand-in, PostMark) are
// protocol-agnostic. Reads and writes move real bytes to/from user-space
// buffers in the client host's address space.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/stats.h"
#include "common/units.h"
#include "fs/server_fs.h"
#include "host/host.h"
#include "mem/physical_memory.h"
#include "obs/sampler.h"
#include "obs/signals.h"
#include "sim/task.h"

namespace ordma::core {

struct OpenResult {
  std::uint64_t fh = 0;
  Bytes size = 0;
};

class FileClient {
 public:
  explicit FileClient(host::Host& host) : host_(host) {}
  virtual ~FileClient() = default;

  host::Host& host() const { return host_; }

  // Uniform per-client op accounting, fed by each protocol's op wrappers
  // via record_op() — the "io/" series the health engine's stock SLOs
  // (obs/health.h) watch. Its own group: ODAFS adopts the counters() of
  // the DAFS client inside it, but not that client's op accounting.
  struct OpStats {
    CounterGroup counters;
    Counter ops{counters, "io/ops"};          // completed, any outcome
    Counter errors{counters, "io/errors"};    // returned a failure Status
    Counter retries{counters, "io/retries"};  // protocol retries within ops
    LatencyHistogram latency_us;
  };
  const OpStats& op_stats() const { return stats_; }
  // The protocol's counters, and those of the helpers it adopted.
  const CounterGroup& counters() const { return counters_; }

  // --- Signal plane (obs/signals.h) ----------------------------------------
  // Always-on EWMA estimators of the mechanism-selection signals (ref hit
  // rate, op size, ORDMA exception rate), populated by every protocol's op
  // wrappers and exported as "<client>/signals/..." gauges. ORDMA-specific
  // series (ref_hit_rate, exception_rate) stay at their unprimed zero for
  // protocols without an ORDMA path, so the policy bench can trace
  // comparable signal blocks for every arm.
  const obs::OpSignals& signals() const { return signals_; }

  virtual sim::Task<Result<OpenResult>> open(const std::string& path) = 0;
  virtual sim::Task<Status> close(std::uint64_t fh) = 0;

  // Read/write `len` bytes at file offset `off` into/from the user buffer
  // at `user_va` (in the client host's user address space). Returns bytes
  // transferred (reads may be short at EOF).
  virtual sim::Task<Result<Bytes>> pread(std::uint64_t fh, Bytes off,
                                         mem::Vaddr user_va, Bytes len) = 0;
  virtual sim::Task<Result<Bytes>> pwrite(std::uint64_t fh, Bytes off,
                                          mem::Vaddr user_va, Bytes len) = 0;

  virtual sim::Task<Result<fs::Attr>> getattr(std::uint64_t fh) = 0;
  virtual sim::Task<Result<OpenResult>> create(const std::string& path) = 0;
  virtual sim::Task<Status> unlink(const std::string& path) = 0;

  // Push any client-side buffered writes to the server (write-back
  // caches). Write-through protocols have nothing buffered.
  virtual sim::Task<Status> sync() { co_return Status::Ok(); }

  virtual const char* protocol_name() const = 0;

 protected:
  // Called by protocol op wrappers at op completion, after the op's trace
  // root (so the sampler has decided keep/drop and the exemplar resolves).
  // Marks the op errored for the trace sampler *iff* !ok has not already
  // been noted — callers that classify failures earlier (retry give-ups)
  // call obs::note_op_error at the decision site instead.
  void record_op(obs::OpId op, Duration d, bool ok) {
    ++stats_.ops;
    if (!ok) ++stats_.errors;
    stats_.latency_us.add(d, obs::exemplar_for(op));
  }
  void note_retry() { ++stats_.retries; }

  // Fold a data op's size into the signal block (call from pread/pwrite
  // wrappers).
  void update_op_signals(Bytes op_len) {
    signals_.op_bytes.update(static_cast<double>(op_len));
  }

  host::Host& host_;
  OpStats stats_;
  CounterGroup counters_;
  obs::OpSignals signals_;
};

}  // namespace ordma::core
