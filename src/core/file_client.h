// The uniform file-access interface every protocol client implements, so
// workloads (streaming reader, Berkeley-DB stand-in, PostMark) are
// protocol-agnostic. Reads and writes move real bytes to/from user-space
// buffers in the client host's address space.
#pragma once

#include <cstdint>
#include <optional>
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
  explicit FileClient(host::Host& host)
      : host_(host), trk_app_(host.name(), "app") {}
  virtual ~FileClient() = default;

  host::Host& host() const { return host_; }

  // Uniform per-client op accounting, fed by run_op() — the "io/" series
  // the health engine's stock SLOs (obs/health.h) watch. Its own group:
  // ODAFS adopts the counters() of the DAFS client inside it, but not that
  // client's op accounting.
  struct OpStats {
    CounterGroup counters;
    Counter ops{counters, "io/ops"};          // completed, any outcome
    Counter errors{counters, "io/errors"};    // returned a failure Status
    Counter retries{counters, "io/retries"};  // re-issued attempts (reissue)
    LatencyHistogram latency_us;
  };
  const OpStats& op_stats() const { return stats_; }
  // The protocol's counters, and those of the helpers it adopted.
  const CounterGroup& counters() const { return counters_; }

  // --- Signal plane (obs/signals.h) ----------------------------------------
  // Always-on EWMA estimators of the mechanism-selection signals (ref hit
  // rate, op size, ORDMA exception rate), populated by run_op() and the
  // protocols' fetch paths, and exported as "<client>/signals/..." gauges.
  // ORDMA-specific series (ref_hit_rate, exception_rate) stay at their
  // unprimed zero for protocols without an ORDMA path, so the policy bench
  // can trace comparable signal blocks for every arm.
  const obs::OpSignals& signals() const { return signals_; }

  virtual sim::Task<Result<OpenResult>> open(const std::string& path) = 0;
  virtual sim::Task<Status> close(std::uint64_t fh) = 0;

  // Read/write `len` bytes at file offset `off` into/from the user buffer
  // at `user_va` (in the client host's user address space). Returns bytes
  // transferred (reads may be short at EOF). These and getattr are the
  // accounted file ops: each runs its protocol's *_op body inside run_op.
  sim::Task<Result<Bytes>> pread(std::uint64_t fh, Bytes off,
                                 mem::Vaddr user_va, Bytes len) {
    return run_op("op/pread", len, [=, this](obs::OpId op) {
      return pread_op(fh, off, user_va, len, op);
    });
  }
  sim::Task<Result<Bytes>> pwrite(std::uint64_t fh, Bytes off,
                                  mem::Vaddr user_va, Bytes len) {
    return run_op("op/pwrite", len, [=, this](obs::OpId op) {
      return pwrite_op(fh, off, user_va, len, op);
    });
  }
  sim::Task<Result<fs::Attr>> getattr(std::uint64_t fh) {
    return run_op("op/getattr", std::nullopt,
                  [=, this](obs::OpId op) { return getattr_op(fh, op); });
  }

  virtual sim::Task<Result<OpenResult>> create(const std::string& path) = 0;
  virtual sim::Task<Status> unlink(const std::string& path) = 0;

  // Push any client-side buffered writes to the server (write-back
  // caches). Write-through protocols have nothing buffered.
  virtual sim::Task<Status> sync() { co_return Status::Ok(); }

  virtual const char* protocol_name() const = 0;

 protected:
  // The protocol bodies of the accounted ops, run under the op id `op`
  // (obs/trace.h) that rides through every layer the op touches.
  virtual sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                            mem::Vaddr user_va, Bytes len,
                                            obs::OpId op) = 0;
  virtual sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                             mem::Vaddr user_va, Bytes len,
                                             obs::OpId op) = 0;
  virtual sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                                 obs::OpId op) = 0;

  // The one op wrapper: a fresh op id, `body(op)`, the op marked errored
  // for the trace sampler on failure, its root span ("op/<name>") on the
  // host's app track, record_op, and for data ops (`data_len` set) the
  // op-size signal. Returns the body's result.
  template <typename Body>
  auto run_op(const char* name, std::optional<Bytes> data_len, Body body)
      -> decltype(body(obs::OpId{})) {
    const obs::OpId op = obs::new_op();
    const SimTime b = host_.engine().now();
    auto r = co_await body(op);
    if (!r.ok()) obs::note_op_error(op);
    const SimTime e = host_.engine().now();
    obs::root(trk_app_, op, name, b, e);
    record_op(op, e - b, r.ok());
    if (data_len) update_op_signals(*data_len);
    co_return r;
  }

  // Failures worth a whole-op re-issue: a request that gave up on
  // retransmits, a transfer refused by a (spuriously) revoked capability,
  // or a transient media or integrity error.
  static bool retryable(Errc e) {
    return e == Errc::timed_out || e == Errc::revoked || e == Errc::io_error;
  }

  // The one whole-op re-issue loop (§4.2: "every ORDMA is prepared to catch
  // that exception and retry via RPC"): awaits `attempt()` until it
  // succeeds, fails with an error `retry_on` rejects, or `max_attempts`
  // attempts (at least one) have run, and returns the last result. A retry
  // is counted exactly when another attempt is issued.
  template <typename Attempt, typename RetryOn>
  auto reissue(unsigned max_attempts, obs::OpId op, RetryOn retry_on,
               Attempt attempt) -> decltype(attempt()) {
    for (unsigned n = 1;; ++n) {
      auto r = co_await attempt();
      if (r.ok() || n >= max_attempts || !retry_on(r.code())) co_return r;
      note_retry();
      obs::note_op_retry(op);
    }
  }

  // Called by run_op at op completion, after the op's trace root (so the
  // sampler has decided keep/drop and the exemplar resolves). Marks the op
  // errored for the trace sampler *iff* !ok has not already been noted —
  // callers that classify failures earlier (retry give-ups) call
  // obs::note_op_error at the decision site instead.
  void record_op(obs::OpId op, Duration d, bool ok) {
    ++stats_.ops;
    if (!ok) ++stats_.errors;
    stats_.latency_us.add(d, obs::exemplar_for(op));
  }
  void note_retry() { ++stats_.retries; }

  // Fold a data op's size into the signal block.
  void update_op_signals(Bytes op_len) {
    signals_.op_bytes.update(static_cast<double>(op_len));
  }

  host::Host& host_;
  OpStats stats_;
  CounterGroup counters_;
  obs::OpSignals signals_;
  obs::Track trk_app_;  // root spans for this client's file ops
};

}  // namespace ordma::core
