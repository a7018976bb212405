// Per-client signal plane: the windowed estimators ROADMAP item 4's
// adaptive protocol policy will read.
//
// The paper's Fig. 7 crossover (and RFP's RPC-vs-remote-read analysis)
// says mechanism selection hinges on a handful of runtime signals: does
// this client's reference directory hit, how big are its ops, how often do
// its ORDMA accesses fault. This header gives
// clients a tiny always-on estimator block for exactly those signals —
// exponentially weighted moving averages, O(1) state, a few flops per op,
// no RNG, no scheduling, no observability dependency — and the cluster
// exports them as plain gauges ("<client>/signals/...") so the timeseries
// sampler, the health engine, and (eventually) the in-process policy
// engine all read the same numbers.
#pragma once

#include <cstdint>

namespace ordma::obs {

// Exponentially weighted moving average; the first sample initializes.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  void update(double x) {
    v_ = primed_ ? alpha_ * x + (1.0 - alpha_) * v_ : x;
    primed_ = true;
  }
  double value() const { return v_; }
  bool primed() const { return primed_; }

 private:
  double alpha_;
  double v_ = 0;
  bool primed_ = false;
};

// One protocol client's signal block. Updated inline at op completion /
// fetch sites; read via gauges at snapshot boundaries.
struct OpSignals {
  // Fraction of block fetches served by client-initiated ORDMA (a held
  // reference hit) rather than server RPC. The Fig. 7 win condition.
  Ewma ref_hit_rate{0.2};
  // Bytes per file op — RFP's crossover moves with request size.
  Ewma op_bytes{0.2};
  // Fraction of ORDMA attempts that faulted (stale/revoked reference).
  Ewma exception_rate{0.2};
};

}  // namespace ordma::obs
