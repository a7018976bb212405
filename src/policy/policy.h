// Adaptive per-op protocol selection (ROADMAP item 4).
//
// The paper's Fig. 7 shows client-initiated ORDMA only wins while the
// client's reference directory hits in the server cache; RFP's analysis
// says the RPC-vs-remote-read crossover moves with request size and server
// load. So no static mechanism choice is right across a run — this engine
// decides *per I/O* which mechanism to issue, from a small cost model over
// its own per-mechanism latency and fault-rate estimators (the EWMAs of
// obs/signals.h). A client cannot see the server's CPU; a load the cost
// model needs would have to ride in reply headers.
//
// Design constraints, in order:
//  * Deterministic. No RNG, no scheduling, no simulated time consumed by a
//    decision: choices are pure functions of (config, observed history), so
//    golden-hash determinism holds at any worker count, and a run with the
//    engine disabled is bit-identical to one without it.
//  * No flapping. Preferences are sticky: a challenger mechanism must
//    undercut the incumbent's modeled cost by a guard band before the
//    preference flips (hysteresis), so noise near the crossover does not
//    ping-pong the client between mechanisms.
//  * Estimates stay fresh. A mechanism the policy stops using would never
//    be re-measured and could be shunned forever; a forced-exploration
//    trickle (every Nth decision, a plain op counter — no RNG) issues the
//    disfavored mechanism so its estimate tracks reality.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "obs/signals.h"

namespace ordma::policy {

// Read mechanism for one block fetch that holds a usable remote reference
// (without a reference RPC is forced and no decision is made).
enum class ReadMech { ordma, rpc };

// Write arm for one pwrite (mirrors nas::odafs::WritePolicy).
enum class WriteArm { rpc, put, write_back };

struct PolicyConfig {
  bool enabled = false;

  // Latency priors (us) seeding the per-mechanism estimators, so the first
  // decisions are sane before any observation lands. Values are in the
  // ballpark of the simulated cost model's small-block round trips; they
  // wash out after a handful of ops.
  double prior_ordma_us = 40.0;
  double prior_rpc_read_us = 80.0;
  double prior_exception_us = 30.0;
  double prior_put_us = 50.0;
  double prior_rpc_write_us = 80.0;
  double prior_wb_us = 20.0;

  // Smoothing for the engine's own latency / fault-rate estimators.
  double alpha = 0.25;
  // Fast-release factor for the binary fault/fallback-rate estimators:
  // faults attack at `alpha`, clean observations release by this fraction.
  // Faults arrive in phases (a revoked region, a churned server cache), and
  // once a mechanism is shunned it is only re-measured every
  // `explore_every` decisions — a symmetric EWMA would need dozens of
  // probes to rehabilitate it after the phase ends.
  double fault_decay = 0.5;
  // Hysteresis: a challenger must undercut the incumbent's modeled cost by
  // this fraction before the preference flips.
  double guard_band = 0.15;
  // Forced-exploration trickle: every Nth decision issues the disfavored
  // mechanism (0 disables exploration — estimates can go stale).
  unsigned explore_every = 64;

  // Consult the engine for the write arm too (else only reads adapt).
  bool adapt_writes = true;
  // Let the engine pick the write-back arm. Off by default: write-back
  // changes durability semantics (dirty data survives in the client until
  // flush/sync), so callers opt in explicitly.
  bool allow_write_back = false;
};

class PolicyEngine {
 public:
  struct Counters {
    CounterGroup group;
    Counter read_decisions{group, "policy/read_decisions"};  // choose_read
    Counter read_flips{group, "policy/read_flips"};  // preference changes
    Counter read_explored{group, "policy/read_explored"};  // forced reads
    Counter read_vetoes{group, "policy/read_vetoes"};  // ref held, RPC chosen
    Counter write_decisions{group, "policy/write_decisions"};  // choose_write
    Counter write_flips{group, "policy/write_flips"};  // preference changes
    Counter write_explored{group, "policy/write_explored"};  // forced writes
  };

  explicit PolicyEngine(const PolicyConfig& cfg);

  bool enabled() const { return cfg_.enabled; }
  bool adapts_writes() const { return cfg_.enabled && cfg_.adapt_writes; }
  bool may_write_back() const {
    return adapts_writes() && cfg_.allow_write_back;
  }

  // Decide the mechanism for one block fetch holding a usable reference.
  ReadMech choose_read();
  // Feed back what the mechanism actually cost. A faulted ORDMA attempt's
  // latency is the wasted exception round trip (the RPC recovery that
  // follows is observed separately as an rpc read).
  void observe_read(ReadMech m, double latency_us, bool faulted);

  // Decide the arm for one pwrite.
  WriteArm choose_write();
  // `fell_back` — a put-family arm degraded to RPC (no/revoked reference).
  void observe_write(WriteArm arm, double latency_us, bool fell_back);
  // Deferred cost of the write-back arm: a dirty-block flush completed.
  void observe_flush(double latency_us);

  // Modeled costs (us) — the numbers choose_* compares; exposed for tests
  // and bench traces.
  double read_cost(ReadMech m) const;
  double write_cost(WriteArm arm) const;

  ReadMech read_pref() const { return read_pref_; }
  WriteArm write_pref() const { return write_pref_; }
  double exception_rate() const { return exc_rate_; }
  const Counters& counters() const { return n_; }

 private:
  // Asymmetric update for a binary rate: attack at cfg_.alpha, release by
  // cfg_.fault_decay (see PolicyConfig::fault_decay).
  void rate_update(double& rate, bool hit);

  PolicyConfig cfg_;

  // Per-mechanism latency estimators (seeded from the priors).
  obs::Ewma ordma_us_;
  obs::Ewma rpc_read_us_;
  obs::Ewma exception_us_;  // cost of a faulted ORDMA attempt
  obs::Ewma put_us_;
  obs::Ewma rpc_write_us_;
  obs::Ewma wb_us_;
  obs::Ewma flush_us_;
  // Engine-owned fault-rate estimators (asymmetric: see rate_update), kept
  // as raw doubles and updated exactly at observation sites.
  double exc_rate_ = 0.0;
  double put_fallback_rate_ = 0.0;

  ReadMech read_pref_ = ReadMech::ordma;
  WriteArm write_pref_ = WriteArm::put;
  Counters n_;
};

}  // namespace ordma::policy
