#include "policy/policy.h"


namespace ordma::policy {

PolicyEngine::PolicyEngine(const PolicyConfig& cfg)
    : cfg_(cfg),
      ordma_us_(cfg.alpha),
      rpc_read_us_(cfg.alpha),
      exception_us_(cfg.alpha),
      put_us_(cfg.alpha),
      rpc_write_us_(cfg.alpha),
      wb_us_(cfg.alpha),
      flush_us_(cfg.alpha) {
  // Seed the estimators so cost comparisons are defined from decision one.
  ordma_us_.update(cfg.prior_ordma_us);
  rpc_read_us_.update(cfg.prior_rpc_read_us);
  exception_us_.update(cfg.prior_exception_us);
  put_us_.update(cfg.prior_put_us);
  rpc_write_us_.update(cfg.prior_rpc_write_us);
  wb_us_.update(cfg.prior_wb_us);
  flush_us_.update(cfg.prior_put_us);
}

void PolicyEngine::rate_update(double& rate, bool hit) {
  if (hit) {
    rate += cfg_.alpha * (1.0 - rate);
  } else {
    rate *= 1.0 - cfg_.fault_decay;
  }
}

double PolicyEngine::read_cost(ReadMech m) const {
  if (m == ReadMech::ordma) {
    // Expected cost of trying ORDMA first: the get itself, plus — at the
    // current fault rate — a wasted exception round trip and the RPC that
    // recovers it.
    return ordma_us_.value() +
           exc_rate_ * (exception_us_.value() + rpc_read_us_.value());
  }
  return rpc_read_us_.value();
}

double PolicyEngine::write_cost(WriteArm arm) const {
  switch (arm) {
    case WriteArm::rpc:
      return rpc_write_us_.value();
    case WriteArm::put:
      // A put that finds no usable write reference degrades to RPC; charge
      // that path at the observed degradation rate.
      return put_us_.value() +
             put_fallback_rate_ * rpc_write_us_.value();
    case WriteArm::write_back:
      // The op itself is a cache dirty + return; the deferred flush is the
      // real bill. Charging one flush per op is conservative (sequential
      // writes coalesce many ops into one flush), which keeps the engine
      // from treating write-back as free.
      return wb_us_.value() + flush_us_.value();
  }
  return 0.0;
}

ReadMech PolicyEngine::choose_read() {
  ++n_.read_decisions;
  const double cost_ordma = read_cost(ReadMech::ordma);
  const double cost_rpc = read_cost(ReadMech::rpc);
  // Hysteresis: the challenger must undercut the incumbent by the guard
  // band; ties and near-ties keep the current preference.
  if (read_pref_ == ReadMech::ordma) {
    if (cost_rpc < cost_ordma * (1.0 - cfg_.guard_band)) {
      read_pref_ = ReadMech::rpc;
      ++n_.read_flips;
    }
  } else if (cost_ordma < cost_rpc * (1.0 - cfg_.guard_band)) {
    read_pref_ = ReadMech::ordma;
    ++n_.read_flips;
  }
  ReadMech pick = read_pref_;
  if (cfg_.explore_every != 0 &&
      n_.read_decisions % cfg_.explore_every == 0) {
    // Forced exploration (deterministic op-counter cadence): re-measure
    // the disfavored mechanism so its estimate tracks reality.
    pick = read_pref_ == ReadMech::ordma ? ReadMech::rpc : ReadMech::ordma;
    ++n_.read_explored;
  }
  if (pick == ReadMech::rpc) ++n_.read_vetoes;
  return pick;
}

void PolicyEngine::observe_read(ReadMech m, double latency_us, bool faulted) {
  if (m == ReadMech::rpc) {
    rpc_read_us_.update(latency_us);
    return;
  }
  rate_update(exc_rate_, faulted);
  if (faulted) {
    exception_us_.update(latency_us);
  } else {
    ordma_us_.update(latency_us);
  }
}

WriteArm PolicyEngine::choose_write() {
  ++n_.write_decisions;
  const WriteArm arms[] = {WriteArm::rpc, WriteArm::put,
                           WriteArm::write_back};
  const std::size_t n_arms = cfg_.allow_write_back ? 3 : 2;
  // Cheapest challenger vs the incumbent, with the same guard band.
  WriteArm best = write_pref_;
  double best_cost = write_cost(write_pref_);
  for (std::size_t i = 0; i < n_arms; ++i) {
    if (arms[i] == write_pref_) continue;
    const double c = write_cost(arms[i]);
    if (c < best_cost) {
      best = arms[i];
      best_cost = c;
    }
  }
  if (best != write_pref_ &&
      best_cost < write_cost(write_pref_) * (1.0 - cfg_.guard_band)) {
    write_pref_ = best;
    ++n_.write_flips;
  }
  WriteArm pick = write_pref_;
  if (cfg_.explore_every != 0 &&
      n_.write_decisions % cfg_.explore_every == 0) {
    // Rotate deterministically through the non-preferred arms.
    std::size_t alt =
        (n_.write_decisions / cfg_.explore_every) % (n_arms - 1);
    for (std::size_t i = 0; i < n_arms; ++i) {
      if (arms[i] == write_pref_) continue;
      if (alt-- == 0) {
        pick = arms[i];
        break;
      }
    }
    ++n_.write_explored;
  }
  return pick;
}

void PolicyEngine::observe_write(WriteArm arm, double latency_us,
                                 bool fell_back) {
  switch (arm) {
    case WriteArm::rpc:
      rpc_write_us_.update(latency_us);
      break;
    case WriteArm::put:
      rate_update(put_fallback_rate_, fell_back);
      // A degraded op's latency is put-attempt + RPC — charging it to the
      // put estimator would double-count the fallback term, so only clean
      // puts update it.
      if (!fell_back) put_us_.update(latency_us);
      break;
    case WriteArm::write_back:
      wb_us_.update(latency_us);
      break;
  }
}

void PolicyEngine::observe_flush(double latency_us) {
  flush_us_.update(latency_us);
}

}  // namespace ordma::policy
