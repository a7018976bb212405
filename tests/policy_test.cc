// Unit tests for the adaptive per-op protocol selection engine
// (policy/policy.h): hysteresis (no flapping inside the guard band),
// convergence (flips once evidence clears it), deterministic forced
// exploration, write-arm gating, and decision determinism.
#include <gtest/gtest.h>

#include <vector>

#include "policy/policy.h"

namespace ordma::policy {
namespace {

PolicyConfig enabled_config() {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.explore_every = 0;  // most tests want no exploration noise
  return cfg;
}

TEST(PolicyEngine, DisabledByDefaultAndGatesWriteBack) {
  PolicyConfig def;
  EXPECT_FALSE(def.enabled);
  PolicyEngine off(def);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.adapts_writes());
  EXPECT_FALSE(off.may_write_back());

  PolicyConfig on = enabled_config();
  PolicyEngine eng(on);
  EXPECT_TRUE(eng.enabled());
  EXPECT_TRUE(eng.adapts_writes());
  // allow_write_back defaults off: write-back changes durability semantics.
  EXPECT_FALSE(eng.may_write_back());
}

TEST(PolicyEngine, HoldsPreferenceInsideGuardBand) {
  PolicyConfig cfg = enabled_config();
  cfg.guard_band = 0.15;
  PolicyEngine eng(cfg);
  ASSERT_EQ(eng.read_pref(), ReadMech::ordma);
  // Make RPC slightly cheaper than ORDMA — but within the guard band, so
  // the incumbent must hold (no flapping at the crossover).
  for (int i = 0; i < 64; ++i) {
    eng.observe_read(ReadMech::ordma, 50.0, /*faulted=*/false);
    eng.observe_read(ReadMech::rpc, 45.0, /*faulted=*/false);
  }
  EXPECT_LT(eng.read_cost(ReadMech::rpc), eng.read_cost(ReadMech::ordma));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(eng.choose_read(), ReadMech::ordma);
  EXPECT_EQ(eng.counters().read_flips, 0u);
}

TEST(PolicyEngine, FlipsOncePastGuardBandAndFlipsBack) {
  PolicyConfig cfg = enabled_config();
  PolicyEngine eng(cfg);
  // Faulting ORDMA: every attempt burns an exception round trip, so the
  // modeled ORDMA cost climbs well past RPC's.
  for (int i = 0; i < 64; ++i) {
    eng.observe_read(ReadMech::ordma, 30.0, /*faulted=*/true);
    eng.observe_read(ReadMech::rpc, 80.0, /*faulted=*/false);
  }
  EXPECT_EQ(eng.choose_read(), ReadMech::rpc);
  EXPECT_EQ(eng.read_pref(), ReadMech::rpc);
  EXPECT_EQ(eng.counters().read_flips, 1u);
  EXPECT_GE(eng.exception_rate(), 0.9);
  // Faults clear (references fresh again): preference recovers.
  for (int i = 0; i < 64; ++i) {
    eng.observe_read(ReadMech::ordma, 30.0, /*faulted=*/false);
  }
  EXPECT_EQ(eng.choose_read(), ReadMech::ordma);
  EXPECT_EQ(eng.counters().read_flips, 2u);
}

TEST(PolicyEngine, ExplorationCadenceIsDeterministic) {
  PolicyConfig cfg = enabled_config();
  cfg.explore_every = 4;
  PolicyEngine eng(cfg);
  std::vector<ReadMech> picks;
  for (int i = 0; i < 12; ++i) picks.push_back(eng.choose_read());
  // Every 4th decision (1-indexed) must issue the disfavored mechanism.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(picks[i], (i + 1) % 4 == 0 ? ReadMech::rpc : ReadMech::ordma)
        << "decision " << i;
  }
  EXPECT_EQ(eng.counters().read_explored, 3u);
  EXPECT_EQ(eng.counters().read_flips, 0u);
}

TEST(PolicyEngine, WriteBackArmRequiresOptIn) {
  PolicyConfig cfg = enabled_config();
  cfg.explore_every = 8;
  PolicyEngine eng(cfg);
  // Make write-back look free; without the opt-in it must never be picked,
  // not even by exploration.
  for (int i = 0; i < 64; ++i) eng.observe_write(WriteArm::write_back, 1.0,
                                                 /*fell_back=*/false);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(eng.choose_write(), WriteArm::write_back);
  }

  cfg.allow_write_back = true;
  PolicyEngine eng2(cfg);
  for (int i = 0; i < 64; ++i) {
    eng2.observe_write(WriteArm::write_back, 1.0, /*fell_back=*/false);
    eng2.observe_flush(1.0);
  }
  bool saw_wb = false;
  for (int i = 0; i < 8 && !saw_wb; ++i) {
    saw_wb = eng2.choose_write() == WriteArm::write_back;
  }
  EXPECT_TRUE(saw_wb);
}

TEST(PolicyEngine, PutDegradationShiftsWritePreferenceToRpc) {
  PolicyConfig cfg = enabled_config();
  PolicyEngine eng(cfg);
  ASSERT_EQ(eng.write_pref(), WriteArm::put);
  // Every put degrades to RPC (no usable reference): modeled put cost is
  // put + fallback-rate * rpc, which overtakes plain RPC.
  for (int i = 0; i < 64; ++i) {
    eng.observe_write(WriteArm::put, 130.0, /*fell_back=*/true);
    eng.observe_write(WriteArm::rpc, 80.0, /*fell_back=*/false);
  }
  EXPECT_EQ(eng.choose_write(), WriteArm::rpc);
  EXPECT_EQ(eng.write_pref(), WriteArm::rpc);
}

TEST(PolicyEngine, IdenticalHistoryGivesIdenticalDecisions) {
  PolicyConfig cfg = enabled_config();
  cfg.explore_every = 8;
  PolicyEngine a(cfg), b(cfg);
  // Interleave decisions and observations; both engines see the same
  // history and must produce the same choice sequence (determinism is what
  // keeps golden hashes stable at any worker count).
  std::vector<int> seq_a, seq_b;
  for (int i = 0; i < 200; ++i) {
    const bool fault = (i / 16) % 2 == 1;  // alternating fault regimes
    for (PolicyEngine* e : {&a, &b}) {
      auto& out = e == &a ? seq_a : seq_b;
      out.push_back(static_cast<int>(e->choose_read()));
      e->observe_read(ReadMech::ordma, fault ? 30.0 : 40.0, fault);
      out.push_back(static_cast<int>(e->choose_write()));
      e->observe_write(WriteArm::put, 50.0, /*fell_back=*/false);
    }
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_EQ(a.counters().read_flips, b.counters().read_flips);
  EXPECT_EQ(a.counters().read_explored, b.counters().read_explored);
}

}  // namespace
}  // namespace ordma::policy
