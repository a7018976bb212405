// Tail-latency explainer (obs/explain.h) over real cluster runs: the cause
// sweep must partition every op's envelope (per-cause times sum to the
// end-to-end latency within 2%), clean runs must charge time to the causes
// the protocol actually exercises, and a lossy run must blame its tail on
// rpc_retransmit dead air.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "common/assert.h"
#include "core/cluster.h"
#include "core/file_client.h"
#include "fault/fault.h"
#include "nas/odafs/odafs_client.h"
#include "obs/explain.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

constexpr Bytes kIo = KiB(8);

// Drive a coroutine to completion.
template <typename F>
void drive(Cluster& c, F&& body) {
  bool done = false;
  c.engine().spawn([](F body, bool& done) -> sim::Task<void> {
    co_await body();
    done = true;
  }(std::forward<F>(body), done));
  c.engine().run();
  ASSERT_TRUE(done) << "driver did not finish (deadlock?)";
}

// Run `samples` preads of kIo twice — an untraced warm-up pass, then a
// traced measured pass — and explain the trace. Setup (file creation, open,
// warm-up) always runs with the fault injector disarmed; when
// `arm_measured` is set, faults fire only during the traced pass.
std::map<obs::OpId, obs::CauseBreakdown> run_and_explain(
    Cluster& c, core::FileClient& client, int samples,
    bool arm_measured = false) {
  fault::FaultInjector* inj = c.fault_injector();
  if (inj) inj->set_armed(false);
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", static_cast<Bytes>(samples) * kIo,
                         /*warm=*/true);
  });

  obs::TraceRecorder rec;
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client.open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), kIo);
    for (int i = 0; i < samples; ++i) {
      auto r = co_await client.pread(open.value().fh,
                                     static_cast<Bytes>(i) * kIo, buf, kIo);
      ORDMA_CHECK(r.ok() && r.value() == kIo);
    }
    if (inj && arm_measured) inj->set_armed(true);
    obs::install(&rec);
    for (int i = 0; i < samples; ++i) {
      auto r = co_await client.pread(open.value().fh,
                                     static_cast<Bytes>(i) * kIo, buf, kIo);
      ORDMA_CHECK(r.ok() && r.value() == kIo);
    }
    obs::install(static_cast<obs::TraceRecorder*>(nullptr));
    if (inj) inj->set_armed(false);
  });

  auto ops = obs::explain(rec);
  for (auto it = ops.begin(); it != ops.end();) {
    if (std::string_view(it->second.root_name) != "op/pread") {
      it = ops.erase(it);
    } else {
      ++it;
    }
  }
  return ops;
}

// The partition property: causes sum to the op's end-to-end latency.
void check_sums(const std::map<obs::OpId, obs::CauseBreakdown>& ops,
                int samples) {
  ASSERT_EQ(ops.size(), static_cast<std::size_t>(samples));
  for (const auto& [op, bd] : ops) {
    EXPECT_GT(bd.total_us, 0.0) << "op " << op;
    EXPECT_NEAR(bd.sum_us(), bd.total_us, 0.02 * bd.total_us)
        << "op " << op << " causes do not sum to its latency";
  }
}

double total(const std::map<obs::OpId, obs::CauseBreakdown>& ops,
             obs::Cause c) {
  double t = 0;
  for (const auto& [op, bd] : ops) t += bd[c];
  return t;
}

// The label is escaped like every obs JSON string, control characters
// included.
TEST(Explain, LabelWithControlCharacterIsEscaped) {
  std::ostringstream os;
  obs::write_explain_json(os, "nfs\t\"8KB\"", {});
  EXPECT_NE(os.str().find(R"("label": "nfs\u0009\"8KB\"")"),
            std::string::npos)
      << os.str();
}

TEST(Explain, NfsCleanRunSumsAndBlamesRealWork) {
  Cluster c;
  c.start_nfs();
  auto client = c.make_nfs_client(0);
  const auto ops = run_and_explain(c, *client, 16);
  check_sums(ops, 16);
  // A clean warm-cache NFS read spends time on both hosts' CPUs, the NIC
  // and the wire — and on nothing pathological.
  EXPECT_GT(total(ops, obs::Cause::client_cpu), 0.0);
  EXPECT_GT(total(ops, obs::Cause::server_cpu), 0.0);
  EXPECT_GT(total(ops, obs::Cause::nic), 0.0);
  EXPECT_GT(total(ops, obs::Cause::wire), 0.0);
  EXPECT_EQ(total(ops, obs::Cause::rpc_retransmit), 0.0);
  EXPECT_EQ(total(ops, obs::Cause::disk_media), 0.0);
  EXPECT_EQ(total(ops, obs::Cause::disk_queue), 0.0);
}

TEST(Explain, DafsCleanRunSums) {
  Cluster c;
  c.start_dafs();
  nas::dafs::DafsClientConfig cfg;
  cfg.completion = msg::Completion::block;
  auto client = c.make_dafs_client(0, cfg);
  const auto ops = run_and_explain(c, *client, 16);
  check_sums(ops, 16);
  EXPECT_GT(total(ops, obs::Cause::nic), 0.0);
  EXPECT_GT(total(ops, obs::Cause::wire), 0.0);
}

TEST(Explain, OdafsCleanRunSumsAndSeesCacheFills) {
  ClusterConfig cc;
  cc.fs.block_size = kIo;
  Cluster c(cc);
  c.start_dafs({.piggyback_refs = true});
  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = kIo;
  // Fewer data blocks than the measured range: the traced pass misses the
  // data cache, finds harvested references and goes ORDMA (the §5.2 setup).
  cfg.cache.data_blocks = 8;
  cfg.cache.max_headers = 64;
  cfg.dafs.completion = msg::Completion::block;
  auto client = c.make_odafs_client(0, cfg);
  auto* odafs = client.get();
  const auto ops = run_and_explain(c, *client, 16);
  check_sums(ops, 16);
  EXPECT_GT(odafs->ordma_reads(), 0u);
  EXPECT_GT(total(ops, obs::Cause::cache_fill), 0.0);
  EXPECT_GT(total(ops, obs::Cause::wire), 0.0);
}

TEST(Explain, LossyRunBlamesTheTailOnRetransmits) {
  ClusterConfig cc;
  cc.faults = fault::FaultPlan{};  // deterministic seed 1
  cc.faults->eth.drop = 0.05;
  cc.rpc_retry.timeout = usec(500);
  cc.rpc_retry.max_attempts = 8;
  Cluster c(cc);
  c.start_nfs();
  auto client = c.make_nfs_client(0);
  const auto ops = run_and_explain(c, *client, 48, /*arm_measured=*/true);
  check_sums(ops, 48);

  // The seeded drops forced at least one retransmit, and the slowest op is
  // dominated by its backoff dead air — the explainer names the culprit.
  EXPECT_GT(total(ops, obs::Cause::rpc_retransmit), 0.0);
  const auto top = obs::slowest(ops, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_GT(top[0][obs::Cause::rpc_retransmit], 0.0);
  EXPECT_EQ(top[0].dominant(), obs::Cause::rpc_retransmit)
      << "slowest op dominated by " << obs::cause_name(top[0].dominant());
}

// With the tail sampler between the clients and the recorder, the explain
// document's per-cause "exemplars" are op ids whose traces were *kept* —
// the reader can jump from cause to retained trace.
TEST(Explain, ExemplarsAreKeptOpIdsUnderSampling) {
  ClusterConfig cc;
  cc.faults = fault::FaultPlan{};  // deterministic seed 1
  cc.faults->eth.drop = 0.05;
  cc.rpc_retry.timeout = usec(500);
  cc.rpc_retry.max_attempts = 8;
  Cluster c(cc);
  c.start_nfs();
  auto client = c.make_nfs_client(0);

  fault::FaultInjector* inj = c.fault_injector();
  inj->set_armed(false);
  constexpr int kSamples = 48;
  drive(c, [&]() -> sim::Task<void> {
    co_await c.make_file("f", static_cast<Bytes>(kSamples) * kIo,
                         /*warm=*/true);
  });

  obs::TraceRecorder rec;
  obs::TraceSampler sampler(rec);
  drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), kIo);
    inj->set_armed(true);
    obs::install(&rec);
    for (int i = 0; i < kSamples; ++i) {
      auto r = co_await client->pread(open.value().fh,
                                      static_cast<Bytes>(i) * kIo, buf, kIo);
      ORDMA_CHECK(r.ok() && r.value() == kIo);
    }
    obs::install(static_cast<obs::TraceRecorder*>(nullptr));
    inj->set_armed(false);
  });
  sampler.finish();

  // The recorder now holds only kept ops; the seeded drops guarantee at
  // least one retried (hence kept) op.
  ASSERT_GT(sampler.ops_kept(), 0u);
  ASSERT_LT(sampler.ops_kept(), sampler.ops_decided());
  auto ops = obs::explain(rec);
  ASSERT_FALSE(ops.empty());
  for (const auto& [op, bd] : ops) {
    EXPECT_TRUE(sampler.kept(op)) << "explained op " << op << " not kept";
  }

  std::ostringstream os;
  obs::write_explain_json(os, "sampled", ops);
  const std::string doc = os.str();
  const auto ex = doc.find("\"exemplars\"");
  ASSERT_NE(ex, std::string::npos);
  // The retransmit-dominated tail has a nonzero exemplar, and it is kept.
  const auto key = doc.find("\"rpc_retransmit\": ", ex);
  ASSERT_NE(key, std::string::npos);
  const obs::OpId exemplar = std::stoull(
      doc.substr(key + std::string_view("\"rpc_retransmit\": ").size()));
  EXPECT_NE(exemplar, 0u);
  EXPECT_TRUE(sampler.kept(exemplar));
}

}  // namespace
}  // namespace ordma
