// Parameterized cross-protocol conformance tests: every FileClient variant
// must satisfy the same contract — byte-exact reads at arbitrary offsets,
// short reads at EOF, zero-length I/O, create/unlink semantics, and the op
// plane's accounting (one root span and one io/ops count per file op) —
// over the full simulated stack.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster.h"
#include "obs/trace.h"

namespace ordma {
namespace {

using core::Cluster;
using core::ClusterConfig;

enum class Proto { nfs, prepost, hybrid, dafs, dafs_inline, odafs, cached_dafs };

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::nfs: return "nfs";
    case Proto::prepost: return "prepost";
    case Proto::hybrid: return "hybrid";
    case Proto::dafs: return "dafs";
    case Proto::dafs_inline: return "dafs_inline";
    case Proto::odafs: return "odafs";
    case Proto::cached_dafs: return "cached_dafs";
  }
  return "?";
}

std::vector<std::byte> file_pattern(Bytes size, std::uint64_t seed = 1) {
  std::vector<std::byte> out(size);
  std::uint64_t x = seed;
  for (Bytes i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
  return out;
}

struct Rig {
  explicit Rig(Proto p) {
    ClusterConfig cc;
    cc.fs.block_size = KiB(4);
    cluster = std::make_unique<Cluster>(cc);
    switch (p) {
      case Proto::nfs:
        cluster->start_nfs();
        client = cluster->make_nfs_client(0, KiB(32));
        break;
      case Proto::prepost:
        cluster->start_nfs();
        client = cluster->make_prepost_client(0, KiB(32));
        break;
      case Proto::hybrid:
        cluster->start_nfs();
        client = cluster->make_hybrid_client(0, KiB(32));
        break;
      case Proto::dafs:
        cluster->start_dafs();
        client = cluster->make_dafs_client(0);
        break;
      case Proto::dafs_inline: {
        cluster->start_dafs();
        nas::dafs::DafsClientConfig cfg;
        cfg.direct_reads = false;
        client = cluster->make_dafs_client(0, cfg);
        break;
      }
      case Proto::odafs:
      case Proto::cached_dafs: {
        cluster->start_dafs({.piggyback_refs = true});
        nas::odafs::OdafsClientConfig cfg;
        cfg.cache.block_size = KiB(4);
        cfg.cache.data_blocks = 24;
        cfg.cache.max_headers = 1 << 14;
        cfg.use_ordma = p == Proto::odafs;
        client = cluster->make_odafs_client(0, cfg);
        break;
      }
    }
  }

  template <typename F>
  void drive(F&& body) {
    bool done = false;
    cluster->engine().spawn([](F body, bool& done) -> sim::Task<void> {
      co_await body();
      done = true;
    }(std::forward<F>(body), done));
    cluster->engine().run();
    ASSERT_TRUE(done) << "driver deadlocked";
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::FileClient> client;
};

class ProtocolConformance : public ::testing::TestWithParam<Proto> {};

TEST_P(ProtocolConformance, ReadsExactBytesAtArbitraryOffsets) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(96) + 321;
  const auto expect = file_pattern(fsize);
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = rig.cluster->client(0);
    // Offsets chosen to hit: block-aligned, straddling, tail, sub-block.
    const std::pair<Bytes, Bytes> cases[] = {
        {0, KiB(4)},          {KiB(4), KiB(8)},       {123, 4567},
        {KiB(32) - 1, KiB(8)}, {fsize - 100, 100},    {KiB(64) + 7, 1},
        {0, fsize},
    };
    for (const auto& [off, len] : cases) {
      const mem::Vaddr buf = h.map_new(h.user_as(), len);
      auto n = co_await rig.client->pread(open.value().fh, off, buf, len);
      EXPECT_TRUE(n.ok());
      if (!n.ok()) continue;
      EXPECT_EQ(n.value(), len) << "off=" << off << " len=" << len;
      std::vector<std::byte> got(n.value());
      EXPECT_TRUE(h.user_as().read(buf, got).ok());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin() + off))
          << "off=" << off << " len=" << len;
    }
  });
}

TEST_P(ProtocolConformance, ShortReadAtEofAndZeroLength) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(10) + 77;
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(8));

    auto short_read =
        co_await rig.client->pread(open.value().fh, fsize - 50, buf, KiB(8));
    EXPECT_TRUE(short_read.ok());
    EXPECT_EQ(short_read.value(), 50u);

    auto at_eof = co_await rig.client->pread(open.value().fh, fsize, buf,
                                             KiB(8));
    EXPECT_TRUE(at_eof.ok());
    EXPECT_EQ(at_eof.value(), 0u);

    auto past_eof = co_await rig.client->pread(open.value().fh,
                                               fsize + KiB(64), buf, KiB(4));
    EXPECT_TRUE(past_eof.ok());
    EXPECT_EQ(past_eof.value(), 0u);
  });
}

TEST_P(ProtocolConformance, WriteThenReadBackAcrossBlocks) {
  Rig rig(GetParam());
  const auto data = file_pattern(KiB(20) + 11, 9);
  rig.drive([&]() -> sim::Task<void> {
    auto created = co_await rig.client->create("w");
    EXPECT_TRUE(created.ok());
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), data.size());
    EXPECT_TRUE(h.user_as().write(buf, data).ok());
    auto n = co_await rig.client->pwrite(created.value().fh, 0, buf,
                                         data.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), data.size());

    const mem::Vaddr rbuf = h.map_new(h.user_as(), data.size());
    auto r = co_await rig.client->pread(created.value().fh, 0, rbuf,
                                        data.size());
    EXPECT_TRUE(r.ok());
    std::vector<std::byte> got(data.size());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    EXPECT_EQ(got, data);

    // Overwrite a straddling range and re-verify.
    const auto patch = file_pattern(KiB(6), 17);
    const mem::Vaddr pbuf = h.map_new(h.user_as(), patch.size());
    EXPECT_TRUE(h.user_as().write(pbuf, patch).ok());
    auto w2 = co_await rig.client->pwrite(created.value().fh, KiB(3), pbuf,
                                          patch.size());
    EXPECT_TRUE(w2.ok());
    auto r2 = co_await rig.client->pread(created.value().fh, 0, rbuf,
                                         data.size());
    EXPECT_TRUE(r2.ok());
    EXPECT_TRUE(h.user_as().read(rbuf, got).ok());
    for (Bytes i = 0; i < data.size(); ++i) {
      const std::byte want = (i >= KiB(3) && i < KiB(3) + patch.size())
                                 ? patch[i - KiB(3)]
                                 : data[i];
      EXPECT_EQ(got[i], want) << "offset " << i;
    }
  });
}

TEST_P(ProtocolConformance, OpenMissingFileFails) {
  Rig rig(GetParam());
  rig.drive([&]() -> sim::Task<void> {
    auto open = co_await rig.client->open("nope");
    EXPECT_FALSE(open.ok());
    EXPECT_EQ(open.code(), Errc::not_found);
  });
}

TEST_P(ProtocolConformance, GetattrReportsSize) {
  Rig rig(GetParam());
  const Bytes fsize = KiB(12) + 5;
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", fsize, true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    EXPECT_EQ(open.value().size, fsize);
    auto attr = co_await rig.client->getattr(open.value().fh);
    EXPECT_TRUE(attr.ok());
    EXPECT_EQ(attr.value().size, fsize);
  });
}

TEST_P(ProtocolConformance, UnlinkRemovesFile) {
  Rig rig(GetParam());
  rig.drive([&]() -> sim::Task<void> {
    auto created = co_await rig.client->create("gone");
    EXPECT_TRUE(created.ok());
    EXPECT_TRUE((co_await rig.client->unlink("gone")).ok());
    auto open = co_await rig.client->open("gone");
    EXPECT_FALSE(open.ok());
  });
}

// --- The op plane (core::FileClient::run_op) -------------------------------

// Root spans named `name` on client0's app track.
int app_roots(const obs::TraceRecorder& rec, const char* name) {
  int n = 0;
  rec.for_each_event([&](const obs::TraceRecorder::Event& e) {
    if (e.kind == obs::TraceRecorder::Kind::root &&
        std::string(e.name) == name &&
        rec.track_process(e.track) == "client0" &&
        rec.track_component(e.track) == "app") {
      ++n;
    }
  });
  return n;
}

// One accounted op (`op` is lazy: it starts when awaited here): exactly one
// "op/<name>" root and io/ops +1, io/errors +1 iff it failed, and the
// op-size signal moved iff it is a data op.
template <typename T>
sim::Task<void> expect_one_op(Rig& rig, const obs::TraceRecorder& rec,
                              const char* name, bool data_op, bool fails,
                              sim::Task<Result<T>> op) {
  const auto& st = rig.client->op_stats();
  const std::uint64_t ops = st.ops;
  const std::uint64_t errors = st.errors;
  const int roots = app_roots(rec, name);
  const auto& sig = rig.client->signals().op_bytes;
  const bool primed = sig.primed();
  const double bytes = sig.value();
  const auto r = co_await std::move(op);
  EXPECT_EQ(r.ok(), !fails) << name;
  EXPECT_EQ(st.ops, ops + 1) << name;
  EXPECT_EQ(st.errors, errors + (fails ? 1 : 0)) << name;
  EXPECT_EQ(app_roots(rec, name), roots + 1) << name;
  const bool moved = sig.primed() != primed || sig.value() != bytes;
  EXPECT_EQ(moved, data_op) << name;
}

TEST_P(ProtocolConformance, EachFileOpIsOneRootAndOneCount) {
  Rig rig(GetParam());
  obs::TraceRecorder rec;
  obs::install(&rec);
  rig.drive([&]() -> sim::Task<void> {
    co_await rig.cluster->make_file("f", KiB(16), true);
    auto open = co_await rig.client->open("f");
    EXPECT_TRUE(open.ok());
    const std::uint64_t fh = open.value().fh;
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(8));
    // Distinct sizes, so each data op moves the op-size average.
    co_await expect_one_op(rig, rec, "op/pread", true, false,
                           rig.client->pread(fh, 0, buf, KiB(8)));
    co_await expect_one_op(rig, rec, "op/pwrite", true, false,
                           rig.client->pwrite(fh, KiB(4), buf, KiB(2)));
    co_await expect_one_op(rig, rec, "op/getattr", false, false,
                           rig.client->getattr(fh));
  });
  obs::install(static_cast<obs::TraceRecorder*>(nullptr));
}

TEST_P(ProtocolConformance, FailedFileOpAlsoCountsAnError) {
  Rig rig(GetParam());
  obs::TraceRecorder rec;
  obs::install(&rec);
  rig.drive([&]() -> sim::Task<void> {
    const std::uint64_t stale = 0xdead;  // names no file on the server
    auto& h = rig.cluster->client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));
    co_await expect_one_op(rig, rec, "op/pread", true, true,
                           rig.client->pread(stale, 0, buf, KiB(4)));
    co_await expect_one_op(rig, rec, "op/pwrite", true, true,
                           rig.client->pwrite(stale, 0, buf, KiB(1)));
    co_await expect_one_op(rig, rec, "op/getattr", false, true,
                           rig.client->getattr(stale));
  });
  obs::install(static_cast<obs::TraceRecorder*>(nullptr));
}

// A retry is counted exactly when another attempt is issued. Every GM
// frame is dropped while the injector is armed, so each DAFS request times
// out after one transmission.
ClusterConfig lossy_gm() {
  ClusterConfig cc;
  cc.fs.block_size = KiB(4);
  fault::FaultPlan plan;
  plan.gm.drop = 1.0;
  cc.faults = plan;
  return cc;
}

TEST(OpPlaneRetries, DafsReadThatGivesUpCountsAttemptsMinusOne) {
  Cluster c(lossy_gm());
  c.fault_injector()->set_armed(false);
  c.start_dafs();
  nas::dafs::DafsClientConfig cfg;
  cfg.retry.timeout = msec(1);
  cfg.max_io_attempts = 4;
  auto client = c.make_dafs_client(0, cfg);
  bool done = false;
  c.engine().spawn([](Cluster& c, nas::dafs::DafsClient& cl,
                      bool& done) -> sim::Task<void> {
    co_await c.make_file("f", KiB(16), true);
    auto open = co_await cl.open("f");
    EXPECT_TRUE(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));
    c.fault_injector()->set_armed(true);
    auto r = co_await cl.pread(open.value().fh, 0, buf, KiB(4));
    c.fault_injector()->set_armed(false);
    EXPECT_EQ(r.code(), Errc::timed_out);
    EXPECT_EQ(cl.op_stats().retries, 3u);  // max_io_attempts - 1
    EXPECT_EQ(cl.op_stats().errors, 1u);
    done = true;
  }(c, *client, done));
  c.engine().run();
  EXPECT_TRUE(done);
}

TEST(OpPlaneRetries, OdafsRpcWriteReissuedOnceCountsOne) {
  Cluster c(lossy_gm());
  c.fault_injector()->set_armed(false);
  c.start_dafs({.piggyback_refs = true});
  nas::odafs::OdafsClientConfig cfg;
  cfg.cache.block_size = KiB(4);
  cfg.cache.data_blocks = 24;
  cfg.dafs.retry.timeout = msec(1);
  cfg.max_fetch_attempts = 3;
  cfg.write_policy = nas::odafs::WritePolicy::rpc_through;
  auto client = c.make_odafs_client(0, cfg);
  bool done = false;
  c.engine().spawn([](Cluster& c, nas::odafs::OdafsClient& cl,
                      bool& done) -> sim::Task<void> {
    auto created = co_await cl.create("w");
    EXPECT_TRUE(created.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), KiB(4));
    // Armed for the first transmission only: the fault clears well inside
    // its 1 ms timeout, so the re-issue goes through.
    c.fault_injector()->set_armed(true);
    c.engine().spawn([](Cluster& c) -> sim::Task<void> {
      co_await c.engine().delay(usec(500));
      c.fault_injector()->set_armed(false);
    }(c));
    auto n = co_await cl.pwrite(created.value().fh, 0, buf, KiB(4));
    EXPECT_TRUE(n.ok());
    EXPECT_GE(c.fault_injector()->frames_dropped(), 1u);
    EXPECT_EQ(cl.op_stats().retries, 1u);
    EXPECT_EQ(cl.op_stats().errors, 0u);
    done = true;
  }(c, *client, done));
  c.engine().run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolConformance,
    ::testing::Values(Proto::nfs, Proto::prepost, Proto::hybrid, Proto::dafs,
                      Proto::dafs_inline, Proto::odafs, Proto::cached_dafs),
    [](const ::testing::TestParamInfo<Proto>& info) {
      return proto_name(info.param);
    });

}  // namespace
}  // namespace ordma
