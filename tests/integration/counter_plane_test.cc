// The counter plane (common/stats.h Counter/CounterGroup, exported by
// obs::MetricsRegistry::export_counters): every pinned series is exported
// at its path with the value its owner's getter returns, and a counter
// declared in a component exports itself with no other edit.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/metrics.h"

namespace ordma {
namespace {

// Every path this cluster exported when each series was registered by hand
// (a series may be added, never lost): NFS and DAFS servers, the
// adversarial fault plan, and an ODAFS (client0, policy engine on), an NFS
// (client1) and a DAFS (client2) client. It includes every series of
// examples/quickstart's --metrics document.
const std::vector<std::string> kPinnedPaths = {
      "client0/cache/data_hits", "client0/cache/data_misses",
      "client0/cache/refs_held", "client0/cpu/busy_us", "client0/io/errors",
      "client0/io/latency_us", "client0/io/ops", "client0/io/retries",
      "client0/nic/fw_busy_us", "client0/nic/ordma_faults",
      "client0/nic/ordma_served", "client0/nic/ordma_timeouts",
      "client0/nic/rx_queue", "client0/odafs/inval_drops",
      "client0/odafs/invalidates_rx", "client0/odafs/ordma_reads",
      "client0/odafs/put_commits", "client0/odafs/put_fallbacks",
      "client0/odafs/puts_issued", "client0/odafs/rpc_reads",
      "client0/odafs/wb_flushes", "client0/policy/read_decisions",
      "client0/policy/read_explored", "client0/policy/read_flips",
      "client0/policy/read_pref", "client0/policy/read_vetoes",
      "client0/policy/write_decisions", "client0/policy/write_explored",
      "client0/policy/write_flips", "client0/signals/exception_rate",
      "client0/signals/op_bytes", "client0/signals/ref_hit_rate",
      "client1/cpu/busy_us", "client1/io/errors", "client1/io/latency_us",
      "client1/io/ops", "client1/io/retries", "client1/nic/fw_busy_us",
      "client1/nic/ordma_faults", "client1/nic/ordma_served",
      "client1/nic/ordma_timeouts", "client1/nic/rx_queue",
      "client1/signals/exception_rate", "client1/signals/op_bytes",
      "client1/signals/ref_hit_rate", "client2/cpu/busy_us",
      "client2/io/errors", "client2/io/latency_us", "client2/io/ops",
      "client2/io/retries", "client2/nic/fw_busy_us",
      "client2/nic/ordma_faults", "client2/nic/ordma_served",
      "client2/nic/ordma_timeouts", "client2/nic/rx_queue",
      "client2/signals/exception_rate", "client2/signals/op_bytes",
      "client2/signals/ref_hit_rate", "fault/cap_revokes", "fault/disk_errors",
      "fault/doorbell_stalls", "fault/frames_corrupted", "fault/frames_delayed",
      "fault/frames_dropped", "fault/frames_duplicated", "fault/put_revokes",
      "fault/tlb_invalidates", "net/0/down_backlog", "net/0/down_bytes",
      "net/0/up_backlog", "net/0/up_bytes", "net/1/down_backlog",
      "net/1/down_bytes", "net/1/up_backlog", "net/1/up_bytes",
      "net/2/down_backlog", "net/2/down_bytes", "net/2/up_backlog",
      "net/2/up_bytes", "net/3/down_backlog", "net/3/down_bytes",
      "net/3/up_backlog", "net/3/up_bytes", "server/cache/hits",
      "server/cache/misses", "server/cpu/busy_us",
      "server/dafs/invalidation_giveups", "server/dafs/invalidations_sent",
      "server/dafs/put_commits", "server/dafs/put_rejects",
      "server/dafs/wb_syncs", "server/disk/reads", "server/disk/writes",
      "server/nic/fw_busy_us", "server/nic/ordma_faults",
      "server/nic/ordma_served", "server/nic/ordma_timeouts",
      "server/nic/put_dups_dropped", "server/nic/puts_served",
      "server/nic/rx_queue", "server/rpc/cksum_drops", "server/rpc/dup_drops",
      "server/rpc/dup_replays",
};

core::ClusterConfig plane_config() {
  core::ClusterConfig cc;
  cc.num_clients = 3;
  cc.faults = fault::FaultPlan::adversarial(7);
  cc.rpc_retry.timeout = msec(2);
  cc.rpc_retry.max_attempts = 8;
  cc.rpc_retry.max_timeout = msec(50);
  cc.nic.op_timeout = msec(50);
  return cc;
}

nas::dafs::DafsClientConfig dafs_config() {
  nas::dafs::DafsClientConfig cfg;
  cfg.retry = plane_config().rpc_retry;
  cfg.max_io_attempts = 6;
  return cfg;
}

// A DAFS client with one counter more than the stock one, declared the
// only way a component declares a counter.
class ProbedDafsClient : public nas::dafs::DafsClient {
 public:
  using DafsClient::DafsClient;
  Counter probes_{counters_, "dafs/probes"};
};

struct Plane {
  Plane() : c(plane_config()) {
    c.fault_injector()->set_armed(false);  // setup runs fault-free
    c.start_nfs();
    nas::dafs::DafsServerConfig scfg;
    scfg.piggyback_refs = true;
    scfg.writable_refs = true;
    scfg.coherence = true;
    c.start_dafs(scfg);
    nas::odafs::OdafsClientConfig ocfg;
    ocfg.cache.block_size = KiB(4);
    ocfg.cache.data_blocks = 24;
    ocfg.dafs = dafs_config();
    ocfg.write_policy = nas::odafs::WritePolicy::put_through;
    ocfg.policy.enabled = true;
    ocfg.policy.explore_every = 8;
    odafs = c.make_odafs_client(0, ocfg);
    nfs = c.make_nfs_client(1, KiB(32));
    dafs = std::make_unique<ProbedDafsClient>(c.client(2), c.server_node(),
                                              dafs_config());
  }

  // Open one file from each client in turn and mix reads and writes under
  // the armed fault plan.
  void run() {
    bool done = false;
    c.engine().spawn([](Plane& p, bool& done) -> sim::Task<void> {
      co_await p.c.make_file("f", KiB(64), /*warm=*/true);
      const std::vector<core::FileClient*> clients{p.odafs.get(),
                                                   p.nfs.get(), p.dafs.get()};
      for (unsigned i = 0; i < clients.size(); ++i) {
        host::Host& h = p.c.client(i);
        const mem::Vaddr buf = h.map_new(h.user_as(), KiB(8));
        auto open = co_await clients[i]->open("f");
        ORDMA_CHECK(open.ok());
        p.c.fault_injector()->set_armed(true);
        for (unsigned k = 0; k < 24; ++k) {
          const Bytes off = (k * KiB(8)) % KiB(64);
          if (k % 4 == 3) {
            (void)co_await clients[i]->pwrite(open.value().fh, off, buf,
                                              KiB(8));
          } else {
            (void)co_await clients[i]->pread(open.value().fh, off, buf,
                                             KiB(8));
          }
        }
        p.c.fault_injector()->set_armed(false);
        (void)co_await clients[i]->close(open.value().fh);
      }
      done = true;
    }(*this, done));
    c.engine().run();
    ASSERT_TRUE(done) << "workload deadlocked";
  }

  // path -> current value (cumulative totals, point samples, histogram
  // event counts), read through a fresh delta cursor.
  std::map<std::string, double> exported() {
    obs::MetricsRegistry reg;
    c.export_metrics(reg);
    c.export_client(reg, *odafs);
    c.export_client(reg, *nfs);
    c.export_client(reg, *dafs);
    obs::MetricsRegistry::DeltaCursor cursor;
    std::vector<obs::MetricsRegistry::Delta> rows;
    reg.delta_snapshot(cursor, rows);
    std::map<std::string, double> out;
    for (const auto& d : rows) out[*d.path] = d.value;
    return out;
  }

  // The same series read through the owners' public getters.
  std::map<std::string, double> from_getters() {
    std::map<std::string, double> e;
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    auto host_series = [&](host::Host& h, nic::Nic& n) {
      const std::string p = h.name() + "/";
      e[p + "cpu/busy_us"] = h.cpu().busy_time().ns / 1e3;
      e[p + "nic/fw_busy_us"] = n.fw_busy().ns / 1e3;
      e[p + "nic/rx_queue"] = u(n.rx_backlog());
      e[p + "nic/ordma_served"] = u(n.ordma_served());
      e[p + "nic/ordma_faults"] = u(n.ordma_faults());
      e[p + "nic/ordma_timeouts"] = u(n.ordma_timeouts());
      e[p + "nic/puts_served"] = u(n.puts_served());
      e[p + "nic/put_dups_dropped"] = u(n.put_dups_dropped());
      e[p + "nic/tlb_hits"] = u(n.tlb().hits());
      e[p + "nic/tlb_misses"] = u(n.tlb().misses());
    };
    host_series(c.server(), c.server_nic());
    for (unsigned i = 0; i < c.num_clients(); ++i) {
      host_series(c.client(i), c.client_nic(i));
    }
    fs::ServerFs& sfs = c.server_fs();
    e["server/cache/hits"] = u(sfs.cache().hits());
    e["server/cache/misses"] = u(sfs.cache().misses());
    e["server/disk/reads"] = u(sfs.disk().reads());
    e["server/disk/writes"] = u(sfs.disk().writes());
    e["server/disk/transient_errors"] = u(sfs.disk().transient_errors());
    const rpc::RpcServer& rs = c.nfs_server().rpc_server();
    e["server/rpc/dup_replays"] = u(rs.dup_replays());
    e["server/rpc/dup_drops"] = u(rs.dup_drops());
    e["server/rpc/cksum_drops"] = u(rs.cksum_drops());
    e["server/rpc/requests_served"] = u(rs.requests_served());
    nas::dafs::DafsServer& ds = c.dafs_server();
    e["server/dafs/put_commits"] = u(ds.put_commits());
    e["server/dafs/put_rejects"] = u(ds.put_rejects());
    e["server/dafs/invalidations_sent"] = u(ds.invalidations_sent());
    e["server/dafs/invalidation_giveups"] = u(ds.invalidation_giveups());
    e["server/dafs/wb_syncs"] = u(ds.wb_syncs());
    e["server/dafs/requests_served"] = u(ds.requests_served());
    e["server/dafs/blocks_exported"] = u(ds.blocks_exported());
    const fault::FaultInjector& inj = *c.fault_injector();
    e["fault/frames_dropped"] = u(inj.frames_dropped());
    e["fault/frames_corrupted"] =
        u(inj.frames_corrupted() + inj.frames_corrupt_dropped());
    e["fault/frames_corrupt_escaped"] = u(inj.frames_corrupted());
    e["fault/frames_corrupt_dropped"] = u(inj.frames_corrupt_dropped());
    e["fault/frames_duplicated"] = u(inj.frames_duplicated());
    e["fault/frames_delayed"] = u(inj.frames_delayed());
    e["fault/doorbell_stalls"] = u(inj.doorbell_stalls());
    e["fault/cap_revokes"] = u(inj.cap_revokes());
    e["fault/put_revokes"] = u(inj.put_revokes());
    e["fault/tlb_invalidates"] = u(inj.tlb_invalidates());
    e["fault/disk_errors"] = u(inj.disk_errors());
    e["fault/disk_spikes"] = u(inj.disk_spikes());
    const net::Fabric& fab = c.fabric();
    for (net::NodeId id = 0; id < fab.num_nodes(); ++id) {
      const std::string p = "net/" + std::to_string(id) + "/";
      e[p + "up_bytes"] = u(fab.uplink(id).bytes_delivered());
      e[p + "down_bytes"] = u(fab.downlink(id).bytes_delivered());
      e[p + "up_bytes_offered"] = u(fab.uplink(id).bytes_offered());
      e[p + "down_bytes_offered"] = u(fab.downlink(id).bytes_offered());
      e[p + "up_backlog"] = u(fab.uplink(id).backlog());
      e[p + "down_backlog"] = u(fab.downlink(id).backlog());
    }
    auto client_series = [&](core::FileClient& cl) {
      const std::string p = cl.host().name() + "/";
      const core::FileClient::OpStats& st = cl.op_stats();
      e[p + "io/ops"] = u(st.ops);
      e[p + "io/errors"] = u(st.errors);
      e[p + "io/retries"] = u(st.retries);
      e[p + "io/latency_us"] = u(st.latency_us.count());
      e[p + "signals/ref_hit_rate"] = cl.signals().ref_hit_rate.value();
      e[p + "signals/op_bytes"] = cl.signals().op_bytes.value();
      e[p + "signals/exception_rate"] = cl.signals().exception_rate.value();
    };
    client_series(*odafs);
    client_series(*nfs);
    client_series(*dafs);
    nas::odafs::OdafsClient& o = *odafs;
    e["client0/odafs/rpc_reads"] = u(o.rpc_reads());
    e["client0/odafs/ordma_reads"] = u(o.ordma_reads());
    e["client0/odafs/ordma_faults"] = u(o.ordma_faults());
    e["client0/odafs/attr_ordma"] = u(o.attr_ordma());
    e["client0/odafs/integrity_retries"] = u(o.integrity_retries());
    e["client0/odafs/fetch_give_ups"] = u(o.fetch_give_ups());
    e["client0/odafs/puts_issued"] = u(o.puts_issued());
    e["client0/odafs/put_commits"] = u(o.put_commits());
    e["client0/odafs/put_rejects"] = u(o.put_rejects());
    e["client0/odafs/put_fallbacks"] = u(o.put_fallbacks());
    e["client0/odafs/invalidates_rx"] = u(o.invalidates_rx());
    e["client0/odafs/inval_drops"] = u(o.inval_drops());
    e["client0/odafs/inval_refetches"] = u(o.inval_refetches());
    e["client0/odafs/wb_flushes"] = u(o.wb_flushes());
    e["client0/cache/data_hits"] = u(o.block_cache().data_hits());
    e["client0/cache/data_misses"] = u(o.block_cache().data_misses());
    e["client0/cache/refs_held"] = u(o.block_cache().refs_held());
    const policy::PolicyEngine& pol = o.protocol_policy();
    const policy::PolicyEngine::Counters& pn = pol.counters();
    e["client0/policy/read_decisions"] = u(pn.read_decisions);
    e["client0/policy/read_flips"] = u(pn.read_flips);
    e["client0/policy/read_explored"] = u(pn.read_explored);
    e["client0/policy/read_vetoes"] = u(pn.read_vetoes);
    e["client0/policy/write_decisions"] = u(pn.write_decisions);
    e["client0/policy/write_flips"] = u(pn.write_flips);
    e["client0/policy/write_explored"] = u(pn.write_explored);
    e["client0/policy/read_pref"] =
        pol.read_pref() == policy::ReadMech::ordma ? 1.0 : 0.0;
    nas::dafs::DafsClient& d = *dafs;
    e["client2/rpc/retransmits"] = u(d.retransmits());
    e["client2/rpc/timeouts"] = u(d.timeouts());
    e["client2/dafs/integrity_retries"] = u(d.integrity_retries());
    e["client2/odafs/invalidates_rx"] = u(d.invalidates_rx());
    return e;
  }

  core::Cluster c;
  std::unique_ptr<nas::odafs::OdafsClient> odafs;
  std::unique_ptr<nas::nfs::NfsClient> nfs;
  std::unique_ptr<ProbedDafsClient> dafs;
};

TEST(CounterPlane, EveryPinnedSeriesIsExportedWithItsOwnersValue) {
  Plane p;
  p.run();
  const std::map<std::string, double> got = p.exported();
  const std::map<std::string, double> want = p.from_getters();
  for (const std::string& path : kPinnedPaths) {
    EXPECT_TRUE(got.contains(path)) << "series lost: " << path;
    EXPECT_TRUE(want.contains(path)) << "no getter checked for: " << path;
  }
  for (const auto& [path, value] : want) {
    auto it = got.find(path);
    ASSERT_NE(it, got.end()) << "not exported: " << path;
    EXPECT_EQ(it->second, value) << path;
  }
  // The run exercised the paths it checks (not all zeros).
  EXPECT_GT(got.at("client0/odafs/rpc_reads"), 0);
  EXPECT_GT(got.at("client2/dafs/integrity_retries"), 0);
  EXPECT_GT(got.at("server/rpc/requests_served"), 0);
  EXPECT_GT(got.at("fault/cap_revokes"), 0);
}

TEST(CounterPlane, ACounterExportsFromItsDeclarationAlone) {
  Plane p;
  p.dafs->probes_.inc(5);
  const std::map<std::string, double> got = p.exported();
  ASSERT_TRUE(got.contains("client2/dafs/probes"));
  EXPECT_EQ(got.at("client2/dafs/probes"), 5);
  // No other client declares it.
  EXPECT_FALSE(got.contains("client1/dafs/probes"));
}

TEST(CounterPlaneDeathTest, ExportingOneClientTwiceNamesThePath) {
  Plane p;
  obs::MetricsRegistry reg;
  p.c.export_client(reg, *p.nfs);
  EXPECT_DEATH(p.c.export_client(reg, *p.nfs),
               "metric path registered twice: client1/");
}

}  // namespace
}  // namespace ordma
