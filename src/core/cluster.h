// Experiment wiring: one server plus N client hosts on a 2 Gb/s fabric,
// mirroring the paper's 4-node Myrinet cluster. Owns engine, cost model,
// hosts, NICs, the server file system and whichever protocol services an
// experiment instantiates.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fs/server_fs.h"
#include "host/cost_model.h"
#include "host/host.h"
#include "msg/udp.h"
#include "nas/dafs/dafs_client.h"
#include "nas/dafs/dafs_server.h"
#include "nas/nfs/nfs_client.h"
#include "nas/nfs/nfs_server.h"
#include "nas/odafs/odafs_client.h"
#include "net/fabric.h"
#include "nic/nic.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace ordma::core {

struct ClusterConfig {
  unsigned num_clients = 1;
  host::CostModel cm{};
  host::HostConfig server_host{MiB(768)};
  host::HostConfig client_host{MiB(512)};
  fs::ServerFsConfig fs{};
  nic::NicConfig nic{};
  // Optional deterministic fault plan: when set, a FaultInjector is created
  // and hooked into every link, NIC and the server disk.
  std::optional<fault::FaultPlan> faults;
  // Retry policy handed to every NFS-family RPC client the factories build.
  rpc::RpcRetryPolicy rpc_retry{};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {})
      : cfg_(cfg),
        cm_(cfg.cm),
        injector_(cfg.faults
                      ? std::make_unique<fault::FaultInjector>(*cfg.faults)
                      : nullptr),
        fabric_(eng_, fabric_config(cfg, injector_.get())) {
    if (injector_) injector_->bind_flight(&eng_);
    server_host_ = std::make_unique<host::Host>(eng_, "server", cm_,
                                                cfg.server_host);
    server_nic_ = std::make_unique<nic::Nic>(*server_host_, fabric_, cfg.nic,
                                             crypto::SipKey{0xA5, 0x5A});
    server_nic_->set_fault_injector(injector_.get());
    server_fs_ = std::make_unique<fs::ServerFs>(*server_host_, cfg.fs);
    server_fs_->disk().set_fault_injector(injector_.get());
    for (unsigned i = 0; i < cfg.num_clients; ++i) {
      auto h = std::make_unique<host::Host>(
          eng_, "client" + std::to_string(i), cm_, cfg.client_host);
      client_nics_.push_back(std::make_unique<nic::Nic>(
          *h, fabric_, cfg.nic, crypto::SipKey{0xC0 + i, 0x0C}));
      client_nics_.back()->set_fault_injector(injector_.get());
      client_hosts_.push_back(std::move(h));
    }
  }

  sim::Engine& engine() { return eng_; }
  host::CostModel& costs() { return cm_; }
  net::Fabric& fabric() { return fabric_; }
  host::Host& server() { return *server_host_; }
  host::Host& client(unsigned i = 0) { return *client_hosts_.at(i); }
  fs::ServerFs& server_fs() { return *server_fs_; }
  net::NodeId server_node() const { return server_nic_->node_id(); }
  nic::Nic& server_nic() { return *server_nic_; }
  nic::Nic& client_nic(unsigned i = 0) { return *client_nics_.at(i); }
  unsigned num_clients() const { return cfg_.num_clients; }
  fault::FaultInjector* fault_injector() { return injector_.get(); }

  // --- services -------------------------------------------------------------
  // NFS: one UDP stack per host; server bound at the well-known port.
  void start_nfs() {
    server_udp_ = std::make_unique<msg::UdpStack>(*server_host_);
    nfs_server_ = std::make_unique<nas::nfs::NfsServer>(
        *server_host_, *server_udp_, *server_fs_);
    client_udp_.resize(client_hosts_.size());
  }
  msg::UdpStack& client_udp(unsigned i) {
    auto& slot = client_udp_.at(i);
    if (!slot) slot = std::make_unique<msg::UdpStack>(*client_hosts_[i]);
    return *slot;
  }

  void start_dafs(nas::dafs::DafsServerConfig cfg = {}) {
    dafs_server_ =
        std::make_unique<nas::dafs::DafsServer>(*server_host_, *server_fs_,
                                                cfg);
  }
  nas::dafs::DafsServer& dafs_server() { return *dafs_server_; }
  nas::nfs::NfsServer& nfs_server() { return *nfs_server_; }

  // --- client factories ----------------------------------------------------
  std::unique_ptr<nas::nfs::NfsClient> make_nfs_client(
      unsigned i, Bytes transfer = KiB(512)) {
    return std::make_unique<nas::nfs::NfsClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
  }
  std::unique_ptr<nas::nfs::NfsPrepostClient> make_prepost_client(
      unsigned i, Bytes transfer = KiB(512)) {
    return std::make_unique<nas::nfs::NfsPrepostClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
  }
  std::unique_ptr<nas::nfs::NfsHybridClient> make_hybrid_client(
      unsigned i, Bytes transfer = KiB(512)) {
    return std::make_unique<nas::nfs::NfsHybridClient>(
        *client_hosts_[i], client_udp(i), server_node(),
        static_cast<std::uint16_t>(700 + next_port_++), transfer,
        cfg_.rpc_retry);
  }
  std::unique_ptr<nas::dafs::DafsClient> make_dafs_client(
      unsigned i, nas::dafs::DafsClientConfig cfg = {}) {
    return std::make_unique<nas::dafs::DafsClient>(*client_hosts_[i],
                                                   server_node(), cfg);
  }
  std::unique_ptr<nas::odafs::OdafsClient> make_odafs_client(
      unsigned i, nas::odafs::OdafsClientConfig cfg = {}) {
    return std::make_unique<nas::odafs::OdafsClient>(*client_hosts_[i],
                                                     server_node(), cfg);
  }

  // Every series of the cluster's own components, under "<host>/" (the
  // fault plan and the fabric are cluster-wide). Event counts export
  // themselves: one walk per component registers the counters it declared
  // (common/stats.h) as cumulative gauges, read only at snapshots.
  void export_metrics(obs::MetricsRegistry& reg) {
    const std::string s = "server/";
    reg.export_counters(s, server_nic_->counters());
    for (unsigned i = 0; i < num_clients(); ++i) {
      reg.export_counters(client(i).name() + "/", client_nic(i).counters());
    }
    reg.export_counters(s, server_fs_->cache().counters());
    reg.export_counters(s, server_fs_->disk().counters());
    if (nfs_server_) {
      reg.export_counters(s, nfs_server_->rpc_server().counters());
    }
    if (dafs_server_) reg.export_counters(s, dafs_server_->counters());
    if (injector_) reg.export_counters("", injector_->counters());
    for (net::NodeId id = 0; id < fabric_.num_nodes(); ++id) {
      const std::string p = "net/" + std::to_string(id);
      reg.export_counters(p + "/up_", fabric_.uplink(id).counters());
      reg.export_counters(p + "/down_", fabric_.downlink(id).counters());
    }
    export_non_counts(reg);
  }

  // One protocol client's series under "<its host>/": op accounting, and
  // the counters of the protocol and of the helpers it adopted (an ODAFS
  // client's DAFS session, block cache and policy engine).
  void export_client(obs::MetricsRegistry& reg, core::FileClient& cl) {
    const std::string p = cl.host().name() + "/";
    reg.export_counters(p, cl.op_stats().counters);
    reg.export_counters(p, cl.counters());
    export_non_counts(reg, p, cl);
  }

  // --- experiment helpers ---------------------------------------------------
  // Create a file of `size` bytes of deterministic content directly in the
  // server fs (setup outside measured time) and optionally warm the cache.
  sim::Task<fs::Ino> make_file(std::string name, Bytes size, bool warm,
                               std::uint64_t seed = 1) {
    auto ino =
        server_fs_->create(fs::ServerFs::kRootIno, name, fs::FileType::regular);
    ORDMA_CHECK(ino.ok());
    std::vector<std::byte> chunk(KiB(64));
    Bytes off = 0;
    std::uint64_t x = seed;
    while (off < size) {
      const Bytes n = std::min<Bytes>(chunk.size(), size - off);
      for (Bytes i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        chunk[i] = static_cast<std::byte>(x >> 56);
      }
      auto wrote = co_await server_fs_->write(ino.value(), off,
                                              {chunk.data(), n});
      ORDMA_CHECK(wrote.ok());
      off += n;
    }
    if (warm) ORDMA_CHECK((co_await server_fs_->warm(ino.value())).ok());
    co_return ino.value();
  }

 private:
  // --- series that are not one event count --------------------------------
  // Busy time, levels (point samples), the op latency histogram and the
  // corrupted-frame sum. Everything else is a Counter and exports itself.
  void export_non_counts(obs::MetricsRegistry& reg) {
    constexpr bool kCumulative = true;
    for (unsigned i = 0; i <= num_clients(); ++i) {
      host::Host& h = i == 0 ? server() : client(i - 1);
      nic::Nic& n = i == 0 ? server_nic() : client_nic(i - 1);
      const std::string p = h.name();
      reg.gauge(p + "/cpu/busy_us",
                [&h] { return h.cpu().busy_time().ns / 1e3; }, kCumulative);
      reg.gauge(p + "/nic/fw_busy_us",
                [&n] { return n.fw_busy().ns / 1e3; }, kCumulative);
      reg.gauge(p + "/nic/rx_queue",
                [&n] { return static_cast<double>(n.rx_backlog()); });
    }
    if (fault::FaultInjector* inj = injector_.get()) {
      reg.gauge("fault/frames_corrupted", [inj] {
        return static_cast<double>(inj->frames_corrupted() +
                                   inj->frames_corrupt_dropped());
      }, kCumulative);
    }
    for (net::NodeId id = 0; id < fabric_.num_nodes(); ++id) {
      const std::string p = "net/" + std::to_string(id);
      const net::Link& up = fabric_.uplink(id);
      const net::Link& down = fabric_.downlink(id);
      reg.gauge(p + "/up_backlog",
                [&up] { return static_cast<double>(up.backlog()); });
      reg.gauge(p + "/down_backlog",
                [&down] { return static_cast<double>(down.backlog()); });
    }
  }
  void export_non_counts(obs::MetricsRegistry& reg, const std::string& p,
                         core::FileClient& cl) {
    reg.histogram_view(p + "io/latency_us", &cl.op_stats().latency_us);
    const obs::OpSignals& sig = cl.signals();
    reg.gauge(p + "signals/ref_hit_rate",
              [&sig] { return sig.ref_hit_rate.value(); });
    reg.gauge(p + "signals/op_bytes", [&sig] { return sig.op_bytes.value(); });
    reg.gauge(p + "signals/exception_rate",
              [&sig] { return sig.exception_rate.value(); });
    auto* odafs = dynamic_cast<nas::odafs::OdafsClient*>(&cl);
    if (odafs == nullptr) return;
    const cache::ClientCache& cache = odafs->block_cache();
    reg.gauge(p + "cache/refs_held",
              [&cache] { return static_cast<double>(cache.refs_held()); });
    const policy::PolicyEngine& pol = odafs->protocol_policy();
    reg.gauge(p + "policy/read_pref", [&pol] {
      return pol.read_pref() == policy::ReadMech::ordma ? 1.0 : 0.0;
    });
  }

  static net::FabricConfig fabric_config(const ClusterConfig&,
                                         fault::FaultInjector* inj) {
    net::FabricConfig c;
    c.injector = inj;
    return c;
  }

  ClusterConfig cfg_;
  sim::Engine eng_;
  host::CostModel cm_;
  std::unique_ptr<fault::FaultInjector> injector_;  // before fabric_
  net::Fabric fabric_;
  std::unique_ptr<host::Host> server_host_;
  std::unique_ptr<nic::Nic> server_nic_;
  std::unique_ptr<fs::ServerFs> server_fs_;
  std::vector<std::unique_ptr<host::Host>> client_hosts_;
  std::vector<std::unique_ptr<nic::Nic>> client_nics_;
  std::unique_ptr<msg::UdpStack> server_udp_;
  std::vector<std::unique_ptr<msg::UdpStack>> client_udp_;
  std::unique_ptr<nas::nfs::NfsServer> nfs_server_;
  std::unique_ptr<nas::dafs::DafsServer> dafs_server_;
  unsigned next_port_ = 0;
};

}  // namespace ordma::core
