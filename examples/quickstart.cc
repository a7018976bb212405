// Quickstart: bring up a simulated two-node cluster, serve a directory tree
// over ODAFS, and do file I/O through the client — watching the optimistic
// RDMA machinery work.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --trace=quickstart.json to record a Chrome trace of every span the
// I/O below touches (open in https://ui.perfetto.dev), and
// --metrics=metrics.json for a counter/gauge snapshot of the whole cluster.
#include <cstdio>

#include "core/cluster.h"
#include "obs/cli.h"

using namespace ordma;

namespace {

sim::Task<void> run(core::Cluster& c, nas::odafs::OdafsClient& client,
                    bool& done) {
  auto& h = c.client(0);

  // 1. Create a file through the protocol and write into it.
  auto created = co_await client.create("hello.txt");
  ORDMA_CHECK(created.ok());
  const char msg[] = "hello, direct-access network attached storage!";
  const mem::Vaddr wbuf = h.map_new(h.user_as(), sizeof msg);
  ORDMA_CHECK(h.user_as()
                  .write(wbuf, std::span<const std::byte>(
                                   reinterpret_cast<const std::byte*>(msg),
                                   sizeof msg))
                  .ok());
  auto n = co_await client.pwrite(created.value().fh, 0, wbuf, sizeof msg);
  ORDMA_CHECK(n.ok());
  std::printf("wrote %llu bytes via %s\n",
              static_cast<unsigned long long>(n.value()),
              client.protocol_name());

  // 2. First read: the client cache misses and fetches over RPC; the server
  //    piggybacks a remote memory reference to its cache block.
  const mem::Vaddr rbuf = h.map_new(h.user_as(), sizeof msg);
  (void)co_await client.pread(created.value().fh, 0, rbuf, sizeof msg);
  std::printf("after first read:  rpc_reads=%llu ordma_reads=%llu "
              "refs_held=%zu\n",
              static_cast<unsigned long long>(client.rpc_reads()),
              static_cast<unsigned long long>(client.ordma_reads()),
              client.block_cache().refs_held());

  // 3. Push the block out of the (tiny) client data cache, then read again:
  //    the retained reference lets the client fetch it with client-initiated
  //    RDMA — zero server CPU.
  auto other = co_await client.create("filler.dat");
  ORDMA_CHECK(other.ok());
  const mem::Vaddr filler = h.map_new(h.user_as(), KiB(64));
  (void)co_await client.pwrite(other.value().fh, 0, filler, KiB(64));
  (void)co_await client.pread(other.value().fh, 0, filler, KiB(64));

  const auto server_cpu_before = c.server().sample_cpu();
  auto again = co_await client.pread(created.value().fh, 0, rbuf, sizeof msg);
  ORDMA_CHECK(again.ok());
  const auto server_cpu_after = c.server().sample_cpu();

  std::vector<std::byte> got(sizeof msg);
  ORDMA_CHECK(h.user_as().read(rbuf, got).ok());
  std::printf("after second read: rpc_reads=%llu ordma_reads=%llu  "
              "(server CPU used: %lld ns)\n",
              static_cast<unsigned long long>(client.rpc_reads()),
              static_cast<unsigned long long>(client.ordma_reads()),
              static_cast<long long>(
                  (server_cpu_after.busy - server_cpu_before.busy).ns));
  std::printf("read back: \"%s\"\n",
              reinterpret_cast<const char*>(got.data()));
  done = true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);

  // A cluster: one server (file system + DAFS/ODAFS service), one client
  // host, a 2 Gb/s fabric — all simulated, all deterministic.
  core::ClusterConfig cfg;
  cfg.fs.block_size = KiB(4);
  core::Cluster cluster(cfg);
  cluster.start_dafs({.piggyback_refs = true});  // ODAFS mode

  nas::odafs::OdafsClientConfig cc;
  cc.cache.block_size = KiB(4);
  cc.cache.data_blocks = 8;  // tiny on purpose: force re-fetches
  cc.cache.max_headers = 4096;
  cc.use_ordma = true;
  auto client = cluster.make_odafs_client(0, cc);

  bool done = false;
  {
    // Under --timeseries: per-interval deltas of every cluster series for
    // this run (the whole quickstart lasts ~a millisecond of simulated
    // time, so pass a sub-millisecond interval, e.g.
    // --timeseries=ts.json:50us). Scoped so the final gauge sample runs
    // while cluster and client are alive.
    obs::ts::RunScope ts_run(cluster.engine(), "quickstart");
    if (ts_run.active()) {
      cluster.export_metrics(ts_run.registry());
      cluster.export_client(ts_run.registry(), *client);
    }
    cluster.engine().spawn(run(cluster, *client, done));
    cluster.engine().run();
  }
  ORDMA_CHECK(done);

  std::printf("\nsimulated time elapsed: %.1f us\n",
              cluster.engine().now().to_us());
  // Flush while the cluster (whose components back the gauges) is alive.
  obs_session.flush();
  return 0;
}
