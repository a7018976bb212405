// Sharing writers: three clients over one file, watching the coherence
// protocol work. One writer commits ORDMA puts into a hot block set while
// two other clients keep reading the same blocks — every commit invalidates
// the readers' cached copies, and their next read must revalidate: re-fetch
// the block through the retained reference (client-initiated ORDMA against
// the server's now-newer cache block) or over RPC. That feedback loop is a
// revalidation storm, and it is the price of write sharing under
// invalidation-based coherence.
//
//   ./build/examples/sharing_writers
//   ./build/examples/sharing_writers --timeseries=storm.json:20us
//   python3 scripts/plot_timeseries.py storm.json -o storm.md
//
// The timeseries run exports every cluster + per-client ODAFS series, so
// the storm is visible as paired ramps: server/dafs/invalidations_sent
// against each reader's odafs/invalidates_rx and rpc_reads.
#include <cstdio>

#include "core/cluster.h"
#include "obs/cli.h"

using namespace ordma;

namespace {

constexpr std::uint64_t kBlocks = 8;  // file size, in 4 KB blocks
constexpr std::uint64_t kHot = 4;     // blocks the writer hammers
constexpr unsigned kRounds = 64;

sim::Task<void> run(core::Cluster& c,
                    std::vector<std::unique_ptr<nas::odafs::OdafsClient>>& cl,
                    bool& done) {
  const fs::Ino ino =
      co_await c.make_file("shared.dat", kBlocks * KiB(4), true);
  (void)ino;

  // Phase 1 — everyone reads everything: each client caches the blocks and
  // holds a piggybacked (write-capable, versioned) reference per block.
  std::vector<std::uint64_t> fhs;
  std::vector<mem::Vaddr> bufs;
  for (unsigned i = 0; i < cl.size(); ++i) {
    auto open = co_await cl[i]->open("shared.dat");
    ORDMA_CHECK(open.ok());
    fhs.push_back(open.value().fh);
    auto& h = c.client(i);
    bufs.push_back(h.map_new(h.user_as(), KiB(4)));
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      ORDMA_CHECK(
          (co_await cl[i]->pread(fhs[i], b * KiB(4), bufs[i], KiB(4))).ok());
    }
  }
  std::printf("after warm-up: every client holds %zu refs, server sent "
              "%llu invalidations\n",
              cl[0]->block_cache().refs_held(),
              static_cast<unsigned long long>(
                  c.dafs_server().invalidations_sent()));

  // Phase 2 — the storm. Client 0 writes the hot blocks by ORDMA put +
  // commit; clients 1 and 2 read them right back. Each commit invalidates
  // both readers (two invalidation round trips before the commit point),
  // and each read after that is a miss that must re-fetch the block.
  for (unsigned r = 0; r < kRounds; ++r) {
    const std::uint64_t b = r % kHot;
    ORDMA_CHECK(
        (co_await cl[0]->pwrite(fhs[0], b * KiB(4), bufs[0], KiB(4))).ok());
    for (unsigned i = 1; i < cl.size(); ++i) {
      ORDMA_CHECK(
          (co_await cl[i]->pread(fhs[i], b * KiB(4), bufs[i], KiB(4))).ok());
    }
  }

  // Phase 3 — quiesce: with the writer silent, reads settle back into the
  // cache (and ORDMA re-fetches through the refreshed references).
  for (unsigned r = 0; r < kRounds / 4; ++r) {
    for (unsigned i = 1; i < cl.size(); ++i) {
      ORDMA_CHECK((co_await cl[i]->pread(fhs[i], (r % kHot) * KiB(4),
                                         bufs[i], KiB(4)))
                      .ok());
    }
  }
  done = true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);

  core::ClusterConfig cfg;
  cfg.num_clients = 3;
  cfg.fs.block_size = KiB(4);
  core::Cluster cluster(cfg);
  cluster.start_dafs({.piggyback_refs = true,
                      .writable_refs = true,
                      .coherence = true});

  std::vector<std::unique_ptr<nas::odafs::OdafsClient>> clients;
  for (unsigned i = 0; i < cfg.num_clients; ++i) {
    nas::odafs::OdafsClientConfig cc;
    cc.cache.block_size = KiB(4);
    cc.cache.data_blocks = 64;
    cc.cache.max_headers = 4096;
    cc.use_ordma = true;
    cc.write_policy = nas::odafs::WritePolicy::put_through;
    clients.push_back(cluster.make_odafs_client(i, cc));
  }

  bool done = false;
  {
    obs::ts::RunScope ts_run(cluster.engine(), "sharing_writers");
    if (ts_run.active()) {
      cluster.export_metrics(ts_run.registry());
      for (unsigned i = 0; i < cfg.num_clients; ++i) {
        cluster.export_client(ts_run.registry(), *clients[i]);
      }
    }
    cluster.engine().spawn(run(cluster, clients, done));
    cluster.engine().run();
  }
  ORDMA_CHECK(done);

  std::printf("\n%-8s %12s %12s %14s %12s %10s %12s\n", "client",
              "puts_issued", "put_commits", "invalidates_rx", "inval_drops",
              "rpc_reads", "ordma_reads");
  for (unsigned i = 0; i < cfg.num_clients; ++i) {
    std::printf("%-8u %12llu %12llu %14llu %12llu %10llu %12llu\n", i,
                static_cast<unsigned long long>(clients[i]->puts_issued()),
                static_cast<unsigned long long>(clients[i]->put_commits()),
                static_cast<unsigned long long>(clients[i]->invalidates_rx()),
                static_cast<unsigned long long>(clients[i]->inval_drops()),
                static_cast<unsigned long long>(clients[i]->rpc_reads()),
                static_cast<unsigned long long>(clients[i]->ordma_reads()));
  }
  std::printf("\nserver: put_commits=%llu invalidations_sent=%llu "
              "nic puts_served=%llu\n",
              static_cast<unsigned long long>(
                  cluster.dafs_server().put_commits()),
              static_cast<unsigned long long>(
                  cluster.dafs_server().invalidations_sent()),
              static_cast<unsigned long long>(
                  cluster.server().nic().puts_served()));
  std::printf("simulated time elapsed: %.1f us\n",
              cluster.engine().now().to_us());
  obs_session.flush();
  return 0;
}
