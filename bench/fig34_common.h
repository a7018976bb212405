// Shared experiment for Figures 3 and 4: one client performs asynchronous
// sequential read-ahead of a file warm in the server cache, for each block
// size and each system (NFS, NFS pre-posting, NFS hybrid, DAFS).
//
// Scaling note: the paper reads a 1.5 GB file; we read 64 MiB per cell
// (shape-identical — throughput and utilisation are rate measurements; see
// EXPERIMENTS.md).
#pragma once

#include <memory>
#include <string>

#include "bench_util.h"
#include "obs/timeseries.h"
#include "workload/streaming.h"

namespace ordma::bench {

inline constexpr Bytes kFig3FileSize = MiB(64);

enum class System { nfs, prepost, hybrid, dafs };

inline const char* system_name(System s) {
  switch (s) {
    case System::nfs: return "NFS";
    case System::prepost: return "NFS pre-posting";
    case System::hybrid: return "NFS hybrid";
    case System::dafs: return "DAFS";
  }
  return "?";
}

// Short run-label slug for --timeseries documents.
inline const char* system_slug(System s) {
  switch (s) {
    case System::nfs: return "nfs";
    case System::prepost: return "prepost";
    case System::hybrid: return "hybrid";
    case System::dafs: return "dafs";
  }
  return "?";
}

struct Fig3Cell {
  double throughput_MBps = 0;
  double cpu_util = 0;
};

inline Fig3Cell run_fig3_cell(System sys, Bytes block) {
  core::ClusterConfig cc;
  cc.fs.block_size = KiB(8);
  cc.fs.cache_blocks = kFig3FileSize / KiB(8) + 64;
  cc.fs.disk_capacity = GiB(1);
  core::Cluster c(cc);

  if (sys == System::dafs) {
    c.start_dafs({.completion = msg::Completion::block});
  } else {
    c.start_nfs();
  }
  drive(c, [&c]() -> sim::Task<void> {
    co_await c.make_file("stream.dat", kFig3FileSize, /*warm=*/true);
  });

  std::unique_ptr<core::FileClient> client;
  switch (sys) {
    case System::nfs:
      client = c.make_nfs_client(0, block);
      break;
    case System::prepost:
      client = c.make_prepost_client(0, block);
      break;
    case System::hybrid:
      client = c.make_hybrid_client(0, block);
      break;
    case System::dafs: {
      nas::dafs::DafsClientConfig cfg;
      cfg.completion = msg::Completion::poll;  // §5.1: DAFS polls
      client = c.make_dafs_client(0, cfg);
      break;
    }
  }

  // Under --timeseries, each (system, block) cell becomes one run document
  // labeled e.g. "dafs.64KB". Declared after cluster and client so the
  // trailing gauge sample runs while both are alive.
  obs::ts::RunScope ts_run(c.engine(),
                           std::string(system_slug(sys)) + "." +
                               std::to_string(block / 1024) + "KB");
  if (ts_run.active()) {
    c.export_metrics(ts_run.registry());
    c.export_client(ts_run.registry(), *client);
  }

  Fig3Cell cell;
  drive(c, [&]() -> sim::Task<void> {
    wl::StreamConfig sc;
    sc.block = block;
    sc.window = 8;
    auto res = co_await wl::stream_read(c.client(0), *client, "stream.dat",
                                        sc);
    ORDMA_CHECK_MSG(res.ok(), "stream_read failed");
    cell.throughput_MBps = res.value().throughput_MBps;
    cell.cpu_util = res.value().client_cpu_util;
  });
  return cell;
}

inline const Bytes kFig3Blocks[] = {KiB(4),  KiB(8),  KiB(16), KiB(32),
                                    KiB(64), KiB(128), KiB(256), KiB(512)};

}  // namespace ordma::bench
