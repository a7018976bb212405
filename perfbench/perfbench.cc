// perfbench: the repository's benchmark binary.
//
// Runs one workload as a closed loop (one op outstanding per client) on one
// simulation thread and reports two kinds of numbers:
//
//   * the simulated system: ops and latency in simulated time, server and
//     client CPU per op, Table-1 categories, tail causes, resource
//     utilisation and protocol counters;
//   * the simulator: host time per op (normalised by the reference work of
//     refwork.h, and plain wall time), set-up time, peak RSS, events
//     and heap allocations per op, and (with --samples) a program-counter
//     profile that run.py folds into a host-time split by module.
//
// A run is a sequence of identical passes. Each pass builds a fresh
// Cluster from the seed, sets it up (files, opens, warm-up), runs the
// measured phase and then checks every file against the benchmark's own
// shadow copy. Passes of one seed are bit-identical in simulated time, and
// the binary checks that they are. The first pass is an untimed warm-up.
//
// Modes:
//   --mode plain    repeat untraced passes until --seconds have elapsed,
//                   with the reference work (refwork.h) after every op;
//                   set-up time and host throughput, both normalised by
//                   the reference work, are their medians
//   --mode layers   one untraced pass, one traced pass (obs::TraceRecorder,
//                   obs::attribute, obs::explain), then PC-sampled passes
//                   until --seconds have elapsed
//
// Output: human-readable lines, then one JSON object on the last line:
//   {"workload":..., "seed":..., "correct":..., "attempted":...,
//    "failed":..., "metrics": {name: value, ...}}
// Exit codes: 0 ok; 2 usage; 3 the engine stalled with ops outstanding;
// 4 an ODAFS workload returned wrong bytes; 5 a determinism check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.h"
#include "core/cluster.h"
#include "mem/arena.h"
#include "obs/attribution.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "refwork.h"
#include "sampler.h"

namespace perfbench {
namespace {

using namespace ordma;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Input generation. The benchmark owns its generator, so the inputs depend
// on the seed only, never on the simulator's own RNG.
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Gen {
  std::uint64_t s;
  explicit Gen(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    return mix64(s);
  }
  // Uniform in [0, n); the modulo bias is below 2^-40 for these n.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }
};

std::uint64_t content_word(std::uint64_t key, std::uint64_t word_idx) {
  return mix64(key + word_idx * 0x9e3779b97f4a7c15ull);
}

// Bytes [pos, pos + out.size()) of the content stream `key`, addressed by
// absolute file position, so any historic value of a byte can be
// recomputed from the write that produced it.
void fill_content(std::uint64_t key, std::uint64_t pos,
                  std::span<std::byte> out) {
  std::size_t i = 0;
  // Unaligned head and tail byte by byte, whole words in between.
  while (i < out.size() && ((pos + i) & 7) != 0) {
    const std::uint64_t p = pos + i;
    out[i++] = static_cast<std::byte>(content_word(key, p >> 3) >>
                                      ((p & 7) * 8));
  }
  for (; i + 8 <= out.size(); i += 8) {
    std::uint64_t w = content_word(key, (pos + i) >> 3);
    for (std::size_t k = 0; k < 8; ++k, w >>= 8) {
      out[i + k] = static_cast<std::byte>(w);
    }
  }
  for (; i < out.size(); ++i) {
    const std::uint64_t p = pos + i;
    out[i] = static_cast<std::byte>(content_word(key, p >> 3) >>
                                    ((p & 7) * 8));
  }
}

// Host time the benchmark spends in its own input generation and output
// checks during the measured phase. It is subtracted from the measured
// wall time, so the host throughput is the simulator's rate alone.
double g_harness_s = 0;

struct HarnessTimer {
  Clock::time_point t0 = Clock::now();
  ~HarnessTimer() { g_harness_s += secs_since(t0); }
};

// The reference work run after every measured op when set (refwork.h), and
// the number of slices per op.
RefWork* g_ref = nullptr;
unsigned g_ref_slices = 0;

// Host time of one reference slice on the machine the bounds were set on, in
// its fast state. setup_s is given at this speed.
constexpr double kRefSliceS = 3e-6;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { small_shared, large_read, lossy };

struct WorkloadDef {
  const char* name;
  Kind kind;
  // Measured file ops per pass, all clients together. Fixed per workload
  // (never derived from host speed), so simulated metrics repeat bit for
  // bit for a seed.
  std::uint64_t ops;
  // Reference-work slices run after each measured op: enough that the
  // reference takes about a fifth of the simulator's host time.
  unsigned ref_slices;
};

// Why each workload exists:
//
// odafs_small_shared -- event-heavy, few bytes per op. Three ODAFS clients
//   on a coherence + writable_refs + piggyback_refs DAFS server share a
//   pool of 1-16 KB files (~70% 4 KB reads, ~30% 1-4 KB writes, write_back
//   policy). Every client reads every file; each file has one writer. The
//   pool is larger than each client's data cache and warm in the server
//   cache, so reads mix client-cache hits, ORDMA gets and re-fetches after
//   invalidations (which ride the retained reference, by ORDMA). Loads the
//   engine, the NIC get/put path, coherence and the client cache; bypasses
//   fs disk and rpc.
//
// odafs_large_read -- ROADMAP item 5's 64 KB gap (ODAFS 541.6 us vs DAFS
//   395.7 us in BENCH_table1.json). One ODAFS client does random 64 KB
//   preads at sector-aligned offsets, one outstanding; read-ahead window 8
//   issues the block gets. The file is 4x the client's 8 KB-block data
//   cache and warm in the server cache; references are collected in
//   warm-up. Latency-bound at the client; host time goes mostly to mem and
//   memcpy. Bypasses rpc, fs disk and coherence. A trailing phase of 64 KB
//   writes (one per eight reads, the client's default RPC write-through)
//   gives the write metrics.
//
// nfs_dafs_lossy -- both retry loops and both duplicate caches (ROADMAP
//   item 2), UDP fragmentation, checksums and disk. One NFS client (UDP,
//   32 KB transfers) and one DAFS client on one server running both
//   services; each does 50/50 reads and writes of 8-32 KB (1 KB steps) at
//   random block-aligned offsets in its own file, which is larger than the
//   server buffer cache. FaultPlan::adversarial is armed only in the
//   measured phase, with the torture matrix's retry policy. Bypasses
//   ORDMA, client caches and coherence.
constexpr WorkloadDef kWorkloads[] = {
    {"odafs_small_shared", Kind::small_shared, 48000, 1},
    {"odafs_large_read", Kind::large_read, 9000, 4},
    {"nfs_dafs_lossy", Kind::lossy, 16000, 6},
};

// ---------------------------------------------------------------------------
// Shadow model of every file
// ---------------------------------------------------------------------------

struct WriteRec {
  Bytes off = 0;
  Bytes len = 0;
  std::uint64_t key = 0;
};

struct FileModel {
  std::string name;
  Bytes size = 0;
  unsigned owner = 0;         // the one client that writes this file
  std::uint64_t init_key = 0;  // content stream of the initial bytes
  std::vector<std::byte> cur;  // contents as the owner last wrote them
  // Bytes a failed write may or may not have changed (empty until then).
  std::vector<std::uint8_t> unsure;
  std::vector<WriteRec> hist;  // every write issued, in issue order
};

// Check bytes read at `off`. Strict: the reader is the file's owner, or
// every write has been synced; it must see exactly the owner's writes
// (bytes under a failed write may hold any historic value). Otherwise the
// reader may lag behind the owner's write-back buffer, so it must see, per
// byte, some value the byte held.
bool read_ok(const FileModel& f, bool strict, Bytes off,
             std::span<const std::byte> got) {
  if (std::memcmp(got.data(), f.cur.data() + off, got.size()) == 0) {
    return true;
  }
  // Bytes not yet explained by a historic value, within [olo, ohi).
  std::vector<std::uint8_t> open(got.size(), 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == f.cur[off + i]) continue;
    if (strict && (f.unsure.empty() || !f.unsure[off + i])) return false;
    open[i] = 1;
  }
  Bytes olo = off, ohi = off + got.size();
  auto shrink = [&] {
    while (olo < ohi && !open[olo - off]) ++olo;
    while (ohi > olo && !open[ohi - 1 - off]) --ohi;
  };
  shrink();
  std::vector<std::byte> val;
  auto explain = [&](std::uint64_t key, Bytes lo, Bytes hi) {
    lo = std::max(lo, olo);
    hi = std::min(hi, ohi);
    if (lo >= hi) return;
    val.resize(hi - lo);
    fill_content(key, lo, val);
    for (Bytes p = lo; p < hi; ++p) {
      open[p - off] &= static_cast<std::uint8_t>(got[p - off] != val[p - lo]);
    }
    shrink();
  };
  // Newest write first: a lagging reader usually sees a recent value.
  for (auto it = f.hist.rbegin(); it != f.hist.rend() && olo < ohi; ++it) {
    explain(it->key, it->off, it->off + it->len);
  }
  explain(f.init_key, olo, ohi);
  return olo == ohi;
}

struct Op {
  bool write = false;
  unsigned file = 0;
  Bytes off = 0;
  Bytes len = 0;
  std::uint64_t key = 0;  // content stream for writes
};

// ---------------------------------------------------------------------------
// Counter snapshots (public getters only)
// ---------------------------------------------------------------------------

using Snap = std::map<std::string, double>;

struct ClientSlot {
  std::unique_ptr<core::FileClient> fc;
  nas::odafs::OdafsClient* odafs = nullptr;
  nas::dafs::DafsClient* dafs = nullptr;  // plain DAFS, or ODAFS's inner one
  std::vector<std::uint64_t> fh;          // per file
  mem::Vaddr rbuf = 0;
  mem::Vaddr wbuf = 0;
  std::vector<std::byte> buf;
  Gen gen{0};
  std::uint64_t ops = 0;  // measured ops assigned to this client
};

// Per-pass measured-phase record.
struct Measure {
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> write_ns;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;      // returned a failure status
  std::uint64_t short_ops = 0;   // returned fewer bytes than asked
  std::uint64_t mismatches = 0;  // returned wrong bytes
  unsigned clients_done = 0;
  Snap end;  // taken when the last client's last op completes
};

class World {
 public:
  World(const WorkloadDef& def, std::uint64_t seed) : def_(def), seed_(seed) {
    build();
  }

  core::Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return cluster_->engine(); }
  std::vector<ClientSlot>& clients() { return clients_; }

  sim::Task<void> setup();
  sim::Task<void> client_loop(unsigned ci, Measure& m);
  // sync() every client, disarm faults, read every file back through every
  // client; counts the files that do not match the shadow into bad_files.
  sim::Task<void> finish(std::uint64_t& bad_files);

  Snap snapshot();
  void arm_faults(bool on) {
    if (auto* inj = cluster_->fault_injector()) inj->set_armed(on);
  }

 private:
  void build();
  Op next_op(unsigned ci);
  sim::Task<bool> do_op(unsigned ci, const Op& op, Measure* m);
  sim::Task<void> make_file(FileModel& f);

  const WorkloadDef& def_;
  std::uint64_t seed_;
  // Declared before the clients: clients reference the cluster's hosts
  // and are destroyed first.
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<ClientSlot> clients_;
  std::vector<FileModel> files_;
  Bytes max_op_ = 0;
  std::uint64_t large_reads_ = 0;  // odafs_large_read: reads before writes
};

void World::build() {
  core::ClusterConfig cc;
  Gen g(mix64(seed_ ^ 0xf11e5ull));
  switch (def_.kind) {
    case Kind::small_shared: {
      cc.num_clients = 3;
      cc.fs.block_size = KiB(4);
      cluster_ = std::make_unique<core::Cluster>(cc);
      nas::dafs::DafsServerConfig scfg;
      scfg.piggyback_refs = true;
      scfg.writable_refs = true;
      scfg.coherence = true;
      cluster_->start_dafs(scfg);
      for (unsigned i = 0; i < 3; ++i) {
        nas::odafs::OdafsClientConfig cfg;
        cfg.cache.block_size = KiB(4);
        cfg.cache.data_blocks = 64;  // 256 KB: below the ~700 KB pool
        cfg.cache.max_headers = 1 << 14;
        cfg.write_policy = nas::odafs::WritePolicy::write_back;
        auto oc = cluster_->make_odafs_client(i, cfg);
        ClientSlot s;
        s.odafs = oc.get();
        s.dafs = &oc->dafs();
        s.fc = std::move(oc);
        clients_.push_back(std::move(s));
      }
      // Stratified sizes (one per 1/64 of the 1-16 KB range), so the pool
      // is about the same size for every seed; the seed picks each
      // stratum's size and which file gets it.
      std::vector<Bytes> sizes;
      for (unsigned i = 0; i < 64; ++i) {
        sizes.push_back(KiB(1) + (KiB(15) * i + g.below(KiB(15))) / 64);
      }
      for (std::size_t i = sizes.size(); i > 1; --i) {
        std::swap(sizes[i - 1], sizes[g.below(i)]);
      }
      for (unsigned i = 0; i < 64; ++i) {
        FileModel f;
        f.name = "s" + std::to_string(i);
        f.size = sizes[i];
        f.owner = i % 3;
        files_.push_back(std::move(f));
      }
      max_op_ = KiB(4);
      break;
    }
    case Kind::large_read: {
      cc.num_clients = 1;
      cc.fs.block_size = KiB(8);
      cluster_ = std::make_unique<core::Cluster>(cc);
      nas::dafs::DafsServerConfig scfg;
      scfg.piggyback_refs = true;
      cluster_->start_dafs(scfg);
      nas::odafs::OdafsClientConfig cfg;
      cfg.cache.block_size = KiB(8);
      cfg.cache.data_blocks = 256;  // 2 MB: a quarter of the file
      cfg.cache.max_headers = 1 << 12;
      auto oc = cluster_->make_odafs_client(0, cfg);
      ClientSlot s;
      s.odafs = oc.get();
      s.dafs = &oc->dafs();
      s.fc = std::move(oc);
      clients_.push_back(std::move(s));
      FileModel f;
      f.name = "big";
      f.size = MiB(8);
      files_.push_back(std::move(f));
      max_op_ = KiB(64);
      large_reads_ = def_.ops * 8 / 9;
      break;
    }
    case Kind::lossy: {
      cc.num_clients = 2;
      cc.fs.block_size = KiB(8);
      cc.fs.cache_blocks = 512;  // 4 MB, below each 8 MB file
      cc.faults = fault::FaultPlan::adversarial(mix64(seed_ ^ 0xfa17ull));
      // The torture matrix's recovery policy.
      cc.rpc_retry.timeout = msec(2);
      cc.rpc_retry.max_attempts = 8;
      cc.rpc_retry.backoff = 2.0;
      cc.rpc_retry.max_timeout = msec(50);
      cc.nic.op_timeout = msec(50);
      cluster_ = std::make_unique<core::Cluster>(cc);
      cluster_->fault_injector()->set_armed(false);  // set-up is fault-free
      cluster_->start_nfs();
      cluster_->start_dafs();
      {
        ClientSlot s;
        s.fc = cluster_->make_nfs_client(0, KiB(32));
        clients_.push_back(std::move(s));
      }
      {
        nas::dafs::DafsClientConfig dcfg;
        dcfg.retry = cc.rpc_retry;
        dcfg.max_io_attempts = 6;
        auto dc = cluster_->make_dafs_client(1, dcfg);
        ClientSlot s;
        s.dafs = dc.get();
        s.fc = std::move(dc);
        clients_.push_back(std::move(s));
      }
      for (unsigned i = 0; i < 2; ++i) {
        FileModel f;
        f.name = "l" + std::to_string(i);
        f.size = MiB(8);
        f.owner = i;
        files_.push_back(std::move(f));
      }
      max_op_ = KiB(32);
      break;
    }
  }

  for (std::size_t i = 0; i < files_.size(); ++i) {
    FileModel& f = files_[i];
    f.init_key = mix64(seed_ * 1000003u + i);
    f.cur.resize(f.size);
    fill_content(f.init_key, 0, f.cur);
  }
  const auto n = static_cast<unsigned>(clients_.size());
  for (unsigned i = 0; i < n; ++i) {
    ClientSlot& s = clients_[i];
    host::Host& h = cluster_->client(i);
    s.rbuf = h.map_new(h.user_as(), max_op_);
    s.wbuf = h.map_new(h.user_as(), max_op_);
    s.buf.resize(max_op_);
    s.fh.assign(files_.size(), 0);
    s.gen = Gen(mix64(seed_ + 0x1000 * (i + 1)));
    s.ops = def_.ops / n + (i < def_.ops % n ? 1 : 0);
  }
}

sim::Task<void> World::make_file(FileModel& f) {
  fs::ServerFs& sfs = cluster_->server_fs();
  auto ino = sfs.create(fs::ServerFs::kRootIno, f.name, fs::FileType::regular);
  ORDMA_CHECK(ino.ok());
  for (Bytes off = 0; off < f.size; off += KiB(64)) {
    const Bytes n = std::min<Bytes>(KiB(64), f.size - off);
    auto wrote = co_await sfs.write(ino.value(), off, {f.cur.data() + off, n});
    ORDMA_CHECK(wrote.ok() && wrote.value() == n);
  }
  // The ODAFS workloads start warm in the server cache; the lossy files
  // are larger than the cache and start as make_file leaves them.
  if (def_.kind != Kind::lossy) {
    ORDMA_CHECK((co_await sfs.warm(ino.value())).ok());
  }
}

Op World::next_op(unsigned ci) {
  ClientSlot& s = clients_[ci];
  Gen& g = s.gen;
  Op op;
  switch (def_.kind) {
    case Kind::small_shared: {
      op.write = g.below(10) < 3;
      if (op.write) {
        // A client writes only the files it owns; it reads them all.
        const std::uint64_t owned = (files_.size() - ci + 2) / 3;
        op.file = static_cast<unsigned>(ci + 3 * g.below(owned));
        const FileModel& f = files_[op.file];
        op.len = std::min<Bytes>(g.between(KiB(1), KiB(4)), f.size);
      } else {
        op.file = static_cast<unsigned>(g.below(files_.size()));
        op.len = std::min<Bytes>(KiB(4), files_[op.file].size);
      }
      op.off = g.below(files_[op.file].size - op.len + 1);
      break;
    }
    case Kind::large_read: {
      const FileModel& f = files_[0];
      op.write = large_reads_ == 0;
      if (large_reads_ > 0) --large_reads_;
      // Sector-aligned (512 B), so most ops straddle nine cache blocks,
      // one in sixteen covers eight, and the copy of the partial last
      // block varies with the offset.
      op.len = KiB(64);
      op.off = 512 * g.below((f.size - op.len) / 512 + 1);
      break;
    }
    case Kind::lossy: {
      const FileModel& f = files_[ci];
      op.file = ci;
      op.write = g.below(2) == 1;
      op.len = KiB(g.between(8, 32));
      op.off = KiB(8) * g.below((f.size - op.len) / KiB(8) + 1);
      break;
    }
  }
  op.key = g.next();
  return op;
}

sim::Task<bool> World::do_op(unsigned ci, const Op& op, Measure* m) {
  ClientSlot& s = clients_[ci];
  FileModel& f = files_[op.file];
  host::Host& h = cluster_->client(ci);
  const std::span<std::byte> buf(s.buf.data(), op.len);
  const SimTime t0 = engine().now();
  bool ok = false;
  if (op.write) {
    {
      HarnessTimer ht;
      fill_content(op.key, op.off, buf);
      f.hist.push_back({op.off, op.len, op.key});
    }
    ORDMA_CHECK(h.user_as().write(s.wbuf, buf).ok());
    auto r = co_await s.fc->pwrite(s.fh[op.file], op.off, s.wbuf, op.len);
    ok = r.ok() && r.value() == op.len;
    HarnessTimer ht;
    if (ok) {
      std::copy(buf.begin(), buf.end(), f.cur.begin() + op.off);
      if (!f.unsure.empty()) {
        std::fill_n(f.unsure.begin() + op.off, op.len, 0);
      }
    } else {
      if (f.unsure.empty()) f.unsure.assign(f.size, 0);
      std::fill_n(f.unsure.begin() + op.off, op.len, 1);
    }
    if (m) {
      m->write_ns.push_back((engine().now() - t0).ns);
      if (!r.ok()) ++m->errors;
      else if (r.value() != op.len) ++m->short_ops;
    }
  } else {
    auto r = co_await s.fc->pread(s.fh[op.file], op.off, s.rbuf, op.len);
    const SimTime t1 = engine().now();
    bool right = true;
    if (r.ok()) {
      // The bytes a short read did return must be right too.
      const auto got = buf.first(std::min<Bytes>(r.value(), op.len));
      ORDMA_CHECK(h.user_as().read(s.rbuf, got).ok());
      HarnessTimer ht;
      right = read_ok(f, ci == f.owner, op.off, got);
    }
    ok = r.ok() && r.value() == op.len && right;
    if (m) {
      m->read_ns.push_back((t1 - t0).ns);
      if (!r.ok()) ++m->errors;
      else if (!right) ++m->mismatches;
      else if (r.value() != op.len) ++m->short_ops;
    }
  }
  if (m) {
    ++m->attempted;
    if (g_ref) {
      for (unsigned i = 0; i < g_ref_slices; ++i) g_ref->slice();
    }
  }
  co_return ok;
}

sim::Task<void> World::setup() {
  for (FileModel& f : files_) co_await make_file(f);
  for (unsigned ci = 0; ci < clients_.size(); ++ci) {
    ClientSlot& s = clients_[ci];
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      if (def_.kind == Kind::lossy && fi != ci) continue;
      auto open = co_await s.fc->open(files_[fi].name);
      ORDMA_CHECK_MSG(open.ok(), "open failed in set-up");
      s.fh[fi] = open.value().fh;
    }
  }
  // Warm-up, untimed and unmeasured: read every ODAFS file once through
  // every client (harvests references); the lossy clients run a short
  // stretch of their own op stream so the server cache reaches steady
  // state before faults are armed.
  for (unsigned ci = 0; ci < clients_.size(); ++ci) {
    ClientSlot& s = clients_[ci];
    if (def_.kind == Kind::lossy) {
      Gen saved = s.gen;
      s.gen = Gen(mix64(seed_ ^ (0xabcdull + ci)));
      for (int i = 0; i < 200; ++i) {
        const bool ok = co_await do_op(ci, next_op(ci), nullptr);
        ORDMA_CHECK_MSG(ok, "warm-up op failed");
      }
      s.gen = saved;
      continue;
    }
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      const FileModel& f = files_[fi];
      for (Bytes off = 0; off < f.size; off += max_op_) {
        Op op;
        op.file = static_cast<unsigned>(fi);
        op.off = off;
        op.len = std::min<Bytes>(max_op_, f.size - off);
        const bool ok = co_await do_op(ci, op, nullptr);
        ORDMA_CHECK_MSG(ok, "warm-up read failed");
      }
    }
  }
}

sim::Task<void> World::client_loop(unsigned ci, Measure& m) {
  ClientSlot& s = clients_[ci];
  for (std::uint64_t i = 0; i < s.ops; ++i) {
    co_await do_op(ci, next_op(ci), &m);
  }
  if (++m.clients_done == clients_.size()) m.end = snapshot();
}

sim::Task<void> World::finish(std::uint64_t& bad_files) {
  for (ClientSlot& s : clients_) {
    auto st = co_await s.fc->sync();
    ORDMA_CHECK_MSG(st.ok(), "sync failed");
  }
  arm_faults(false);
  for (unsigned ci = 0; ci < clients_.size(); ++ci) {
    ClientSlot& s = clients_[ci];
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      if (def_.kind == Kind::lossy && fi != ci) continue;  // not opened
      FileModel& f = files_[fi];
      bool good = true;
      for (Bytes off = 0; off < f.size && good; off += max_op_) {
        const Bytes len = std::min<Bytes>(max_op_, f.size - off);
        auto r = co_await s.fc->pread(s.fh[fi], off, s.rbuf, len);
        const std::span<std::byte> buf(s.buf.data(), len);
        good = r.ok() && r.value() == len &&
               cluster_->client(ci).user_as().read(s.rbuf, buf).ok();
        if (!good) break;
        // After sync every writer's data is at the server, so every reader
        // must see the owner's contents (bytes under a failed write may
        // hold any value they ever held).
        good = read_ok(f, /*strict=*/true, off, buf);
      }
      if (!good) ++bad_files;
    }
  }
}

Snap World::snapshot() {
  core::Cluster& c = *cluster_;
  Snap s;
  s["now_ns"] = static_cast<double>(engine().now().ns);
  s["server_cpu_ns"] = static_cast<double>(c.server().cpu().busy_time().ns);
  s["server_fw_ns"] = static_cast<double>(c.server_nic().fw_busy().ns);
  double ccpu_sum = 0, ccpu_max = 0, cfw_max = 0, cache_hits = 0,
         cache_misses = 0, refs = 0;
  double ordma_reads = 0, rpc_reads = 0, put_fallbacks = 0, puts_issued = 0,
         inval_refetches = 0, wb_flushes = 0, fetch_give_ups = 0,
         integrity = 0, dafs_rpcs = 0, dafs_retx = 0, nas_retries = 0,
         client_commits = 0;
  for (unsigned i = 0; i < clients_.size(); ++i) {
    ClientSlot& cs = clients_[i];
    const double cpu = static_cast<double>(c.client(i).cpu().busy_time().ns);
    ccpu_sum += cpu;
    ccpu_max = std::max(ccpu_max, cpu);
    cfw_max = std::max(cfw_max,
                       static_cast<double>(c.client_nic(i).fw_busy().ns));
    s["client" + std::to_string(i) + "_cpu_ns"] = cpu;
    s["client" + std::to_string(i) + "_fw_ns"] =
        static_cast<double>(c.client_nic(i).fw_busy().ns);
    nas_retries += static_cast<double>(cs.fc->op_stats().retries);
    if (cs.dafs) {
      dafs_rpcs += static_cast<double>(cs.dafs->rpcs_issued());
      dafs_retx += static_cast<double>(cs.dafs->retransmits());
      integrity += static_cast<double>(cs.dafs->integrity_retries());
    }
    if (auto* o = cs.odafs) {
      ordma_reads += static_cast<double>(o->ordma_reads());
      rpc_reads += static_cast<double>(o->rpc_reads());
      put_fallbacks += static_cast<double>(o->put_fallbacks());
      puts_issued += static_cast<double>(o->puts_issued());
      client_commits += static_cast<double>(o->put_commits());
      inval_refetches += static_cast<double>(o->inval_refetches());
      wb_flushes += static_cast<double>(o->wb_flushes());
      fetch_give_ups += static_cast<double>(o->fetch_give_ups());
      integrity += static_cast<double>(o->integrity_retries());
      cache_hits += static_cast<double>(o->block_cache().data_hits());
      cache_misses += static_cast<double>(o->block_cache().data_misses());
      refs += static_cast<double>(o->block_cache().refs_held());
    }
  }
  s["client_cpu_sum_ns"] = ccpu_sum;
  s["ordma_reads"] = ordma_reads;
  s["rpc_reads"] = rpc_reads;
  s["put_fallbacks"] = put_fallbacks;
  s["puts_issued"] = puts_issued;
  s["client_put_commits"] = client_commits;
  s["inval_refetches"] = inval_refetches;
  s["wb_flushes"] = wb_flushes;
  s["fetch_give_ups"] = fetch_give_ups;
  s["integrity_retries"] = integrity;
  s["dafs_rpcs"] = dafs_rpcs;
  s["dafs_retx"] = dafs_retx;
  s["nas_retries"] = nas_retries;
  s["cache_hits"] = cache_hits;
  s["cache_misses"] = cache_misses;
  s["refs_held"] = refs;

  nic::Nic& sn = c.server_nic();
  s["nic_ordma_served"] = static_cast<double>(sn.ordma_served());
  s["nic_ordma_faults"] = static_cast<double>(sn.ordma_faults());
  s["nic_puts_served"] = static_cast<double>(sn.puts_served());
  s["nic_put_dups_dropped"] = static_cast<double>(sn.put_dups_dropped());

  const net::Fabric& fab = c.fabric();
  const net::NodeId srv = c.server_node();
  s["srv_down_bytes"] = static_cast<double>(fab.downlink(srv).bytes_delivered());
  s["srv_up_bytes"] = static_cast<double>(fab.uplink(srv).bytes_delivered());
  double wire = 0;
  for (net::NodeId id = 0; id < fab.num_nodes(); ++id) {
    wire += static_cast<double>(fab.downlink(id).bytes_delivered());
  }
  s["wire_bytes"] = wire;

  fs::ServerFs& sfs = c.server_fs();
  s["fs_hits"] = static_cast<double>(sfs.cache().hits());
  s["fs_misses"] = static_cast<double>(sfs.cache().misses());
  s["disk_reads"] = static_cast<double>(sfs.disk().reads());
  s["disk_writes"] = static_cast<double>(sfs.disk().writes());
  s["disk_transient"] = static_cast<double>(sfs.disk().transient_errors());

  if (def_.kind == Kind::lossy) {
    const rpc::RpcServer& rs = c.nfs_server().rpc_server();
    s["rpc_dup_replays"] = static_cast<double>(rs.dup_replays());
    s["rpc_cksum_drops"] = static_cast<double>(rs.cksum_drops());
  }
  nas::dafs::DafsServer& ds = c.dafs_server();
  s["dafs_dup_replays"] = static_cast<double>(ds.dup_replays());
  s["invals_sent"] = static_cast<double>(ds.invalidations_sent());
  s["inval_giveups"] = static_cast<double>(ds.invalidation_giveups());
  s["srv_put_commits"] = static_cast<double>(ds.put_commits());
  s["srv_put_rejects"] = static_cast<double>(ds.put_rejects());

  if (const fault::FaultInjector* inj = c.fault_injector()) {
    s["frames_dropped"] = static_cast<double>(inj->frames_dropped());
    s["frames_corrupted"] = static_cast<double>(inj->frames_corrupted() +
                                                inj->frames_corrupt_dropped());
    s["frames_duplicated"] = static_cast<double>(inj->frames_duplicated());
  }
  return s;
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

struct PassOptions {
  obs::TraceRecorder* recorder = nullptr;
  PcSampler* sampler = nullptr;
  RefWork* ref = nullptr;
};

struct PassResult {
  bool stalled = false;
  std::string stall_msg;
  double setup_s = 0;
  double measure_s = 0;  // measured-phase wall time
  double harness_s = 0;  // of which the benchmark's own generator/checks
  double ref_s = 0;      // and of which the reference work
  std::uint64_t events = 0;
  // Host seconds the simulator itself took in the measured phase.
  double sim_host_s() const { return measure_s - harness_s - ref_s; }
  AllocCount allocs;
  std::uint64_t bad_files = 0;
  Measure m;
  Snap begin;
  // Simulated-time fingerprint: every sim_* metric, the fired-event count
  // and the failure counts. Equal across passes of one seed.
  std::vector<double> fingerprint;
  std::map<std::string, double> sim;     // end-to-end sim metrics
  std::map<std::string, double> layers;  // counter-based per-layer metrics
};

std::int64_t percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double get(const Snap& s, const char* k) {
  auto it = s.find(k);
  return it == s.end() ? 0.0 : it->second;
}

void derive(World& w, PassResult& r) {
  const Snap& a = r.begin;
  const Snap& b = r.m.end;
  auto d = [&](const char* k) { return get(b, k) - get(a, k); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double ops = static_cast<double>(r.m.attempted);
  const double elapsed_ns = d("now_ns");
  const double failed =
      static_cast<double>(r.m.errors + r.m.short_ops + r.m.mismatches);

  auto& sim = r.sim;
  sim["sim_ops_per_s"] = ratio(ops, elapsed_ns / 1e9);
  sim["sim_read_p50_us"] = percentile(r.m.read_ns, 0.50) / 1e3;
  sim["sim_read_p99_us"] = percentile(r.m.read_ns, 0.99) / 1e3;
  sim["sim_write_p50_us"] = percentile(r.m.write_ns, 0.50) / 1e3;
  sim["sim_write_p99_us"] = percentile(r.m.write_ns, 0.99) / 1e3;
  sim["sim_server_cpu_us_per_op"] = ratio(d("server_cpu_ns") / 1e3, ops);
  sim["sim_client_cpu_us_per_op"] = ratio(d("client_cpu_sum_ns") / 1e3, ops);
  sim["op_ok_ratio"] = ratio(ops - failed, ops);

  auto& L = r.layers;
  L["op_fail_ratio"] = ratio(failed, ops);
  L["sim.events_per_op"] = ratio(static_cast<double>(r.events), ops);

  core::Cluster& c = w.cluster();
  const auto bw = static_cast<double>(
      c.fabric().uplink(c.server_node()).bandwidth().bytes_per_sec);
  double ccpu_max = 0, cfw_max = 0;
  for (unsigned i = 0; i < w.clients().size(); ++i) {
    const std::string p = "client" + std::to_string(i);
    ccpu_max = std::max(ccpu_max, d((p + "_cpu_ns").c_str()));
    cfw_max = std::max(cfw_max, d((p + "_fw_ns").c_str()));
  }
  L["util.server_cpu"] = ratio(d("server_cpu_ns"), elapsed_ns);
  L["util.client_cpu"] = ratio(ccpu_max, elapsed_ns);
  L["util.server_nic_fw"] = ratio(d("server_fw_ns"), elapsed_ns);
  L["util.client_nic_fw"] = ratio(cfw_max, elapsed_ns);
  L["util.server_link_down"] =
      ratio(d("srv_down_bytes"), bw * elapsed_ns / 1e9);
  L["util.server_link_up"] = ratio(d("srv_up_bytes"), bw * elapsed_ns / 1e9);

  const double served = d("nic_ordma_served");
  const double puts = d("nic_puts_served");
  L["nic.ordma_gets_per_op"] = ratio(served - puts, ops);
  L["nic.ordma_fault_ratio"] =
      ratio(d("nic_ordma_faults"), served + d("nic_ordma_faults"));
  L["nic.puts_per_op"] = ratio(puts, ops);
  L["nic.put_dups_dropped"] = d("nic_put_dups_dropped");
  L["net.wire_bytes_per_op"] = ratio(d("wire_bytes"), ops);

  L["rpc.server_dup_replays"] = d("rpc_dup_replays");
  L["rpc.cksum_drops"] = d("rpc_cksum_drops");

  L["dafs.rpcs_per_op"] = ratio(d("dafs_rpcs"), ops);
  L["dafs.retransmit_ratio"] = ratio(d("dafs_retx"), d("dafs_rpcs"));
  L["dafs.server_dup_replays"] = d("dafs_dup_replays");
  L["dafs.invalidations_per_op"] = ratio(d("invals_sent"), ops);
  L["dafs.invalidation_giveups"] = d("inval_giveups");
  L["dafs.put_commits_per_op"] = ratio(d("srv_put_commits"), ops);
  L["dafs.put_reject_ratio"] =
      ratio(d("srv_put_rejects"), d("srv_put_commits") + d("srv_put_rejects"));

  L["odafs.ordma_read_ratio"] =
      ratio(d("ordma_reads"), d("ordma_reads") + d("rpc_reads"));
  L["odafs.put_fallback_ratio"] =
      ratio(d("put_fallbacks"), d("puts_issued") + d("put_fallbacks"));
  L["odafs.inval_refetches_per_op"] = ratio(d("inval_refetches"), ops);
  L["odafs.wb_flushes_per_op"] = ratio(d("wb_flushes"), ops);
  L["odafs.fetch_give_ups"] = d("fetch_give_ups");
  L["nas.retries_per_op"] = ratio(d("nas_retries"), ops);
  L["nas.integrity_retries"] = d("integrity_retries");

  L["cache.client_hit_ratio"] =
      ratio(d("cache_hits"), d("cache_hits") + d("cache_misses"));
  L["cache.refs_held"] = get(b, "refs_held");

  L["fs.server_cache_hit_ratio"] =
      ratio(d("fs_hits"), d("fs_hits") + d("fs_misses"));
  L["fs.disk_reads_per_op"] = ratio(d("disk_reads"), ops);
  L["fs.disk_writes_per_op"] = ratio(d("disk_writes"), ops);
  L["fs.disk_transient_errors"] = d("disk_transient");

  L["fault.frames_dropped"] = d("frames_dropped");
  L["fault.frames_corrupted"] = d("frames_corrupted");
  L["fault.frames_duplicated"] = d("frames_duplicated");

  r.fingerprint.clear();
  for (const auto& [k, v] : sim) r.fingerprint.push_back(v);
  for (const auto& [k, v] : L) r.fingerprint.push_back(v);
  r.fingerprint.push_back(static_cast<double>(r.events));
  r.fingerprint.push_back(static_cast<double>(r.bad_files));
}

PassResult run_pass(const WorkloadDef& def, std::uint64_t seed,
                    const PassOptions& opt) {
  PassResult r;
  // One arena per pass, as the repository's sweeps run each cell.
  mem::ScopedSimArena arena;
  const auto t0 = Clock::now();
  World w(def, seed);
  bool set_up = false;
  w.engine().spawn([](World& w, bool& done) -> sim::Task<void> {
    co_await w.setup();
    done = true;
  }(w, set_up));
  w.engine().run();
  if (!set_up) {
    r.stalled = true;
    r.stall_msg = "set-up did not complete";
    return r;
  }
  r.setup_s = secs_since(t0);

  r.begin = w.snapshot();
  w.arm_faults(true);
  if (opt.recorder) obs::install(opt.recorder);
  for (unsigned ci = 0; ci < w.clients().size(); ++ci) {
    w.engine().spawn(w.client_loop(ci, r.m));
  }
  const AllocCount a0 = alloc_count();
  if (opt.sampler) opt.sampler->start(100);  // 10 kHz
  g_harness_s = 0;
  g_ref = opt.ref;
  g_ref_slices = def.ref_slices;
  if (g_ref) g_ref->reset();
  const auto h0 = Clock::now();
  r.events = w.engine().run();
  r.measure_s = secs_since(h0);
  r.harness_s = g_harness_s;
  r.ref_s = g_ref ? g_ref->seconds() : 0;
  g_ref = nullptr;
  if (opt.sampler) opt.sampler->stop();
  const AllocCount a1 = alloc_count();
  if (opt.recorder) obs::install(static_cast<obs::TraceRecorder*>(nullptr));
  r.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};

  if (r.m.clients_done != w.clients().size()) {
    r.stalled = true;
    r.stall_msg = "engine went idle after " + std::to_string(r.m.attempted) +
                  " of " + std::to_string(def.ops) + " ops";
    return r;
  }

  bool finished = false;
  w.engine().spawn([](World& w, std::uint64_t& bad,
                      bool& done) -> sim::Task<void> {
    co_await w.finish(bad);
    done = true;
  }(w, r.bad_files, finished));
  w.engine().run();
  if (!finished) {
    r.stalled = true;
    r.stall_msg = "final sync/read-back did not complete";
    return r;
  }
  derive(w, r);
  return r;
}

// ---------------------------------------------------------------------------
// Trace-derived per-layer metrics
// ---------------------------------------------------------------------------

void trace_layers(const obs::TraceRecorder& rec, const PassResult& r,
                  std::map<std::string, double>& L) {
  const double ops = static_cast<double>(r.m.attempted);
  const char* cats[] = {"per_byte", "per_packet", "per_io", "nic",
                        "wire",     "disk",       "other"};
  obs::Breakdown rd, wr;
  rd.ops = wr.ops = 0;
  for (const auto& [op, b] : obs::attribute(rec)) {
    const std::string_view n(b.root_name);
    if (n == "op/pread") rd += b;
    else if (n == "op/pwrite") wr += b;
  }
  // A workload without writes keeps the all-zero sum.
  const obs::Breakdown rda = rd.ops ? rd.averaged() : rd;
  const obs::Breakdown wra = wr.ops ? wr.averaged() : wr;
  for (std::size_t c = 0; c < obs::kCategoryCount; ++c) {
    L[std::string("attr.read.") + cats[c] + "_us"] = rda.us[c];
    L[std::string("attr.write.") + cats[c] + "_us"] = wra.us[c];
  }

  // Tail: mean cause breakdown of the reads at or above the p99 latency.
  std::vector<obs::CauseBreakdown> reads;
  for (auto& [op, cb] : obs::explain(rec)) {
    if (std::string_view(cb.root_name) == "op/pread") reads.push_back(cb);
  }
  std::vector<double> tail(obs::kCauseCount, 0.0);
  if (!reads.empty()) {
    std::vector<double> lat;
    for (const auto& cb : reads) lat.push_back(cb.total_us);
    std::sort(lat.begin(), lat.end());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(0.99 * lat.size())), 1,
        lat.size());
    const double p99 = lat[rank - 1];
    std::size_t n = 0;
    for (const auto& cb : reads) {
      if (cb.total_us < p99) continue;
      ++n;
      for (std::size_t c = 0; c < obs::kCauseCount; ++c) tail[c] += cb.us[c];
    }
    for (double& t : tail) t /= static_cast<double>(n);
  }
  for (std::size_t c = 0; c < obs::kCauseCount; ++c) {
    L[std::string("tail.read_p99.") +
      obs::cause_name(static_cast<obs::Cause>(c)) + "_us"] = tail[c];
  }

  // NFS RPC traffic (the ONC client has no public counters): one
  // "io/rpc_issue" span per call, one "io/rpc_retransmit" span on the
  // "rpc" track per timed-out attempt. Disk busy time: the arm's holds.
  double calls = 0, timeouts = 0, disk_ns = 0;
  rec.for_each_event([&](const obs::TraceRecorder::Event& ev) {
    if (ev.kind != obs::TraceRecorder::Kind::span) return;
    const std::string_view n(ev.name);
    if (n == "io/rpc_issue") {
      ++calls;
    } else if (n == "io/rpc_retransmit" &&
               rec.track_component(ev.track) == "rpc") {
      ++timeouts;
    } else if (n.starts_with("disk/") &&
               rec.track_process(ev.track) == "server") {
      disk_ns += static_cast<double>(ev.end_ns - ev.begin_ns);
    }
  });
  L["rpc.calls_per_op"] = ops > 0 ? calls / ops : 0;
  L["rpc.retransmit_ratio"] = calls > 0 ? timeouts / calls : 0;
  const double elapsed_ns = get(r.m.end, "now_ns") - get(r.begin, "now_ns");
  L["util.server_disk"] = elapsed_ns > 0 ? disk_ns / elapsed_ns : 0;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void print_json(const WorkloadDef& def, std::uint64_t seed, bool correct,
                std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, double>& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              def.name, seed, correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--mode plain|layers [--samples <file>]\n");
  return 2;
}

int stall(const WorkloadDef& def, const PassResult& r) {
  std::fprintf(stderr, "perfbench: %s stalled: %s\n", def.name,
               r.stall_msg.c_str());
  return 3;
}

int run(int argc, char** argv) {
  std::string workload, mode = "plain", samples_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10), have_seed = true;
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--mode") mode = v;
    else if (k == "--samples") samples_path = v;
    else return usage();
  }
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (!def || !have_seed || seconds <= 0 ||
      (mode != "plain" && mode != "layers")) {
    return usage();
  }
  const bool odafs = def->kind != Kind::lossy;

  std::map<std::string, double> out;
  const auto t_start = Clock::now();
  std::optional<PassResult> first;  // every pass must reproduce it exactly
  std::size_t npasses = 0;

  auto check_pass = [&](const PassResult& r) -> int {
    if (r.stalled) return stall(*def, r);
    if (odafs && (r.m.mismatches > 0 || r.bad_files > 0)) {
      std::fprintf(stderr,
                   "perfbench: %s returned wrong bytes: %" PRIu64
                   " mismatched reads, %" PRIu64
                   " files differ (or fail to read back) after sync\n",
                   def->name, r.m.mismatches, r.bad_files);
      return 4;
    }
    if (first && r.fingerprint != first->fingerprint) {
      std::fprintf(stderr,
                   "perfbench: %s: simulated metrics differ between passes "
                   "of seed %" PRIu64 "\n",
                   def->name, seed);
      return 5;
    }
    ++npasses;
    return 0;
  };
  auto pass = [&](const PassOptions& opt, PassResult& r) -> int {
    r = run_pass(*def, seed, opt);
    if (int rc = check_pass(r)) return rc;
    if (!first) first = r;
    return 0;
  };

  // The reference work runs in the plain mode only: its allocations and
  // samples would count for the simulator in the layers mode.
  std::optional<RefWork> ref;
  if (mode == "plain") ref.emplace();

  // Untimed warm-up pass: page faults, allocator growth and the arena pool
  // are paid here, not in the first measured pass.
  PassResult plain;
  if (int rc = pass({nullptr, nullptr, ref ? &*ref : nullptr}, plain)) {
    return rc;
  }
  const double ops = static_cast<double>(plain.m.attempted);

  if (mode == "plain") {
    // Measured passes until the time is spent (at least three).
    std::vector<double> setup, setup_wall, wall_ops_s, ref_ops_s;
    do {
      PassResult r;
      if (int rc = pass({nullptr, nullptr, &*ref}, r)) return rc;
      // Set-up wall time at the speed of kRefSliceS, scaled by the pass's
      // own reference slices: set-up precedes them by milliseconds.
      const double slice_s = r.ref_s / (ops * def->ref_slices);
      setup_wall.push_back(r.setup_s);
      setup.push_back(r.setup_s * kRefSliceS / slice_s);
      wall_ops_s.push_back(ops / r.sim_host_s());
      // Host time in reference-seconds: the pass's reference time, the
      // benchmark's own generator and checks plus the reference work,
      // is one. Both share the simulator's time slots, so the machine's
      // drift divides out.
      ref_ops_s.push_back(ops * (r.harness_s + r.ref_s) / r.sim_host_s());
    } while (setup.size() < 3 || secs_since(t_start) < seconds);
    out = plain.sim;
    out["setup_s"] = median(setup);
    out["host_ops_per_ref_s"] = median(ref_ops_s);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out["host_peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::printf("host: %zu measured passes; wall ops/s per pass:",
                setup.size());
    for (double x : wall_ops_s) std::printf(" %.0f", x);
    std::printf("; ops/ref_s per pass:");
    for (double x : ref_ops_s) std::printf(" %.0f", x);
    std::printf("; set-up %.2f ms median (%.2f ms wall)\n",
                out["setup_s"] * 1e3, median(setup_wall) * 1e3);
  } else {
    // 1. Untraced (the warm-up pass above, repeated once warm): host cost
    //    per event, allocations.
    if (int rc = pass({}, plain)) return rc;
    // 2. Traced: Table-1 attribution, tail causes, RPC and disk counts.
    //    Must reproduce the untraced run bit for bit.
    obs::TraceRecorder rec;
    PassResult traced;
    if (int rc = pass({&rec, nullptr}, traced)) return rc;
    out = traced.layers;
    trace_layers(rec, traced, out);
    for (const auto& [k, v] : traced.sim) out[k] = v;
    out["sim.ns_per_event"] =
        plain.sim_host_s() * 1e9 / static_cast<double>(plain.events);
    out["host.wall_ops_per_s"] = ops / plain.sim_host_s();
    out["host.setup_wall_s"] = plain.setup_s;
    out["host.allocs_per_op"] = static_cast<double>(plain.allocs.calls) / ops;
    out["host.alloc_bytes_per_op"] =
        static_cast<double>(plain.allocs.bytes) / ops;
    out["obs.trace_overhead_ratio"] = traced.sim_host_s() / plain.sim_host_s();

    // 3. PC-sampled, untraced, until the time is spent: the host-time
    //    split by module. Samples accumulate across these passes.
    PcSampler sampler(std::size_t{1} << 21);
    do {
      PassResult r;
      if (int rc = pass({nullptr, &sampler}, r)) return rc;
    } while (secs_since(t_start) < seconds);
    if (!samples_path.empty() && !sampler.write(samples_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   samples_path.c_str());
      return 2;
    }

    // The bottleneck report: the busiest simulated resource.
    std::string top;
    double top_u = -1;
    for (const auto& [k, v] : out) {
      if (k.starts_with("util.") && v > top_u) top = k.substr(5), top_u = v;
    }
    std::printf("bottleneck: %s %s (utilisation %.3f)\n", def->name,
                top.c_str(), top_u);
  }

  const PassResult& p0 = *first;
  const std::uint64_t failed =
      p0.m.errors + p0.m.short_ops + p0.m.mismatches;
  std::printf("perfbench: %s seed %" PRIu64 ": %zu pass(es), %" PRIu64
              " ops/pass (%zu reads, %zu writes), failed: %" PRIu64
              " errors, %" PRIu64 " short, %" PRIu64 " wrong bytes; %" PRIu64
              " events/pass; %" PRIu64 " files differ after sync\n",
              def->name, seed, npasses, p0.m.attempted, p0.m.read_ns.size(),
              p0.m.write_ns.size(), p0.m.errors, p0.m.short_ops,
              p0.m.mismatches, p0.events, p0.bad_files);
  print_json(*def, seed, p0.m.mismatches == 0 && p0.bad_files == 0,
             p0.m.attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
