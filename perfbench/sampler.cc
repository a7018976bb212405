#include "sampler.h"

#include <link.h>
#include <signal.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

// Handler state. Only one sampler runs at a time; the handler touches
// nothing but these.
std::uintptr_t* g_buf = nullptr;
std::size_t g_cap = 0;
std::atomic<std::size_t> g_len{0};

void on_sigprof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;
  (void)uc;
#endif
  const std::size_t i = g_len.load(std::memory_order_relaxed);
  if (i < g_cap) {
    g_buf[i] = pc;
    g_len.store(i + 1, std::memory_order_relaxed);
  }
}

struct Object {
  std::string name;  // empty = the executable
  std::uintptr_t bias = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> exec;  // [lo, hi)
};

int collect(dl_phdr_info* info, std::size_t, void* data) {
  auto& objs = *static_cast<std::vector<Object>*>(data);
  Object o;
  o.name = info->dlpi_name ? info->dlpi_name : "";
  o.bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X)) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    o.exec.emplace_back(lo, lo + ph.p_memsz);
  }
  objs.push_back(std::move(o));
  return 0;
}

}  // namespace

PcSampler::PcSampler(std::size_t capacity) : pcs_(capacity) {
  g_len.store(0);
}

PcSampler::~PcSampler() { stop(); }

void PcSampler::start(long period_us) {
  if (running_) return;
  g_buf = pcs_.data();
  g_cap = pcs_.size();

  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  // CLOCK_MONOTONIC is a high-resolution timer; the process CPU-time
  // clocks are only checked at scheduler ticks (100-1000 Hz). The
  // simulation is one CPU-bound thread, so wall and CPU time agree.
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    std::perror("timer_create");
    return;
  }
  itimerspec its{};
  its.it_interval.tv_sec = period_us / 1000000;
  its.it_interval.tv_nsec = (period_us % 1000000) * 1000;
  its.it_value = its.it_interval;
  timer_settime(timer_, 0, &its, nullptr);
  running_ = true;
}

void PcSampler::stop() {
  if (!running_) return;
  timer_delete(timer_);
  // A signal already queued may still arrive: ignore it from here on.
  signal(SIGPROF, SIG_IGN);
  running_ = false;
}

bool PcSampler::write(const std::string& path) const {
  std::vector<Object> objs;
  dl_iterate_phdr(collect, &objs);

  std::map<std::uintptr_t, std::uint64_t> exe_pcs;
  std::map<std::string, std::uint64_t> libs;
  std::uint64_t unknown = 0;
  const std::size_t n_samples = std::min(g_len.load(), pcs_.size());
  for (std::size_t i = 0; i < n_samples; ++i) {
    const std::uintptr_t pc = pcs_[i];
    const Object* hit = nullptr;
    for (const Object& o : objs) {
      for (const auto& [lo, hi] : o.exec) {
        if (pc >= lo && pc < hi) hit = &o;
      }
      if (hit) break;
    }
    if (!hit) {
      ++unknown;
    } else if (hit->name.empty()) {
      ++exe_pcs[pc - hit->bias];
    } else {
      const auto slash = hit->name.rfind('/');
      ++libs[slash == std::string::npos ? hit->name
                                        : hit->name.substr(slash + 1)];
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  char exe[4096] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  std::fprintf(f, "exe %s\n", n > 0 ? exe : "");
  for (const auto& [pc, c] : exe_pcs) {
    std::fprintf(f, "pc %llx %llu\n", static_cast<unsigned long long>(pc),
                 static_cast<unsigned long long>(c));
  }
  for (const auto& [name, c] : libs) {
    std::fprintf(f, "lib %s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(c));
  }
  std::fprintf(f, "unknown %llu\n", static_cast<unsigned long long>(unknown));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
