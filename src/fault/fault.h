// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a pure description: per-class probabilities for network
// frame loss/duplication/corruption/delay, NIC misbehaviour (doorbell
// stalls, spurious TPT/TLB shootdowns, capability revocation mid-transfer)
// and disk transients. A FaultInjector turns the plan into decisions, drawing
// from Rng streams forked off the plan seed, so a run replays bit-identically
// from one integer. With an all-zero plan the injector makes no draws at all
// — behaviour (and the golden event-stream hash) is identical to running
// with no injector installed.
//
// Corruption model: GM frames carry a link-level CRC, so a damaged GM frame
// is always detected and dropped (the initiator recovers via timeout).
// Ethernet frames escape the link CRC with probability `corrupt_escape`;
// escaped frames are delivered with a flipped bit and it is the RPC-layer
// end-to-end checksum's job to catch them.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "net/packet.h"
#include "obs/flight.h"

namespace ordma::sim {
class Engine;
}

namespace ordma::fault {

struct NetFaults {
  double drop = 0.0;            // P(frame silently lost)
  double corrupt = 0.0;         // P(frame damaged in flight)
  double corrupt_escape = 0.0;  // P(damaged frame escapes the link CRC)
  double duplicate = 0.0;       // P(frame delivered twice)
  double delay_spike = 0.0;     // P(frame held back — overtaken = reordered)
  Duration delay = usec(80);    // extra latency applied to a held-back frame
};

struct NicFaults {
  double doorbell_stall = 0.0;  // P(doorbell write stalls the host)
  Duration stall = usec(20);
  double tlb_invalidate = 0.0;  // P(spurious TPT/TLB shootdown in resolve)
  double cap_revoke = 0.0;      // P(capability spuriously revoked mid-op)
  // P(capability spuriously revoked while a put resolves) — fires only on
  // the write path, so revoke-during-put recovery (partial-put rollback at
  // the target, replay at the initiator) stays exercised even in plans
  // that keep reads clean.
  double put_cap_revoke = 0.0;
};

struct DiskFaults {
  double transient_error = 0.0;  // P(media op fails with io_error once)
  double latency_spike = 0.0;    // P(media op takes a service-time outlier)
  Duration spike = msec(2);
};

struct FaultPlan {
  std::uint64_t seed = 1;
  NetFaults gm;
  NetFaults eth;
  NicFaults nic;
  DiskFaults disk;

  // The torture-matrix plan: 1% drop, 0.1% corrupt (always escaping on
  // ethernet), plus duplication and delay spikes on both fabrics and
  // spurious NIC exceptions — every recovery path stays busy.
  static FaultPlan adversarial(std::uint64_t seed);
};

// Verdict for one frame at its delivery point.
struct NetAction {
  bool drop = false;
  bool duplicate = false;
  Duration extra{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan),
        root_(plan.seed),
        net_rng_(root_.fork()),
        nic_rng_(root_.fork()),
        disk_rng_(root_.fork()) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Attach a flight-recorder ring ("fault") stamped from `eng`'s simulated
  // clock; every decision that fires is recorded (obs/flight.h). Purely
  // observational — no RNG draws, no scheduling — so hashes are unchanged.
  void bind_flight(sim::Engine* eng);

  // Arm/disarm the injector. While disarmed every hook is a benign no-op
  // and makes no RNG draws; the torture harness disarms around setup
  // (connection handshakes, file creation) and final verification so only
  // the measured workload runs under fire. Arming points are at
  // deterministic sim times, so replays stay bit-identical.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  // Link delivery hook, called once per frame. May replace the packet's
  // payload with a privately corrupted copy (payload Reps are shared with
  // retransmit buffers and must never be mutated in place).
  NetAction on_packet(net::Packet& p);

  // NIC hooks.
  Duration doorbell_stall();      // zero = no stall
  bool spurious_cap_revoke();     // pretend the capability was revoked
  bool spurious_put_revoke();     // revoke-during-put (write resolve only)
  bool spurious_tlb_invalidate();  // shoot down the segment's TLB entries

  // Disk hooks.
  bool disk_transient_error();
  Duration disk_latency_spike();  // zero = no outlier

  // Counters (exported as fault/* metrics).
  const CounterGroup& counters() const { return counters_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_corrupt_dropped() const {
    return frames_corrupt_dropped_;
  }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  std::uint64_t frames_delayed() const { return frames_delayed_; }
  std::uint64_t doorbell_stalls() const { return doorbell_stalls_; }
  std::uint64_t cap_revokes() const { return cap_revokes_; }
  std::uint64_t put_revokes() const { return put_revokes_; }
  std::uint64_t tlb_invalidates() const { return tlb_invalidates_; }
  std::uint64_t disk_errors() const { return disk_errors_; }
  std::uint64_t disk_spikes() const { return disk_spikes_; }

 private:
  void note(obs::flight::Ev ev, std::uint64_t a = 0, std::uint64_t b = 0);

  FaultPlan plan_;
  bool armed_ = true;
  sim::Engine* eng_ = nullptr;
  std::unique_ptr<obs::flight::Ring> ring_;
  Rng root_;
  Rng net_rng_;
  Rng nic_rng_;
  Rng disk_rng_;

  CounterGroup counters_;  // cluster-wide: exported with no host prefix
  Counter frames_dropped_{counters_, "fault/frames_dropped"};
  Counter frames_corrupt_dropped_{counters_, "fault/frames_corrupt_dropped"};
  Counter frames_corrupted_{counters_, "fault/frames_corrupt_escaped"};
  Counter frames_duplicated_{counters_, "fault/frames_duplicated"};
  Counter frames_delayed_{counters_, "fault/frames_delayed"};
  Counter doorbell_stalls_{counters_, "fault/doorbell_stalls"};
  Counter cap_revokes_{counters_, "fault/cap_revokes"};
  Counter put_revokes_{counters_, "fault/put_revokes"};
  Counter tlb_invalidates_{counters_, "fault/tlb_invalidates"};
  Counter disk_errors_{counters_, "fault/disk_errors"};
  Counter disk_spikes_{counters_, "fault/disk_spikes"};
};

}  // namespace ordma::fault
