// Every simulated cost in one place.
//
// Values are calibrated against the paper's own measurements on its testbed
// (1 GHz Pentium III, ServerWorks LE, LANai9.2 on 64/66 PCI, FreeBSD 4.6):
//   * Table 2 — GM 1-byte RTT 23 us / 244 MB/s; VI poll 23 us, block 53 us;
//     UDP/Ethernet 80 us / 166 MB/s.
//   * Table 3 — 4 KB read response: RPC in-line 128/153 us, RPC direct
//     144 us, ORDMA 92 us.
//   * §5.1 — standard NFS peaks at 65 MB/s (client CPU saturated by copies);
//     NFS pre-posting 235 MB/s; DAFS/NFS-hybrid 230 MB/s.
// tests/calibration_test.cc asserts the Table 2 targets against this model.
// Table 3 is printed by bench/table3_response_time.cc and is not gated yet
// (ROADMAP.md, item 3).
#pragma once

#include "common/units.h"

namespace ordma::host {

struct CostModel {
  // --- host CPU ------------------------------------------------------------
  // Interrupt entry/exit + handler dispatch (FreeBSD 4.6 on PIII).
  Duration cpu_interrupt = usec_f(6.0);
  // Context switch / blocked-thread wakeup.
  Duration cpu_schedule = usec_f(5.0);
  // Trap into the kernel and back.
  Duration cpu_syscall = usec_f(1.5);
  // Memory copy: PIII + PC133 SDRAM sustains ~350 MB/s for large copies.
  Bandwidth mem_copy_bw = MBps(350);
  // Per-copy fixed cost (cache effects, call overhead).
  Duration copy_fixed = usec_f(0.3);

  Duration copy_cost(Bytes n) const {
    return copy_fixed + mem_copy_bw.time_for(n);
  }

  // --- NIC (LANai9.2, 200 MHz) ----------------------------------------------
  // Host PIO doorbell + descriptor write to start a NIC operation.
  Duration nic_doorbell = usec_f(1.5);
  // Firmware processing per transmitted / received fragment.
  Duration nic_tx_frag = usec_f(2.3);
  Duration nic_rx_frag = usec_f(2.3);
  // DMA engine: setup per transfer + PCI streaming rate (paper: 450 MB/s).
  Duration nic_dma_setup = usec_f(1.15);
  Bandwidth nic_dma_bw = MBps(450);
  // Servicing a GM get/put request in firmware. Low enough that the NIC
  // alone saturates a 2 Gb/s link with 4 KB gets (Fig. 7's ODAFS line);
  // the rest of ORDMA's 92 us response time (Table 3) is client-side.
  Duration nic_get_service = usec_f(8.0);
  Duration nic_put_service = usec_f(8.0);
  // TPT/TLB (§4.1): hit lookup on the NIC; miss interrupts the host, which
  // loads the entry by programmed I/O. Paper: "about 9 ms" per miss.
  Duration nic_tlb_hit = usec_f(0.3);
  Duration nic_tlb_miss = msec(9);
  // Capability MAC verification in firmware (SipHash over ~29 bytes at
  // 200 MHz). The paper's prototype skipped this; ours can too (flag below).
  Duration nic_cap_verify = usec_f(0.8);
  bool capabilities_enabled = true;

  // --- VI completion (§5, Table 2: poll 23 us vs block 53 us RTT) ----------
  // Polling descriptor pickup.
  Duration vi_poll_pickup = usec_f(1.4);
  // Blocking pickup: together with cpu_interrupt this puts the blocking
  // completion ≈ (53-23)/2 us above polling per side (Table 2).
  Duration vi_block_wakeup = usec_f(10.5);

  // --- UDP/IP over Ethernet emulation (Table 2: 80 us RTT, 166 MB/s) -------
  // Send-side stack traversal per datagram (socket + UDP + IP).
  Duration udp_tx_dgram = usec_f(7.0);
  // Per transmitted fragment after the first (IP fragmentation loop).
  Duration udp_tx_frag = usec_f(25.0);
  // Receive-side IP input + reassembly work per fragment.
  Duration udp_rx_frag = usec_f(6.0);
  // Socket wakeup & delivery per datagram.
  Duration udp_rx_dgram = usec_f(6.0);

  // --- RPC and file protocol processing -------------------------------------
  // Client: build/issue an RPC request (marshalling charged separately).
  Duration rpc_client_issue = usec_f(3.0);
  // Client: match & complete an RPC response.
  Duration rpc_client_complete = usec_f(2.5);
  // Server: dispatch a request to its handler (demux, thread handoff).
  Duration rpc_server_dispatch = usec_f(3.0);
  // NFS per-request protocol handler (vnode layer, cache lookup, reply).
  Duration nfs_server_proc = usec_f(6.0);
  Duration nfs_client_proc = usec_f(6.0);
  // Standard NFS receive staging: socket-buffer mbuf chain → buffer cache.
  // Much slower than a straight bcopy (per-mbuf traversal on FreeBSD 4.6);
  // this is the copy chain that pins standard NFS at ~65 MB/s (§5.1).
  Bandwidth nfs_stage_bw = MBps(88);
  // DAFS kernel-server per-request handler. Calibrated so a polling DAFS
  // server saturates at ~170 MB/s with 4 KB direct reads (§5.2) and the
  // 4 KB direct-RPC response time lands at ~144 us (Table 3).
  Duration dafs_server_proc = usec_f(14.0);
  Duration dafs_client_proc = usec_f(3.0);
  // User-level client file cache: lookup on a hit; block allocation,
  // replacement and completion handling on a miss.
  Duration cache_hit_proc = usec_f(1.0);
  Duration cache_miss_proc = usec_f(4.0);
  // Registering / deregistering one buffer with the NIC (on-the-fly pinning,
  // §3: "a performance penalty in the data transfer path").
  Duration memory_register = usec_f(4.0);
  Duration memory_deregister = usec_f(2.0);
  // Pre-posting one receive buffer descriptor to the NIC (RDDP-RPC, §3.2).
  Duration nic_prepost = usec_f(1.5);

  // --- disk (server storage; most experiments run warm-cache) --------------
  Duration disk_seek = msec(5);
  Bandwidth disk_bw = MBps(40);

  // --- wire framing ----------------------------------------------------------
  // GM fragments: 4 KB MTU, ~96 B of link+GM headers per fragment. With
  // 4 KB payload per 4192-byte wire unit a 2 Gb/s link yields 244 MB/s —
  // exactly the paper's GM/VI bandwidth.
  Bytes gm_mtu = 4096;
  Bytes gm_header = 96;
  // Ethernet emulation: 9 KB MTU. Fragment payload capacity leaves room
  // for an 8 KB NFS page plus RPC/UDP headers in a single fragment (§5.1's
  // "8KB IP fragments" carry 8 KB of file data each).
  Bytes eth_mtu = 8832;
  Bytes eth_header = 82;  // 14 eth + 20 ip + 8 udp + 40 slack/ifg equivalent
};

}  // namespace ordma::host
