// A unidirectional serialising link: packets queue for the wire (bandwidth
// contention is real — two flows into one port share it), each takes
// wire_size/bandwidth to serialise, then arrives after the propagation
// latency. Delivery order is FIFO per link.
#pragma once

#include <functional>
#include <string>

#include "common/stats.h"
#include "common/units.h"
#include "fault/fault.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace ordma::net {

class Link {
 public:
  using DeliverFn = std::function<void(Packet)>;

  Link(sim::Engine& eng, Bandwidth bw, Duration latency, std::string name)
      : eng_(eng),
        bw_(bw),
        latency_(latency),
        name_(std::move(name)),
        trace_track_("net", name_),
        queue_(eng) {
    eng_.spawn(pump());
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_sink(DeliverFn sink) { sink_ = std::move(sink); }
  // Optional fault-injection hook consulted at the delivery point. Not
  // owned; must outlive the link. Null (the default) means a perfect wire.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  void send(Packet p) {
    bytes_offered_ += p.wire_size();
    queue_.send(std::move(p));
  }

  const std::string& name() const { return name_; }
  Bandwidth bandwidth() const { return bw_; }
  Bytes bytes_offered() const { return bytes_offered_; }
  Bytes bytes_delivered() const { return bytes_delivered_; }
  std::size_t backlog() const { return queue_.pending(); }
  // Exported under "net/<node>/up_" or "net/<node>/down_".
  const CounterGroup& counters() const { return counters_; }

 private:
  sim::Task<void> pump() {
    for (;;) {
      Packet p = co_await queue_.recv();
      // Serialise onto the wire (head-of-line for this link)...
      const SimTime ser_begin = eng_.now();
      co_await eng_.delay(bw_.time_for(p.wire_size()));
      bytes_delivered_ += p.wire_size();
      // One wire span per packet covering serialisation + propagation; the
      // recorder lane-splits the track where pipelined packets overlap.
      obs::span(trace_track_, p.trace_op, "wire/tx", ser_begin,
                eng_.now() + latency_);
      // ...then propagate; delivery happens latency later without blocking
      // the next packet's serialisation (pipelining).
      if (sink_) {
        Duration extra{0};
        if (faults_) {
          const fault::NetAction act = faults_->on_packet(p);
          if (act.drop) continue;  // lost on the wire
          extra = act.extra;
          if (act.duplicate) {
            // Deliver a second copy back-to-back (payload Rep is shared).
            eng_.schedule_fn(latency_ + extra, [this, p]() mutable {
              sink_(std::move(p));
            });
          }
        }
        // Copy into the closure; the link does not own packets in flight.
        eng_.schedule_fn(latency_ + extra, [this, p = std::move(p)]() mutable {
          sink_(std::move(p));
        });
      }
    }
  }

  sim::Engine& eng_;
  Bandwidth bw_;
  Duration latency_;
  std::string name_;
  obs::Track trace_track_;
  sim::Channel<Packet> queue_;
  DeliverFn sink_;
  fault::FaultInjector* faults_ = nullptr;
  CounterGroup counters_;
  Counter bytes_offered_{counters_, "bytes_offered"};
  Counter bytes_delivered_{counters_, "bytes"};
};

}  // namespace ordma::net
