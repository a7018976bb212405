// The request/reply session layer shared by ONC RPC over UDP (rpc/rpc.h)
// and DAFS over VI/GM (nas/dafs/): the two protocols differ in transport
// and data placement, not in how a request waits, retransmits and gives up,
// or in how a server suppresses duplicates. Three pieces:
//
//  * WaiterTable<T> — request id -> the one-shot reply event of the attempt
//    in flight. A transport's receive loop delivers into it; late replies
//    (no request waiting) and duplicates within one attempt are ignored.
//  * RetryLoop — the client timeout/backoff/retransmit loop. Each protocol
//    supplies a send step and an accept step; the loop owns the timeout and
//    retransmit counters, the rpc_timeout / rpc_retransmit / rpc_giveup
//    flight events and the "io/rpc_retransmit" backoff spans. It is awaited
//    inline (symmetric transfer), so it moves no engine event.
//  * DupCache<Key, Reply> — server duplicate-request suppression: a
//    duplicate of a request still executing is dropped, one of a completed
//    request gets the sealed reply replayed without re-running the handler.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "common/stats.h"
#include "common/units.h"
#include "host/host.h"
#include "obs/trace.h"
#include "sim/event.h"
#include "sim/task.h"

namespace ordma::rpc {

// Client-side timeout/retransmission policy. The default (timeout 0) waits
// forever and never retransmits — the classic lossless-fabric behaviour.
struct RpcRetryPolicy {
  Duration timeout{0};        // initial reply timeout; 0 = wait forever
  unsigned max_attempts = 1;  // total transmissions before giving up
  double backoff = 2.0;       // timeout multiplier per retransmission
  Duration max_timeout = msec(100);
};

template <typename T>
class WaiterTable {
 public:
  explicit WaiterTable(sim::Engine& eng) : eng_(eng) {}

  // A fresh one-shot event for `id`, superseding any earlier attempt's.
  // The reference stays valid until the next arm() or erase() of `id`.
  sim::Event<T>& arm(std::uint32_t id) { return map_[id].emplace(eng_); }

  // Hand a reply to the request waiting on `id`. Returns false (and drops
  // the reply) when none is waiting or this attempt already has its reply.
  template <typename... V>
  bool deliver(std::uint32_t id, V&&... reply) {
    auto it = map_.find(id);
    if (it == map_.end() || it->second->is_set()) return false;
    it->second->set(std::forward<V>(reply)...);
    return true;
  }

  void erase(std::uint32_t id) { map_.erase(id); }
  std::size_t size() const { return map_.size(); }

 private:
  sim::Engine& eng_;
  std::unordered_map<std::uint32_t, std::optional<sim::Event<T>>> map_;
};

class RetryLoop {
 public:
  // `component` names the trace lane of the backoff spans.
  RetryLoop(host::Host& host, RpcRetryPolicy policy, std::string component)
      : host_(host),
        policy_(policy),
        track_(host.name(), std::move(component)) {}

  // Transmit request `id` and await an accepted reply. Each attempt arms a
  // fresh event in `waiters` and runs `send()` (an awaitable); each wait's
  // outcome — the reply, or nullopt on timeout — goes to `accept(got)`,
  // which returns true to take the reply. A rejected reply retransmits at
  // once; a timeout first charges the dead window to "io/rpc_retransmit".
  // Gives up with Errc::timed_out, or Errc::io_error when the last attempt
  // got a rejected reply.
  template <typename Reply, typename Send, typename Accept>
  sim::Task<Result<Reply>> call(WaiterTable<Reply>& waiters, std::uint32_t id,
                                obs::OpId trace_op, Send send,
                                Accept accept) {
    Duration timeout = policy_.timeout;
    for (unsigned attempt = 1;; ++attempt) {
      sim::Event<Reply>& reply = waiters.arm(id);
      co_await send();
      const SimTime wait0 = host_.engine().now();
      std::optional<Reply> got;
      if (wait_forever()) {
        got = co_await reply.wait();
      } else {
        got = co_await reply.wait_for(timeout);
      }
      if (accept(got)) {
        waiters.erase(id);
        co_return std::move(*got);
      }
      const Errc err = got ? Errc::io_error : timed_out(id, attempt, wait0,
                                                        trace_op);
      if (!retransmit(id, attempt, timeout, trace_op)) {
        waiters.erase(id);
        co_return err;
      }
    }
  }

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  const CounterGroup& counters() const { return counters_; }

 private:
  bool wait_forever() const { return policy_.timeout.ns <= 0; }
  // Count a timed-out wait and blame its window on retransmit dead air.
  Errc timed_out(std::uint32_t id, unsigned attempt, SimTime wait0,
                 obs::OpId trace_op);
  // After failed attempt `attempt`: give up (false) or count the
  // retransmission and back `timeout` off (true).
  bool retransmit(std::uint32_t id, unsigned attempt, Duration& timeout,
                  obs::OpId trace_op);

  host::Host& host_;
  RpcRetryPolicy policy_;
  // Track for retransmit-backoff spans: the dead window between a lost
  // attempt and its retransmission, which the tail explainer
  // (obs/explain.h) surfaces as a first-class cause.
  obs::Track track_;
  CounterGroup counters_;
  Counter retransmits_{counters_, "rpc/retransmits"};
  Counter timeouts_{counters_, "rpc/timeouts"};
};

template <typename Key, typename Reply, typename Hash = std::hash<Key>>
class DupCache {
 public:
  // Bounded FIFO of completed replies. Replies above kMaxReply are not
  // kept: re-executing a large read is idempotent and cheaper than pinning
  // its reply buffer.
  static constexpr std::size_t kCapacity = 256;
  static constexpr Bytes kMaxReply = KiB(64);

  struct Admission {
    enum Kind { run, drop, replay } kind = run;
    Reply reply{};  // the sealed reply to resend, for `replay`
  };

  // Classify an arriving request. A new one is marked in progress (`run`:
  // execute it, then complete()); a duplicate of one still executing is
  // `drop`ped — the original's reply will serve it; a duplicate of a
  // completed one gets its cached reply to `replay`.
  Admission admit(const Key& key) {
    auto [it, fresh] = entries_.try_emplace(key);
    if (fresh) return {};
    if (!it->second) {
      ++drops_;
      return {Admission::drop};
    }
    ++replays_;
    return {Admission::replay, *it->second};
  }

  // Record the sealed reply of a request admitted with `run`, before it is
  // sent, so a duplicate arriving during the send already replays.
  void complete(const Key& key, Reply reply, Bytes wire_bytes) {
    if (wire_bytes > kMaxReply) {
      entries_.erase(key);
      return;
    }
    entries_[key] = std::move(reply);
    order_.push_back(key);
    if (order_.size() > kCapacity) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }

  std::uint64_t replays() const { return replays_; }
  std::uint64_t drops() const { return drops_; }
  // Adopted by the ONC RPC server; DAFS keeps one cache per connection and
  // sums them instead, so no per-connection series appears.
  const CounterGroup& counters() const { return counters_; }

 private:
  // nullopt = in progress.
  std::unordered_map<Key, std::optional<Reply>, Hash> entries_;
  std::deque<Key> order_;  // completed entries, oldest first
  CounterGroup counters_;
  Counter replays_{counters_, "rpc/dup_replays"};
  Counter drops_{counters_, "rpc/dup_drops"};
};

}  // namespace ordma::rpc
