#include "rpc/session.h"

#include <algorithm>

#include "obs/sampler.h"

namespace ordma::rpc {

Errc RetryLoop::timed_out(std::uint32_t id, unsigned attempt, SimTime wait0,
                          obs::OpId trace_op) {
  ++timeouts_;
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::rpc_timeout,
                        id, 0, attempt);
  // The whole timed-out wait is retransmit/backoff dead time: nothing the
  // op was charged for happened between the lost exchange and this
  // instant. The tail explainer blames it on `rpc_retransmit` (lower
  // priority than real work recorded inside the window, so live costs of
  // the lost attempt keep their own causes).
  obs::span(track_, trace_op, "io/rpc_retransmit", wait0,
            host_.engine().now());
  return Errc::timed_out;
}

bool RetryLoop::retransmit(std::uint32_t id, unsigned attempt,
                           Duration& timeout, obs::OpId trace_op) {
  if (wait_forever() || attempt >= std::max(1u, policy_.max_attempts)) {
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::rpc_giveup, id, 0, attempt);
    return false;
  }
  ++retransmits_;
  obs::note_op_retry(trace_op);
  host_.flight().record(host_.engine().now().ns,
                        obs::flight::Ev::rpc_retransmit, id, 0, attempt + 1);
  timeout = Duration{std::min<std::int64_t>(
      static_cast<std::int64_t>(static_cast<double>(timeout.ns) *
                                policy_.backoff),
      policy_.max_timeout.ns)};
  return true;
}

}  // namespace ordma::rpc
