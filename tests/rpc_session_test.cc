// Unit tests for the request/reply session layer (rpc/session.h) shared by
// ONC RPC and DAFS: the retry loop's retransmit schedule and give-up
// outcomes, the waiter table's handling of late and duplicate replies, and
// the server duplicate-request cache (RpcServer's use of it is covered in
// rpc_test.cc).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "host/host.h"
#include "rpc/session.h"
#include "sim/engine.h"

namespace ordma::rpc {
namespace {

class RetryLoopTest : public ::testing::Test {
 public:
  // Run one call of request `id` to completion. `send` runs at each
  // attempt (after the attempt's event is armed); `accept` sees each
  // wait's outcome.
  template <typename Send, typename Accept>
  Result<int> run_call(RetryLoop& loop, std::uint32_t id, Send send,
                       Accept accept) {
    std::optional<Result<int>> out;
    eng_.spawn([](RetryLoop& loop, WaiterTable<int>& waiters,
                  std::uint32_t id, Send send, Accept accept,
                  std::optional<Result<int>>& out) -> sim::Task<void> {
      out = co_await loop.call(waiters, id, /*trace_op=*/0, send, accept);
    }(loop, waiters_, id, send, accept, out));
    eng_.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(Errc::invalid_argument);
  }

  // A send step that records each attempt's instant.
  auto recording_send() {
    return [this]() -> sim::Task<void> {
      sends_.push_back(eng_.now().ns);
      co_return;
    };
  }

  sim::Engine eng_;
  host::CostModel cm_;
  host::Host host_{eng_, "client", cm_};
  WaiterTable<int> waiters_{eng_};
  std::vector<std::int64_t> sends_;
};

bool take_any(const std::optional<int>& got) { return got.has_value(); }

TEST_F(RetryLoopTest, BacksOffToTheCapThenGivesUpTimedOut) {
  RetryLoop loop(host_, {msec(1), 5, 2.0, msec(3)}, "rpc");
  const auto out = run_call(loop, 1, recording_send(), take_any);
  EXPECT_EQ(out.code(), Errc::timed_out);
  // Waits of t, t*b, then capped at max_timeout: 1, 2, 3, 3, 3 ms.
  EXPECT_EQ(sends_, (std::vector<std::int64_t>{0, msec(1).ns, msec(3).ns,
                                               msec(6).ns, msec(9).ns}));
  EXPECT_EQ(eng_.now().ns, msec(12).ns);
  EXPECT_EQ(loop.timeouts(), 5u);
  EXPECT_EQ(loop.retransmits(), 4u);
  EXPECT_EQ(waiters_.size(), 0u);
}

TEST_F(RetryLoopTest, RejectedRepliesRetransmitAtOnceThenGiveUpIoError) {
  RetryLoop loop(host_, {msec(1), 3, 2.0, msec(100)}, "rpc");
  std::vector<std::optional<int>> seen;
  auto send = [this]() -> sim::Task<void> {
    sends_.push_back(eng_.now().ns);
    EXPECT_TRUE(waiters_.deliver(7, -1));  // arrives corrupt
    co_return;
  };
  auto reject = [&seen](const std::optional<int>& got) {
    seen.push_back(got);
    return false;  // e.g. a failed checksum
  };
  const auto out = run_call(loop, 7, send, reject);
  EXPECT_EQ(out.code(), Errc::io_error);
  EXPECT_EQ(sends_, (std::vector<std::int64_t>{0, 0, 0}));  // no waiting
  EXPECT_EQ(seen, (std::vector<std::optional<int>>{-1, -1, -1}));
  EXPECT_EQ(loop.timeouts(), 0u);
  EXPECT_EQ(loop.retransmits(), 2u);
}

TEST_F(RetryLoopTest, TimeoutZeroWaitsForever) {
  RetryLoop loop(host_, {}, "rpc");
  eng_.schedule_fn(sec(5), [this] { waiters_.deliver(3, 42); });
  const auto out = run_call(loop, 3, recording_send(), take_any);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), 42);
  EXPECT_EQ(sends_.size(), 1u);
  EXPECT_EQ(loop.timeouts(), 0u);
}

TEST_F(RetryLoopTest, LateAndDuplicateRepliesAreIgnored) {
  RetryLoop loop(host_, {msec(1), 4, 2.0, msec(100)}, "rpc");
  std::vector<bool> delivered;
  // Attempt 1 times out; attempt 2 is answered twice within its wait
  // (a duplicated frame); the reply to attempt 1 straggles in after the
  // call has completed.
  eng_.schedule_fn(usec(1500), [&] {
    delivered.push_back(waiters_.deliver(9, 1));
    delivered.push_back(waiters_.deliver(9, 2));
  });
  eng_.schedule_fn(msec(20), [&] {
    delivered.push_back(waiters_.deliver(9, 3));
  });
  const auto out = run_call(loop, 9, recording_send(), take_any);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), 1);
  EXPECT_EQ(sends_.size(), 2u);
  EXPECT_EQ(delivered, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(loop.timeouts(), 1u);
  EXPECT_EQ(waiters_.size(), 0u);
}

TEST_F(RetryLoopTest, EachArmSupersedesThePreviousEvent) {
  sim::Event<int>& first = waiters_.arm(5);
  EXPECT_TRUE(waiters_.deliver(5, 1));
  EXPECT_TRUE(first.is_set());
  sim::Event<int>& second = waiters_.arm(5);  // supersedes the first
  EXPECT_FALSE(second.is_set());
  EXPECT_TRUE(waiters_.deliver(5, 2));
  EXPECT_EQ(second.peek(), 2);
  waiters_.erase(5);
  EXPECT_FALSE(waiters_.deliver(5, 3));
}

using Cache = DupCache<std::uint32_t, int>;

TEST(DupCache, DropsWhileInProgressThenReplays) {
  Cache c;
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::run);
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::drop);
  EXPECT_EQ(c.drops(), 1u);
  c.complete(1, 11, 100);
  const auto again = c.admit(1);
  EXPECT_EQ(again.kind, Cache::Admission::replay);
  EXPECT_EQ(again.reply, 11);
  EXPECT_EQ(c.replays(), 1u);
  EXPECT_EQ(c.admit(2).kind, Cache::Admission::run);  // keys are independent
}

TEST(DupCache, RepliesOver64KiBAreNotKept) {
  Cache c;
  ASSERT_EQ(c.admit(1).kind, Cache::Admission::run);
  c.complete(1, 11, KiB(64) + 1);
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::run);  // re-executes
  c.complete(1, 11, KiB(64));
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::replay);
}

TEST(DupCache, The257thCompletionEvictsTheOldest) {
  Cache c;
  for (std::uint32_t k = 1; k <= Cache::kCapacity; ++k) {
    ASSERT_EQ(c.admit(k).kind, Cache::Admission::run);
    c.complete(k, static_cast<int>(k), 100);
  }
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::replay);
  ASSERT_EQ(c.admit(1000).kind, Cache::Admission::run);
  c.complete(1000, 0, 100);
  EXPECT_EQ(c.admit(1).kind, Cache::Admission::run);  // evicted
  EXPECT_EQ(c.admit(2).kind, Cache::Admission::replay);
  EXPECT_EQ(c.admit(1000).kind, Cache::Admission::replay);
}

}  // namespace
}  // namespace ordma::rpc
