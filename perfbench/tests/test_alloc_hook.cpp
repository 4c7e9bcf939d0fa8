#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>

#include "abdkit/abd/messages.hpp"
#include "alloc_hook.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Escapes allocations so the compiler cannot elide a new/delete pair.
void* volatile g_escape = nullptr;

constexpr std::size_t kKnownBytes = 777;

void allocate_known() {
  auto* block = new std::array<char, kKnownBytes>{};
  g_escape = block;
  delete block;
}

/// A Context whose send() makes one known allocation.
class AllocatingContext final : public Context {
 public:
  [[nodiscard]] ProcessId self() const noexcept override { return 0; }
  [[nodiscard]] std::size_t world_size() const noexcept override { return 3; }
  void send(ProcessId, PayloadPtr) override { allocate_known(); }
  void broadcast(PayloadPtr payload) override {
    for (ProcessId p = 0; p < 3; ++p) send(p, payload);
  }
  TimerId set_timer(Duration, TimerCallback) override { return 1; }
  void cancel_timer(TimerId) override {}
  [[nodiscard]] TimePoint now() const noexcept override { return TimePoint{}; }
};

TEST(AllocHook, KnownAllocationLandsInOpenSpan) {
  const alloc::Totals before = alloc::snapshot();
  {
    alloc::Scope scope{alloc::Span::kReplica};
    allocate_known();
  }
  const alloc::Totals diff = alloc::snapshot() - before;
  EXPECT_EQ(diff.of(alloc::Span::kReplica), 1u);
  EXPECT_EQ(diff.bytes[static_cast<std::size_t>(alloc::Span::kReplica)], kKnownBytes);
  EXPECT_EQ(diff.all_count(), 1u);
}

TEST(AllocHook, InnermostScopeWinsAndOuterIsRestored) {
  const alloc::Totals before = alloc::snapshot();
  {
    alloc::Scope outer{alloc::Span::kClientReply};
    {
      alloc::Scope inner{alloc::Span::kSend};
      allocate_known();
    }
    EXPECT_EQ(alloc::current(), alloc::Span::kClientReply);
    allocate_known();
  }
  EXPECT_EQ(alloc::current(), alloc::Span::kOther);
  const alloc::Totals diff = alloc::snapshot() - before;
  EXPECT_EQ(diff.of(alloc::Span::kSend), 1u);
  EXPECT_EQ(diff.of(alloc::Span::kClientReply), 1u);
}

TEST(AllocHook, TracedSendChargesTheSendSpan) {
  AllocatingContext inner;
  EventLog log;
  log.reserve(16);
  TracedContext traced{inner, log};
  const PayloadPtr query = abdkit::make_payload<abd::ReadQuery>(abd::RoundId{1}, abd::ObjectId{0});
  const alloc::Totals before = alloc::snapshot();
  {
    alloc::Scope scope{alloc::Span::kClientIssue};
    traced.broadcast(query);
  }
  const alloc::Totals diff = alloc::snapshot() - before;
  EXPECT_EQ(diff.of(alloc::Span::kSend), 3u);
  EXPECT_EQ(diff.bytes[static_cast<std::size_t>(alloc::Span::kSend)], 3 * kKnownBytes);
  EXPECT_EQ(diff.of(alloc::Span::kClientIssue), 0u);
}

TEST(AllocHook, OtherThreadsCountInTheirOwnSpan) {
  const alloc::Totals before = alloc::snapshot();
  std::thread worker{[] {
    alloc::Scope scope{alloc::Span::kTimer};
    allocate_known();
  }};
  worker.join();
  const alloc::Totals diff = alloc::snapshot() - before;
  EXPECT_EQ(diff.of(alloc::Span::kTimer), 1u);
}

}  // namespace
}  // namespace perfbench
