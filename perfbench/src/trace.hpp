// Span tracing at the Actor/Context seam, from outside the program.
//
// TracedNode wraps an abd::Node in a benchmark-side Actor and hands the node
// a TracedContext, so every call across the seam — Node::read/write,
// on_message, Context::send/broadcast, set_timer/cancel_timer and timer
// fires — becomes a span in the node's EventLog. Nothing inside src/ is
// instrumented. Each log is written only by its node's home reactor thread;
// spans record their start/end on the steady clock (one clock for every
// node in the process) and the time their direct children covered, so self
// time is duration minus child time. analyze() joins the four logs into the
// per-op cost ledger after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/common/transport.hpp"
#include "alloc_hook.hpp"
#include "histogram.hpp"

namespace perfbench {

namespace abd = abdkit::abd;
using abdkit::Actor;
using abdkit::Context;
using abdkit::Duration;
using abdkit::Payload;
using abdkit::PayloadPtr;
using abdkit::ProcessId;
using abdkit::TimePoint;
using abdkit::TimerCallback;
using abdkit::TimerId;
using abdkit::Value;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

enum class EventKind : std::uint8_t {
  kIssue,      ///< Node::read / Node::write
  kOnMessage,  ///< Actor::on_message
  kSend,       ///< Context::send (broadcast is recorded as its n sends)
  kArm,        ///< Context::set_timer
  kTimer,      ///< Context::cancel_timer or a timer firing
  kUser,       ///< the benchmark's completion callback
};

struct Event {
  std::int64_t t0{0};
  std::int64_t t1{0};
  std::int64_t child_ns{0};  ///< time covered by direct child spans
  std::uint64_t round{0};    ///< protocol round of the payload, 0 if none
  std::int32_t parent{-1};   ///< enclosing span in the same log, -1 if none
  std::uint32_t peer{0};     ///< send: destination; on_message: sender
  std::uint32_t op{0};       ///< issue / user: the benchmark's op index
  EventKind kind{EventKind::kIssue};

  [[nodiscard]] std::int64_t self_ns() const noexcept { return t1 - t0 - child_ns; }
};

/// Spans are recorded only while tracing is on (all logs at once).
void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing() noexcept;

class EventLog {
 public:
  /// Pre-sizes the log; spans past `capacity` are dropped and counted.
  void reserve(std::size_t capacity) { events_.reserve(capacity); }

  [[nodiscard]] std::int32_t open(EventKind kind, std::uint64_t round, std::uint32_t peer,
                                  std::uint32_t op);
  void close(std::int32_t index) noexcept;

  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Payloads kept for the offline codec replay (every kSampleEvery-th send).
  static constexpr std::uint64_t kSampleEvery = 16;
  static constexpr std::size_t kMaxSamples = 2048;
  void sample(const PayloadPtr& payload);
  [[nodiscard]] const std::vector<PayloadPtr>& samples() const noexcept { return samples_; }

 private:
  std::vector<Event> events_;
  std::vector<std::int32_t> open_;
  std::uint64_t dropped_{0};
  std::uint64_t sends_seen_{0};
  std::vector<PayloadPtr> samples_;
};

/// RAII span: records into `log` (when tracing is on) and charges the
/// allocations made inside it to `alloc_span`.
class Span {
 public:
  Span(EventLog* log, EventKind kind, alloc::Span alloc_span, std::uint64_t round = 0,
       std::uint32_t peer = 0, std::uint32_t op = 0)
      : log_{log}, scope_{alloc_span} {
    if (log_ != nullptr && tracing()) index_ = log_->open(kind, round, peer, op);
  }
  ~Span() {
    if (index_ >= 0) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  EventLog* log_;
  alloc::Scope scope_;
  std::int32_t index_{-1};
};

/// Protocol round carried by an ABD payload (0 for anything else).
[[nodiscard]] std::uint64_t round_of(const Payload& payload) noexcept;

class TracedContext final : public Context {
 public:
  TracedContext(Context& inner, EventLog& log) : inner_{inner}, log_{log} {}

  [[nodiscard]] ProcessId self() const noexcept override { return inner_.self(); }
  [[nodiscard]] std::size_t world_size() const noexcept override {
    return inner_.world_size();
  }
  void send(ProcessId to, PayloadPtr payload) override;
  void broadcast(PayloadPtr payload) override;
  TimerId set_timer(Duration delay, TimerCallback cb) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] TimePoint now() const noexcept override { return inner_.now(); }

 private:
  Context& inner_;
  EventLog& log_;
};

class TracedNode final : public Actor {
 public:
  TracedNode(std::unique_ptr<abd::Node> node, bool client, std::size_t log_capacity);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, ProcessId from, const Payload& payload) override;

  void read(abd::ObjectId object, std::uint32_t op, abd::OpCallback done);
  void write(abd::ObjectId object, Value value, std::uint32_t op, abd::OpCallback done);

  [[nodiscard]] EventLog& log() noexcept { return log_; }

 private:
  std::unique_ptr<abd::Node> node_;
  bool client_;
  EventLog log_;
  std::unique_ptr<TracedContext> ctx_;
};

/// One traced op as the generator saw it (its own invoke/callback stamps).
struct TracedOp {
  std::uint32_t op{0};
  std::int64_t invoked{0};
  std::int64_t done{0};
};

/// Offline join of the logs. Sums are over every recorded span; the ledger
/// and transit histograms are in nanoseconds.
struct Analysis {
  std::int64_t issue_self_ns{0};
  std::int64_t client_reply_self_ns{0};
  std::int64_t replica_self_ns{0};
  std::int64_t send_ns{0};
  std::int64_t timer_ns{0};
  std::uint64_t timers_armed{0};
  std::uint64_t dropped_events{0};

  LogLinearHistogram request_transit;
  LogLinearHistogram reply_transit;
  LogLinearHistogram quorum_wait;

  // Per-op seams along each round's quorum-completing chain.
  LogLinearHistogram ledger_client;
  LogLinearHistogram ledger_send;
  LogLinearHistogram ledger_request_transit;
  LogLinearHistogram ledger_replica;
  LogLinearHistogram ledger_reply_transit;
  LogLinearHistogram ledger_op;
  /// Per op: traced latency minus the sum of its seams.
  LogLinearHistogram ledger_gap;
  std::uint64_t chains{0};
  std::uint64_t broken_chains{0};
};

/// `replicas` are the replica nodes' logs (index = ProcessId), `client` the
/// client node's; `ops` the traced ops with their generator stamps.
[[nodiscard]] Analysis analyze(const std::vector<const EventLog*>& replicas,
                               const EventLog& client, const std::vector<TracedOp>& ops);

}  // namespace perfbench
