#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "abdkit/abd/messages.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

}  // namespace

void set_tracing(bool on) noexcept { g_tracing.store(on, std::memory_order_release); }

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

std::int32_t EventLog::open(EventKind kind, std::uint64_t round, std::uint32_t peer,
                            std::uint32_t op) {
  if (events_.size() == events_.capacity()) {
    ++dropped_;
    return -1;
  }
  Event event;
  event.kind = kind;
  event.round = round;
  event.peer = peer;
  event.op = op;
  event.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(events_.size());
  events_.push_back(event);
  open_.push_back(index);
  events_.back().t0 = now_ns();
  return index;
}

void EventLog::close(std::int32_t index) noexcept {
  Event& event = events_[static_cast<std::size_t>(index)];
  event.t1 = now_ns();
  open_.pop_back();
  if (event.parent >= 0) {
    events_[static_cast<std::size_t>(event.parent)].child_ns += event.t1 - event.t0;
  }
}

void EventLog::sample(const PayloadPtr& payload) {
  if (sends_seen_++ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
    if (samples_.capacity() == 0) samples_.reserve(kMaxSamples);
    samples_.push_back(payload);
  }
}

std::uint64_t round_of(const Payload& payload) noexcept {
  if (const auto* m = payload_cast<abd::ReadQuery>(payload)) return m->round;
  if (const auto* m = payload_cast<abd::ReadReply>(payload)) return m->round;
  if (const auto* m = payload_cast<abd::TagQuery>(payload)) return m->round;
  if (const auto* m = payload_cast<abd::TagReply>(payload)) return m->round;
  if (const auto* m = payload_cast<abd::Update>(payload)) return m->round;
  if (const auto* m = payload_cast<abd::UpdateAck>(payload)) return m->round;
  return 0;
}

// ---- TracedContext -----------------------------------------------------------------

void TracedContext::send(ProcessId to, PayloadPtr payload) {
  Span span{&log_, EventKind::kSend, alloc::Span::kSend, round_of(*payload), to};
  if (tracing()) log_.sample(payload);
  inner_.send(to, std::move(payload));
}

void TracedContext::broadcast(PayloadPtr payload) {
  // Same sequence as every runtime's broadcast: one send per process, in id
  // order, so each destination gets its own send-return timestamp.
  const auto n = static_cast<ProcessId>(inner_.world_size());
  for (ProcessId p = 0; p < n; ++p) send(p, payload);
}

TimerId TracedContext::set_timer(Duration delay, TimerCallback cb) {
  Span span{&log_, EventKind::kArm, alloc::Span::kTimer};
  return inner_.set_timer(delay, [this, cb = std::move(cb)] {
    Span fire{&log_, EventKind::kTimer, alloc::Span::kTimer};
    cb();
  });
}

void TracedContext::cancel_timer(TimerId id) {
  Span span{&log_, EventKind::kTimer, alloc::Span::kTimer};
  inner_.cancel_timer(id);
}

// ---- TracedNode --------------------------------------------------------------------

TracedNode::TracedNode(std::unique_ptr<abd::Node> node, bool client,
                       std::size_t log_capacity)
    : node_{std::move(node)}, client_{client} {
  log_.reserve(log_capacity);
}

void TracedNode::on_start(Context& ctx) {
  ctx_ = std::make_unique<TracedContext>(ctx, log_);
  node_->on_start(*ctx_);
}

void TracedNode::on_message(Context&, ProcessId from, const Payload& payload) {
  Span span{&log_, EventKind::kOnMessage,
            client_ ? alloc::Span::kClientReply : alloc::Span::kReplica, round_of(payload),
            from};
  node_->on_message(*ctx_, from, payload);
}

void TracedNode::read(abd::ObjectId object, std::uint32_t op, abd::OpCallback done) {
  Span span{&log_, EventKind::kIssue, alloc::Span::kClientIssue, 0, 0, op};
  node_->read(object, std::move(done));
}

void TracedNode::write(abd::ObjectId object, Value value, std::uint32_t op,
                       abd::OpCallback done) {
  Span span{&log_, EventKind::kIssue, alloc::Span::kClientIssue, 0, 0, op};
  node_->write(object, std::move(value), std::move(done));
}

// ---- analysis ----------------------------------------------------------------------

namespace {

/// Key for a (round, replica) pair.
std::uint64_t key(std::uint64_t round, std::uint32_t replica) noexcept {
  return round * 64 + replica;
}

struct ReplicaVisit {
  std::int64_t entry{0};       ///< on_message entry at the replica
  std::int64_t reply_sent{0};  ///< return of its reply send
  std::int64_t reply_send_ns{0};
};

/// How a round ended on the client: the on_message that completed it.
struct RoundEnd {
  std::int32_t completer{-1};
  std::uint64_t next_round{0};  ///< the op's next round, started by completer
  std::int32_t user{-1};        ///< the op's callback span, if this was the last
};

/// Sum of the durations of `parent`'s direct child sends that returned by `until`.
std::int64_t sends_until(const std::vector<Event>& events,
                         const std::vector<std::vector<std::int32_t>>& children,
                         std::int32_t parent, std::int64_t until) {
  std::int64_t sum = 0;
  for (const std::int32_t c : children[static_cast<std::size_t>(parent)]) {
    const Event& e = events[static_cast<std::size_t>(c)];
    if (e.kind == EventKind::kSend && e.t1 <= until) sum += e.t1 - e.t0;
  }
  return sum;
}

void record_ns(LogLinearHistogram& h, std::int64_t ns) {
  h.record(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

}  // namespace

Analysis analyze(const std::vector<const EventLog*>& replicas, const EventLog& client,
                 const std::vector<TracedOp>& ops) {
  Analysis a;

  // Replica side: each request's arrival and the return of its reply send.
  std::unordered_map<std::uint64_t, ReplicaVisit> visits;
  for (std::uint32_t r = 0; r < replicas.size(); ++r) {
    const std::vector<Event>& events = replicas[r]->events();
    a.dropped_events += replicas[r]->dropped();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.kind == EventKind::kOnMessage) {
        a.replica_self_ns += e.self_ns();
        if (e.round != 0) visits[key(e.round, r)].entry = e.t0;
      } else if (e.kind == EventKind::kSend) {
        a.send_ns += e.t1 - e.t0;
        if (e.parent >= 0 && e.round != 0) {
          ReplicaVisit& v = visits[key(e.round, r)];
          v.reply_sent = e.t1;
          v.reply_send_ns = e.t1 - e.t0;
        }
      } else if (e.kind == EventKind::kArm || e.kind == EventKind::kTimer) {
        a.timer_ns += e.self_ns();
        if (e.kind == EventKind::kArm) ++a.timers_armed;
      }
    }
  }

  // Client side.
  const std::vector<Event>& events = client.events();
  a.dropped_events += client.dropped();
  std::vector<std::vector<std::int32_t>> children(events.size());
  std::unordered_map<std::uint64_t, std::int64_t> sends;       // key(round, to) -> return
  std::unordered_map<std::uint64_t, std::int64_t> last_send;   // round -> last return
  std::unordered_map<std::uint64_t, std::int64_t> arrivals;    // key(round, from)
  std::unordered_map<std::uint64_t, RoundEnd> ends;            // round
  std::unordered_map<std::uint32_t, std::int32_t> issues;      // op -> issue span
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.parent >= 0) children[static_cast<std::size_t>(e.parent)].push_back(
        static_cast<std::int32_t>(i));
    switch (e.kind) {
      case EventKind::kIssue:
        a.issue_self_ns += e.self_ns();
        issues[e.op] = static_cast<std::int32_t>(i);
        break;
      case EventKind::kOnMessage:
        a.client_reply_self_ns += e.self_ns();
        arrivals[key(e.round, e.peer)] = e.t0;
        break;
      case EventKind::kSend: {
        a.send_ns += e.t1 - e.t0;
        sends[key(e.round, e.peer)] = e.t1;
        std::int64_t& last = last_send[e.round];
        last = std::max(last, e.t1);
        break;
      }
      case EventKind::kArm:
        ++a.timers_armed;
        a.timer_ns += e.self_ns();
        break;
      case EventKind::kTimer:
        a.timer_ns += e.self_ns();
        break;
      case EventKind::kUser:
        break;
    }
  }
  // A reply's on_message completed its round when, directly inside it, the
  // client started the op's next round (a send with a new round) or ran the
  // op's callback.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind != EventKind::kOnMessage || e.round == 0) continue;
    for (const std::int32_t c : children[i]) {
      const Event& child = events[static_cast<std::size_t>(c)];
      if (child.kind == EventKind::kSend && child.round != e.round) {
        RoundEnd& end = ends[e.round];
        end.completer = static_cast<std::int32_t>(i);
        end.next_round = child.round;
      } else if (child.kind == EventKind::kUser) {
        RoundEnd& end = ends[e.round];
        end.completer = static_cast<std::int32_t>(i);
        end.user = c;
      }
    }
  }

  // Transit of every request and reply, and each round's quorum wait.
  for (const auto& [k, returned] : sends) {
    const auto visit = visits.find(k);
    if (visit == visits.end() || visit->second.entry == 0) continue;
    record_ns(a.request_transit, visit->second.entry - returned);
    const auto arrival = arrivals.find(k);
    if (arrival != arrivals.end() && visit->second.reply_sent != 0) {
      record_ns(a.reply_transit, arrival->second - visit->second.reply_sent);
    }
  }
  for (const auto& [round, end] : ends) {
    const auto last = last_send.find(round);
    if (last == last_send.end() || end.completer < 0) continue;
    const Event& completer = events[static_cast<std::size_t>(end.completer)];
    record_ns(a.quorum_wait, completer.t0 - last->second);
  }

  // The ledger: follow each op along its quorum-completing chain. With I the
  // issue, Sk the return of round k's send to the replica whose reply
  // completed it, Ek that request's arrival, Rk the return of the reply
  // send, Ck the completing on_message's entry and D the callback:
  //   D - I = (S1-I) + (E1-S1) + (R1-E1) + (C1-R1) + (S2-C1) + ... + (D-C2)
  // and each client or replica interval splits into its sends and the rest.
  for (const TracedOp& op : ops) {
    const auto issue = issues.find(op.op);
    if (issue == issues.end()) {
      ++a.broken_chains;
      continue;
    }
    std::int32_t span = issue->second;  // client span that sent round k
    std::int64_t from = events[static_cast<std::size_t>(span)].t0;
    std::uint64_t round = 0;
    for (const std::int32_t c : children[static_cast<std::size_t>(span)]) {
      const Event& child = events[static_cast<std::size_t>(c)];
      if (child.kind == EventKind::kSend) {
        round = child.round;
        break;
      }
    }
    std::int64_t client_ns = 0;
    std::int64_t send_ns = 0;
    std::int64_t request_ns = 0;
    std::int64_t replica_ns = 0;
    std::int64_t reply_ns = 0;
    std::int64_t done_at = 0;
    bool ok = round != 0;
    for (int hop = 0; ok && hop < 8; ++hop) {
      const auto end = ends.find(round);
      if (end == ends.end() || end->second.completer < 0) {
        ok = false;
        break;
      }
      const Event& completer = events[static_cast<std::size_t>(end->second.completer)];
      const std::uint32_t replica = completer.peer;
      const auto send = sends.find(key(round, replica));
      const auto visit = visits.find(key(round, replica));
      if (send == sends.end() || visit == visits.end() || visit->second.entry == 0 ||
          visit->second.reply_sent == 0) {
        ok = false;
        break;
      }
      const std::int64_t s = send->second;
      const std::int64_t own_sends = sends_until(events, children, span, s);
      client_ns += (s - from) - own_sends;
      send_ns += own_sends + visit->second.reply_send_ns;
      request_ns += visit->second.entry - s;
      replica_ns += (visit->second.reply_sent - visit->second.entry) -
                    visit->second.reply_send_ns;
      reply_ns += completer.t0 - visit->second.reply_sent;
      span = end->second.completer;
      from = completer.t0;
      if (end->second.user >= 0) {
        done_at = events[static_cast<std::size_t>(end->second.user)].t0;
        const std::int64_t tail_sends = sends_until(events, children, span, done_at);
        client_ns += (done_at - from) - tail_sends;
        send_ns += tail_sends;
        break;
      }
      round = end->second.next_round;
    }
    if (!ok || done_at == 0) {
      ++a.broken_chains;
      continue;
    }
    ++a.chains;
    const std::int64_t latency = op.done - op.invoked;
    record_ns(a.ledger_client, client_ns);
    record_ns(a.ledger_send, send_ns);
    record_ns(a.ledger_request_transit, request_ns);
    record_ns(a.ledger_replica, replica_ns);
    record_ns(a.ledger_reply_transit, reply_ns);
    record_ns(a.ledger_op, latency);
    record_ns(a.ledger_gap,
              latency - (client_ns + send_ns + request_ns + replica_ns + reply_ns));
  }
  return a;
}

}  // namespace perfbench
