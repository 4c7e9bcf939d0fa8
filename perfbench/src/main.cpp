// perfbench — ABD over TCP in one process, measured end to end and at the
// Actor/Context seam.
//
//   perfbench --workload small_reads|large_writes|replica_down --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--source-digest HEX]
//
// Three replica net::Transports and one client net::Transport, each with one
// reactor and its own Metrics registry, configured like abd_node and
// abd_net_cli: multi-writer writes, atomic reads, the baseline variant and a
// 100 ms retransmit interval. The client's reactor thread runs a closed loop
// of kWindow callers, each issuing its next op from its previous op's
// callback. The op list is drawn from --seed before any timing; its length
// is --seconds times the workload's nominal rate, so a faster program
// finishes sooner instead of doing more work (peak_rss_mb grows with the ops
// served, because Summary timers keep every sample).
//
// --trace 0 reports the end-to-end metrics. --trace 1 wraps every node in a
// TracedNode and reports the per-layer metrics: an untraced phase, then a
// traced phase whose spans build the per-op cost ledger; the throughput
// difference of the two is the tracing overhead.
//
// Every run gates correctness and exits 1 on a violation: each op takes 2
// rounds and 2n requests, the wire carries exactly 2 frames per request on
// healthy runs, read values are intact, and the sampled per-object histories
// (always including the hottest key) are linearizable. Ops past the per-op
// deadline count as failed. The last line of stdout is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "abdkit/abd/node.hpp"
#include "abdkit/checker/history.hpp"
#include "abdkit/checker/linearizability.hpp"
#include "abdkit/common/metrics.hpp"
#include "abdkit/common/rng.hpp"
#include "abdkit/harness/workload.hpp"
#include "abdkit/net/transport.hpp"
#include "abdkit/quorum/quorum_system.hpp"
#include "abdkit/wire/codec.hpp"
#include "alloc_hook.hpp"
#include "histogram.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace std::chrono_literals;
using namespace abdkit;

namespace perfbench {
namespace {

constexpr std::size_t kReplicas = 3;
constexpr ProcessId kClient = 3;
constexpr std::uint32_t kStoppedReplica = 2;
/// Callers in the closed loop (ops in flight).
constexpr std::uint32_t kWindow = 8;
/// Deployments built per run to time set-up; the last one is measured.
constexpr int kSetups = 7;
/// An op slower than this counts as failed.
constexpr std::int64_t kDeadlineNs = 1'000'000'000;
/// Objects whose full history is kept and checked.
constexpr std::size_t kSampledObjects = 64;
/// A phase is split into this many windows of equal op count. Host noise
/// only ever slows a window, so a phase's throughput, CPU per op and latency
/// quantiles are read at the window quartile on the fast side: host noise
/// must cover three quarters of a run to move its figures.
constexpr std::size_t kWindows = 20;
constexpr double kFastQuartile = 0.25;
/// Ops traced in a --trace 1 run (bounds the span logs' memory).
constexpr std::uint64_t kMaxTracedOps = 25'000;
/// Preloaded values are data = kPreloadBase + object; op i writes i + 1.
constexpr std::int64_t kPreloadBase = std::int64_t{1} << 40;

struct Workload {
  const char* name;
  double write_fraction;
  std::size_t objects;
  bool zipf;
  std::size_t value_words;  ///< aux words per value (0: an 8-byte value)
  double nominal_ops_per_s;
  bool stop_replica;
};

// small_reads: per-frame fixed costs dominate (12 small frames per op).
// large_writes: 4 KiB values under Zipf skew; codec and copies dominate, and
// writes race reads on hot keys. replica_down: small_reads with replica 2
// stopped early in the measured phase, the only workload on the failure
// path. Nominal rates are about the rates measured on a 4-vCPU VM, so a run
// lasts about --seconds.
constexpr Workload kWorkloads[] = {
    {"small_reads", 0.05, 4096, false, 0, 44'000, false},
    {"large_writes", 0.50, 1024, true, 512, 20'000, false},
    {"replica_down", 0.05, 4096, false, 0, 46'000, true},
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  std::uint64_t seconds{10};
  int trace{0};
  std::string git_sha{"unknown"};
  std::string source_digest{"unknown"};
};

struct OpSpec {
  std::uint32_t object{0};
  bool write{false};
};

std::vector<OpSpec> make_ops(const Workload& w, std::uint64_t seed, std::size_t count) {
  Rng rng{seed};
  std::optional<harness::ZipfKeys> zipf;
  if (w.zipf) zipf.emplace(w.objects, 0.99, seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<OpSpec> ops(count);
  for (OpSpec& op : ops) {
    op.write = rng.chance(w.write_fraction);
    op.object = static_cast<std::uint32_t>(zipf ? zipf->next() : rng.below(w.objects));
  }
  return ops;
}

Value make_value(std::int64_t data, std::size_t words) {
  Value v;
  v.data = data;
  v.aux.resize(words);
  for (std::size_t j = 0; j < words; ++j) v.aux[j] = data * 31 + static_cast<std::int64_t>(j);
  return v;
}

bool value_intact(const Value& v, std::size_t words) {
  if (v.aux.size() != words) return false;
  for (std::size_t j = 0; j < words; ++j) {
    if (v.aux[j] != v.data * 31 + static_cast<std::int64_t>(j)) return false;
  }
  return true;
}

double cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// q-quantile of `v`, interpolating linearly between order statistics.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double position = q * static_cast<double>(v.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, v.size() - 1);
  return v[below] + (position - static_cast<double>(below)) * (v[above] - v[below]);
}

// ---- deployment ---------------------------------------------------------------------

class Deployment {
 public:
  Deployment(bool traced, std::uint64_t traced_ops) {
    auto quorums = std::make_shared<const quorum::MajorityQuorum>(kReplicas);
    for (ProcessId id = 0; id <= kClient; ++id) {
      metrics_.push_back(std::make_unique<Metrics>());
      abd::NodeOptions node_options;
      node_options.quorums = quorums;
      node_options.write_mode = abd::WriteMode::kMultiWriter;
      node_options.client.retransmit_interval = 100ms;
      node_options.client.metrics = metrics_.back().get();
      node_options.client.variant = abd::ProtocolVariant::kBaseline;
      net::TransportOptions options;
      options.self = id;
      options.world_size = kReplicas;
      options.reactors = 1;
      options.metrics = metrics_.back().get();
      auto node = std::make_unique<abd::Node>(node_options);
      nodes_.push_back(node.get());
      std::unique_ptr<Actor> actor;
      if (traced) {
        // Spans per op: the client records ~18, each replica 4.
        const std::uint64_t capacity = (id == kClient ? 24 : 6) * traced_ops + 1024;
        auto wrapped = std::make_unique<TracedNode>(std::move(node), id == kClient, capacity);
        traced_.push_back(wrapped.get());
        actor = std::move(wrapped);
      } else {
        actor = std::move(node);
      }
      transports_.push_back(
          std::make_unique<net::Transport>(std::move(options), std::move(actor)));
    }
    std::vector<net::Address> table;
    for (auto& transport : transports_) {
      net::Address address;  // 127.0.0.1, ephemeral port
      address.port = transport->bind(address);
      table.push_back(address);
    }
    for (auto& transport : transports_) transport->start(table);
  }
  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void stop() {
    for (auto& transport : transports_) transport->stop();
  }
  [[nodiscard]] net::Transport& transport(ProcessId id) { return *transports_[id]; }
  [[nodiscard]] abd::Node& client() { return *nodes_[kClient]; }
  [[nodiscard]] TracedNode* traced(ProcessId id) {
    return traced_.empty() ? nullptr : traced_[id];
  }
  [[nodiscard]] Metrics& metrics(ProcessId id) { return *metrics_[id]; }
  [[nodiscard]] std::uint64_t total(std::string_view counter) const {
    std::uint64_t sum = 0;
    for (const auto& m : metrics_) sum += m->counter(counter);
    return sum;
  }
  [[nodiscard]] std::uint64_t retained_samples() const {
    std::uint64_t sum = 0;
    for (const auto& m : metrics_) {
      for (const std::string& name : m->timer_names()) sum += m->timer(name).count();
    }
    return sum;
  }

 private:
  std::vector<std::unique_ptr<Metrics>> metrics_;  // outlive the transports
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<abd::Node*> nodes_;
  std::vector<TracedNode*> traced_;
};

// ---- closed-loop generator ------------------------------------------------------------

/// A contiguous range of op indices measured as one unit, split into
/// kWindows windows by completion count.
struct Phase {
  std::uint32_t begin{0};
  std::uint32_t end{0};
  std::uint64_t completed{0};
  std::vector<std::int64_t> t;  ///< window boundaries, steady ns
  std::vector<double> cpu;      ///< process CPU µs at the boundaries
  /// Latencies (ns) per window, by completion order.
  std::vector<LogLinearHistogram> read_ns = std::vector<LogLinearHistogram>(kWindows);
  std::vector<LogLinearHistogram> write_ns = std::vector<LogLinearHistogram>(kWindows);

  /// Each window's q-quantile, in µs, read at the fast quartile of windows.
  [[nodiscard]] static double windowed_us(const std::vector<LogLinearHistogram>& windows,
                                          double q) {
    std::vector<double> per_window;
    for (const LogLinearHistogram& h : windows) {
      if (h.count() > 0) per_window.push_back(h.quantile(q) / 1e3);
    }
    return quantile_of(per_window, kFastQuartile);
  }
  /// All windows merged.
  [[nodiscard]] static LogLinearHistogram pooled(const std::vector<LogLinearHistogram>& windows) {
    LogLinearHistogram all;
    for (const LogLinearHistogram& h : windows) all.merge(h);
    return all;
  }

  [[nodiscard]] std::uint64_t window_ops() const {
    return std::max<std::uint64_t>(1, (end - begin) / kWindows);
  }
  [[nodiscard]] double ops_per_s() const {
    std::vector<double> rates;
    for (std::size_t i = 1; i < t.size(); ++i) {
      rates.push_back(static_cast<double>(window_ops()) * 1e9 /
                      static_cast<double>(t[i] - t[i - 1]));
    }
    return quantile_of(rates, 1.0 - kFastQuartile);
  }
  [[nodiscard]] double cpu_us_per_op() const {
    std::vector<double> per_op;
    for (std::size_t i = 1; i < cpu.size(); ++i) {
      per_op.push_back((cpu[i] - cpu[i - 1]) / static_cast<double>(window_ops()));
    }
    return quantile_of(per_op, kFastQuartile);
  }
  /// Ops over elapsed time across all windows: unlike ops_per_s(), it does
  /// not depend on how long a window is, so phases of different length compare.
  [[nodiscard]] double mean_ops_per_s() const {
    return seconds() == 0.0 ? 0.0
                            : static_cast<double>(window_ops() * (t.size() - 1)) / seconds();
  }
  [[nodiscard]] double seconds() const {
    return t.size() < 2 ? 0.0 : static_cast<double>(t.back() - t.front()) / 1e9;
  }
};

class Generator;

struct Slot {
  Generator* gen{nullptr};
  std::uint32_t id{0};
  std::uint32_t op{0};
  std::int64_t invoked{0};
};

struct RunStats {
  std::uint64_t completed{0};
  std::uint64_t deadline_misses{0};  ///< measured ops only
  std::uint64_t e1_violations{0};
  std::uint64_t value_errors{0};
  std::uint64_t rounds{0};       ///< measured ops only
  std::uint64_t requests{0};     ///< measured ops only
  std::uint64_t retransmits{0};  ///< measured ops only
};

class Generator {
 public:
  Generator(abd::Node& node, TracedNode* traced, const Workload& workload,
            std::vector<OpSpec> ops, std::int64_t data_base, checker::History& history,
            const std::vector<bool>& sampled, std::int64_t epoch)
      : node_{node},
        traced_{traced},
        workload_{workload},
        ops_{std::move(ops)},
        data_base_{data_base},
        history_{history},
        sampled_{sampled},
        epoch_{epoch},
        writing_(workload.objects, false),
        parked_(workload.objects) {
    for (std::uint32_t i = 0; i < kWindow; ++i) slots_[i] = Slot{this, i, 0, 0};
  }

  /// Ops from `from` on feed the latency histograms and RunStats counts.
  void measure_from(std::uint32_t from) { measure_from_ = from; }
  void add_phase(std::uint32_t begin, std::uint32_t end) {
    phases_.push_back(Phase{begin, end, 0, {}, {}});
  }
  /// Issuing op `index` fulfils the returned future (e.g. to stop a replica).
  std::future<void> signal_at(std::uint32_t index) {
    signal_at_ = index;
    return signal_.get_future();
  }
  /// Tracing switches on when op `index` is issued; its ops are the traced set.
  void trace_from(std::uint32_t index) {
    trace_from_ = index;
    traced_ops_.reserve(ops_.size() - index);
  }

  std::future<void> finished() { return finished_.get_future(); }

  /// Runs on the client's reactor thread.
  void start() {
    alloc::Scope scope{alloc::Span::kUser};
    for (Slot& slot : slots_) next(slot);
  }

  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }
  [[nodiscard]] const std::vector<TracedOp>& traced_ops() const { return traced_ops_; }
  [[nodiscard]] const alloc::Totals& traced_allocs() const { return traced_allocs_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

 private:
  void next(Slot& slot) {
    if (next_ >= ops_.size()) return;
    const std::uint32_t index = next_++;
    const OpSpec& spec = ops_[index];
    if (spec.write && writing_[spec.object]) {
      // One write per object at a time: two concurrent MWMR writes from one
      // writer could mint the same tag.
      parked_[spec.object].push_back({slot.id, index});
      return;
    }
    issue(slot, index);
  }

  void issue(Slot& slot, std::uint32_t index) {
    if (index == signal_at_) signal_.set_value();
    if (index == trace_from_) {
      traced_allocs_ = alloc::snapshot();
      set_tracing(true);
    }
    for (Phase& phase : phases_) {
      if (index == phase.begin) {
        phase.t.push_back(now_ns());
        phase.cpu.push_back(cpu_us());
      }
    }
    const OpSpec& spec = ops_[index];
    slot.op = index;
    Slot* s = &slot;
    auto done = [s](const abd::OpResult& result) { s->gen->on_done(*s, result); };
    if (spec.write) {
      writing_[spec.object] = true;
      Value value = make_value(data_base_ + index + 1, workload_.value_words);
      slot.invoked = now_ns();
      if (traced_ != nullptr) {
        traced_->write(spec.object, std::move(value), index, std::move(done));
      } else {
        node_.write(spec.object, std::move(value), std::move(done));
      }
    } else {
      slot.invoked = now_ns();
      if (traced_ != nullptr) {
        traced_->read(spec.object, index, std::move(done));
      } else {
        node_.read(spec.object, std::move(done));
      }
    }
  }

  void on_done(Slot& slot, const abd::OpResult& result) {
    const std::int64_t at = now_ns();
    Span span{traced_ != nullptr ? &traced_->log() : nullptr, EventKind::kUser,
              alloc::Span::kUser, 0, 0, slot.op};
    const std::uint32_t index = slot.op;
    const OpSpec& spec = ops_[index];
    const std::int64_t latency = at - slot.invoked;

    if (result.rounds != 2 || result.messages_sent != 2 * kReplicas) ++stats_.e1_violations;
    std::int64_t data = data_base_ + index + 1;
    if (!spec.write) {
      data = result.value.data;
      if (!value_intact(result.value, workload_.value_words)) ++stats_.value_errors;
    }
    if (sampled_[spec.object]) {
      history_.add(checker::OpRecord{
          slot.id, spec.write ? checker::OpType::kWrite : checker::OpType::kRead,
          spec.object, data, TimePoint{slot.invoked - epoch_}, TimePoint{at - epoch_}, true});
    }
    if (index >= measure_from_) {
      if (latency > kDeadlineNs) ++stats_.deadline_misses;
      stats_.rounds += result.rounds;
      stats_.requests += result.messages_sent;
      stats_.retransmits += result.retransmissions;
    }
    if (index >= trace_from_) traced_ops_.push_back(TracedOp{index, slot.invoked, at});
    for (Phase& phase : phases_) {
      if (index < phase.begin || index >= phase.end) continue;
      const std::size_t window =
          std::min<std::size_t>(kWindows - 1, phase.completed / phase.window_ops());
      (spec.write ? phase.write_ns : phase.read_ns)[window].record(
          static_cast<std::uint64_t>(latency));
      ++phase.completed;
      if (phase.completed % phase.window_ops() == 0 && phase.t.size() <= kWindows) {
        phase.t.push_back(now_ns());
        phase.cpu.push_back(cpu_us());
      }
    }

    if (spec.write) {
      writing_[spec.object] = false;
      auto& waiting = parked_[spec.object];
      if (!waiting.empty()) {
        const auto [slot_id, parked_index] = waiting.front();
        waiting.erase(waiting.begin());
        issue(slots_[slot_id], parked_index);
      }
    }
    next(slot);
    if (++stats_.completed == ops_.size()) {
      if (trace_from_ < ops_.size()) {
        set_tracing(false);
        traced_allocs_ = alloc::snapshot() - traced_allocs_;
      }
      finished_.set_value();
    }
  }

  abd::Node& node_;
  TracedNode* traced_;
  const Workload& workload_;
  std::vector<OpSpec> ops_;
  std::int64_t data_base_;
  checker::History& history_;
  const std::vector<bool>& sampled_;
  std::int64_t epoch_;
  std::vector<bool> writing_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> parked_;
  Slot slots_[kWindow];
  std::uint32_t next_{0};
  std::uint32_t measure_from_{UINT32_MAX};
  std::uint32_t signal_at_{UINT32_MAX};
  std::uint32_t trace_from_{UINT32_MAX};
  std::promise<void> signal_;
  std::promise<void> finished_;
  std::vector<Phase> phases_;
  RunStats stats_;
  std::vector<TracedOp> traced_ops_;
  alloc::Totals traced_allocs_;
};

/// Keeps the codec replay's results observable so it is not optimised away.
volatile std::size_t g_sink = 0;

struct CodecCost {
  double encode_ns{0.0};  ///< per payload
  double decode_ns{0.0};  ///< per payload
  std::size_t undecodable{0};
};

/// Replays sampled payloads through wire::encode_into and wire::decode.
CodecCost replay_codec(const std::vector<PayloadPtr>& samples) {
  CodecCost cost;
  if (samples.empty()) return cost;
  constexpr int kReps = 20;
  std::vector<std::byte> scratch;
  std::size_t sink = 0;
  const std::int64_t e0 = now_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const PayloadPtr& p : samples) {
      scratch.clear();
      wire::encode_into(scratch, *p);
      sink += scratch.size();
    }
  }
  const std::int64_t e1 = now_ns();
  std::vector<std::vector<std::byte>> encoded;
  for (const PayloadPtr& p : samples) encoded.push_back(wire::encode(*p));
  const std::int64_t d0 = now_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& bytes : encoded) {
      if (wire::decode(bytes) == nullptr) ++cost.undecodable;
    }
  }
  const std::int64_t d1 = now_ns();
  g_sink = sink;
  const double n = static_cast<double>(samples.size()) * kReps;
  cost.encode_ns = static_cast<double>(e1 - e0) / n;
  cost.decode_ns = static_cast<double>(d1 - d0) / n;
  return cost;
}

/// Every wait of a run shares one deadline, so a stuck run still ends
/// inside the time a run is allowed.
const std::chrono::steady_clock::time_point g_deadline =
    std::chrono::steady_clock::now() + std::chrono::seconds{150};

bool wait(std::future<void>& future) {
  return future.wait_until(g_deadline) == std::future_status::ready;
}

// ---- output ----------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.6f %-6s samples=%" PRIu64 "\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest text that reads back as the same double: every digit measured.
    char value[64];
    const auto [end, ec] = std::to_chars(value, value + sizeof value, metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + std::string(value, end) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- the run ----------------------------------------------------------------------------

struct Gate {
  std::vector<std::string> violations;
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Checks every sampled object's history for linearizability; returns the
/// ops in rejected histories and adds the number checked to `checked`.
std::uint64_t check_histories(const checker::History& history, Gate& gate,
                              std::uint64_t& checked) {
  std::uint64_t rejected = 0;
  for (const std::uint64_t object : history.objects()) {
    const checker::History one = history.restricted_to(object);
    checked += one.size();
    checker::LinearizabilityReport report;
    try {
      report = checker::check_linearizable(one);
    } catch (const std::exception& e) {
      report.explanation = e.what();
    }
    if (!report.linearizable) {
      gate.check(false, "object " + std::to_string(object) +
                            " not linearizable: " + report.explanation);
      rejected += one.size();
    }
  }
  return rejected;
}

/// The end-to-end metrics of an untraced run, from its measured phase.
std::vector<Metric> end_to_end_metrics(const Phase& main_phase,
                                       const std::vector<double>& setup_s) {
  std::vector<Metric> out;
  const auto windowed = [&main_phase](bool writes, double q) {
    return Phase::windowed_us(writes ? main_phase.write_ns : main_phase.read_ns, q);
  };
  const LogLinearHistogram reads = Phase::pooled(main_phase.read_ns);
  const LogLinearHistogram writes = Phase::pooled(main_phase.write_ns);
  out.push_back({"throughput_ops_s", main_phase.ops_per_s(), "1/s", kWindows});
  out.push_back({"read_p50_us", windowed(false, 0.50), "us", reads.count()});
  out.push_back({"read_p99_us", windowed(false, 0.99), "us", reads.count()});
  out.push_back({"write_p50_us", windowed(true, 0.50), "us", writes.count()});
  out.push_back({"write_p99_us", windowed(true, 0.99), "us", writes.count()});
  out.push_back({"cpu_us_per_op", main_phase.cpu_us_per_op(), "us", kWindows});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  out.push_back({"setup_s", quantile_of(setup_s, 0.5), "s", setup_s.size()});
  // Whole-phase figures, printed but not gated: p99.9 and max spread too
  // much from run to run to bound.
  const auto us = [](double ns) { return ns / 1e3; };
  std::printf("info pooled read_p50_us=%.3f read_p99_us=%.3f read_p999_us=%.3f "
              "read_max_us=%.3f write_p50_us=%.3f write_p99_us=%.3f write_p999_us=%.3f "
              "write_max_us=%.3f ops_s=%.1f phase_s=%.3f\n",
              us(reads.quantile(0.5)), us(reads.quantile(0.99)), us(reads.quantile(0.999)),
              us(static_cast<double>(reads.max())), us(writes.quantile(0.5)),
              us(writes.quantile(0.99)), us(writes.quantile(0.999)),
              us(static_cast<double>(writes.max())),
              main_phase.mean_ops_per_s(), main_phase.seconds());
  std::printf("info window_ops_s");
  for (std::size_t i = 1; i < main_phase.t.size(); ++i) {
    std::printf(" %.0f", static_cast<double>(main_phase.window_ops()) * 1e9 /
                             static_cast<double>(main_phase.t[i] - main_phase.t[i - 1]));
  }
  std::printf("\n");
  return out;
}

/// Whole-run totals the per-layer metrics are normalised by.
struct RunCounts {
  std::uint64_t phase_a{0};     ///< untraced measured ops
  std::uint64_t phase_b{0};     ///< traced ops
  std::uint64_t client_ops{0};  ///< every op the client ran, preload included
  std::uint64_t frames{0};      ///< frames queued by all four transports
  std::uint64_t connects{0};    ///< connect attempts after set-up
  double run_seconds{0.0};
};

/// The per-layer metrics of a traced run.
std::vector<Metric> layer_metrics(Deployment& d, const Generator& gen, const RunCounts& c,
                                  Gate& gate) {
  const std::uint64_t phase_a = c.phase_a;
  const std::uint64_t phase_b = c.phase_b;
  const std::uint64_t client_ops = c.client_ops;
  const std::uint64_t frames = c.frames;
  const RunStats& stats = gen.stats();
  std::vector<PayloadPtr> samples;
  for (ProcessId id = 0; id <= kClient; ++id) {
    const auto& s = d.traced(id)->log().samples();
    samples.insert(samples.end(), s.begin(), s.end());
  }
  const CodecCost codec = replay_codec(samples);
  gate.check(codec.undecodable == 0, "sampled payloads failed to decode");

  std::vector<const EventLog*> replica_logs;
  for (ProcessId r = 0; r < kReplicas; ++r) replica_logs.push_back(&d.traced(r)->log());
  const Analysis a = analyze(replica_logs, d.traced(kClient)->log(), gen.traced_ops());
  const alloc::Totals& allocs = gen.traced_allocs();
  const std::uint64_t client_allocs =
      allocs.of(alloc::Span::kClientIssue) + allocs.of(alloc::Span::kClientReply);
  const std::uint64_t own_allocs = allocs.all_count() - allocs.of(alloc::Span::kUser);
  const std::uint64_t own_bytes =
      allocs.all_bytes() - allocs.bytes[static_cast<std::size_t>(alloc::Span::kUser)];
  const auto p50_us = [](const LogLinearHistogram& h) { return h.quantile(0.5) / 1e3; };
  const auto count = [&d](std::string_view counter) { return d.total(counter); };
  // Three denominators: the traced ops (span sums), the measured ops (op
  // results) and every op the client ran (whole-run transport counters).
  const std::uint64_t measured_ops = phase_a + phase_b;
  const auto ratio = [](auto x, std::uint64_t base) {
    return static_cast<double>(x) / static_cast<double>(std::max<std::uint64_t>(1, base));
  };
  const auto per_traced = [&ratio, phase_b](auto x) { return ratio(x, phase_b); };
  const auto per_measured = [&ratio, measured_ops](auto x) { return ratio(x, measured_ops); };
  const auto per_op = [&ratio, client_ops](auto x) { return ratio(x, client_ops); };
  const std::uint64_t syscalls =
      count("net.read_calls") + count("net.writev_calls") + count("net.epoll_waits");
  const std::uint64_t writevs = count("net.writev_calls");
  const double frames_per_op = per_op(frames);
  const double thr_a = gen.phases()[0].mean_ops_per_s();
  const double thr_b = gen.phases()[1].mean_ops_per_s();
  const double ledger_op = p50_us(a.ledger_op);
  const double ledger_seams = p50_us(a.ledger_client) + p50_us(a.ledger_send) +
                              p50_us(a.ledger_request_transit) + p50_us(a.ledger_replica) +
                              p50_us(a.ledger_reply_transit);
  const std::uint64_t chains = a.chains;

  std::vector<Metric> out = {
      {"client.issue_ns_per_op", per_traced(a.issue_self_ns), "ns", phase_b},
      {"client.reply_ns_per_op", per_traced(a.client_reply_self_ns), "ns", phase_b},
      {"client.allocs_per_op", per_traced(client_allocs), "count", phase_b},
      {"client.rounds_per_op", per_measured(stats.rounds), "count", measured_ops},
      {"client.requests_per_op", per_measured(stats.requests), "count", measured_ops},
      {"client.retransmits_per_op", per_measured(stats.retransmits), "count", measured_ops},
      {"client.quorum_wait_us_p50", p50_us(a.quorum_wait), "us", a.quorum_wait.count()},
      {"replica.handle_ns_per_op", per_traced(a.replica_self_ns), "ns", phase_b},
      {"replica.allocs_per_op", per_traced(allocs.of(alloc::Span::kReplica)), "count",
       phase_b},
      {"send.ns_per_op", per_traced(a.send_ns), "ns", phase_b},
      {"send.allocs_per_op", per_traced(allocs.of(alloc::Span::kSend)), "count", phase_b},
      {"timer.ns_per_op", per_traced(a.timer_ns), "ns", phase_b},
      {"wire.bytes_per_op", per_op(count("net.bytes_out")), "B", client_ops},
      {"wire.frames_per_op", frames_per_op, "count", client_ops},
      {"wire.encode_ns_per_op", codec.encode_ns * frames_per_op, "ns", samples.size()},
      {"wire.decode_ns_per_op", codec.decode_ns * frames_per_op, "ns", samples.size()},
      {"net.request_transit_us_p50", p50_us(a.request_transit), "us",
       a.request_transit.count()},
      {"net.reply_transit_us_p50", p50_us(a.reply_transit), "us", a.reply_transit.count()},
      {"net.syscalls_per_op", per_op(syscalls), "count", client_ops},
      {"net.epoll_waits_per_op", per_op(count("net.epoll_waits")), "count", client_ops},
      {"net.frames_per_writev", ratio(frames, writevs), "count", writevs},
      {"net.timers_armed_per_op", per_traced(a.timers_armed), "count", phase_b},
      {"net.sends_dropped_per_op", per_op(count("net.sends_dropped")), "count", client_ops},
      // Frames queued for a dead peer are discarded when its redial fails.
      {"net.dropped_bytes_per_op", per_op(count("net.dropped_bytes")), "B", client_ops},
      {"net.connect_attempts_per_s", static_cast<double>(c.connects) / c.run_seconds, "1/s",
       c.connects},
      {"allocs_per_op", per_traced(own_allocs), "count", phase_b},
      {"alloc_bytes_per_op", per_traced(own_bytes), "B", phase_b},
      {"other.allocs_per_op", per_traced(allocs.of(alloc::Span::kOther)), "count", phase_b},
      {"metrics.retained_samples_per_op", per_op(d.retained_samples()), "count",
       client_ops},
      {"ledger.client_us", p50_us(a.ledger_client), "us", chains},
      {"ledger.send_us", p50_us(a.ledger_send), "us", chains},
      {"ledger.request_transit_us", p50_us(a.ledger_request_transit), "us", chains},
      {"ledger.replica_us", p50_us(a.ledger_replica), "us", chains},
      {"ledger.reply_transit_us", p50_us(a.ledger_reply_transit), "us", chains},
      {"ledger.unattributed_us", ledger_op - ledger_seams, "us", chains},
      {"ledger.op_us", ledger_op, "us", chains},
      {"trace.overhead_pct", (thr_a - thr_b) / thr_a * 100.0, "%", 2 * kWindows},
  };
  std::printf("info traced_ops=%" PRIu64 " chains=%" PRIu64 " broken_chains=%" PRIu64
              " dropped_spans=%" PRIu64 " ledger_gap_p50_us=%.3f untraced_ops_s=%.1f"
              " traced_ops_s=%.1f\n",
              phase_b, a.chains, a.broken_chains, a.dropped_events,
              a.ledger_gap.quantile(0.5) / 1e3, thr_a, thr_b);
  return out;
}

/// Writes every object once from the client, kWindow at a time.
bool preload(Deployment& d, const Workload& w, checker::History& history,
             const std::vector<bool>& sampled, std::int64_t epoch, RunStats& stats) {
  std::vector<OpSpec> ops(w.objects);
  for (std::uint32_t k = 0; k < w.objects; ++k) ops[k] = OpSpec{k, true};
  // Preload op k writes kPreloadBase + k.
  Generator gen{d.client(), nullptr, w, std::move(ops), kPreloadBase - 1, history, sampled,
                epoch};
  auto done = gen.finished();
  d.transport(kClient).post([&gen] { gen.start(); });
  const bool ok = wait(done);
  if (ok) stats = gen.stats();
  if (!ok) d.stop();  // no callback may run once gen is gone
  return ok;
}

int run(const Args& args, const Workload& w) {
  const bool traced = args.trace != 0;
  const auto measured = static_cast<std::uint64_t>(
      std::max(2000.0, static_cast<double>(args.seconds) * w.nominal_ops_per_s));
  const auto warmup = static_cast<std::uint32_t>(measured / 20);
  // --trace 1: an untraced phase A, then a traced phase B.
  const std::uint64_t phase_a = traced ? measured / 2 : measured;
  const std::uint64_t phase_b = traced ? std::min(measured / 4, kMaxTracedOps) : 0;
  const std::uint64_t total = warmup + phase_a + phase_b;
  const std::vector<OpSpec> ops = make_ops(w, args.seed, total);

  std::vector<bool> sampled(w.objects, false);
  sampled[0] = true;  // the hottest key under Zipf
  Rng pick{args.seed ^ 0x5eed5eedULL};
  for (std::size_t n = 1; n < std::min(kSampledObjects, w.objects);) {
    const std::uint64_t k = pick.below(w.objects);
    if (!sampled[k]) {
      sampled[k] = true;
      ++n;
    }
  }

  std::printf("provenance {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %ld, "
              "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"window\": %u, "
              "\"ops\": %" PRIu64 ", \"warmup_ops\": %u, \"preload_ops\": %zu, "
              "\"trace\": %d}\n",
              json_escape(args.git_sha).c_str(), json_escape(args.source_digest).c_str(),
              PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), w.name, args.seed, kWindow,
              phase_a + phase_b, warmup, w.objects, args.trace);

  // Set-up: construct, connect and preload a deployment, several times; the
  // last one is measured. Connections open on the preload's first sends, so
  // its completion is the end of set-up.
  const int setups = traced ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<checker::History> history;
  RunStats preload_stats;
  const std::int64_t epoch = now_ns();
  for (int i = 0; i < setups; ++i) {
    d.reset();
    history = std::make_unique<checker::History>();
    const std::int64_t t0 = now_ns();
    d = std::make_unique<Deployment>(traced, phase_b);
    if (!preload(*d, w, *history, sampled, epoch, preload_stats)) {
      std::fprintf(stderr, "perfbench: preload did not finish\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Generator gen{d->client(), d->traced(kClient), w, ops, 0, *history, sampled, epoch};
  gen.measure_from(warmup);
  gen.add_phase(warmup, static_cast<std::uint32_t>(warmup + phase_a));
  if (traced) {
    gen.add_phase(static_cast<std::uint32_t>(warmup + phase_a),
                  static_cast<std::uint32_t>(total));
    gen.trace_from(static_cast<std::uint32_t>(warmup + phase_a));
  }
  std::future<void> stop_signal;
  if (w.stop_replica) {
    stop_signal = gen.signal_at(static_cast<std::uint32_t>(warmup + phase_a / 100));
  }
  auto finished = gen.finished();
  const std::uint64_t connects_before = d->total("net.connect_attempts");
  const std::int64_t run_t0 = now_ns();
  d->transport(kClient).post([&gen] { gen.start(); });
  Gate gate;
  if (w.stop_replica) {
    gate.check(wait(stop_signal), "replica stop point never reached");
    d->transport(kStoppedReplica).stop();
  }
  const bool completed = wait(finished);
  gate.check(completed, "ops still pending at the run limit");
  const double run_seconds = static_cast<double>(now_ns() - run_t0) / 1e9;
  const std::uint64_t connects = d->total("net.connect_attempts") - connects_before;

  Metrics& client_metrics = d->metrics(kClient);
  if (completed && !w.stop_replica) {
    // Every request gets exactly one reply on a healthy run; let the
    // stragglers of the last ops land before counting frames.
    for (int i = 0; i < 5000 && client_metrics.counter("net.frames_in") <
                                    client_metrics.counter("net.frames_out");
         ++i) {
      std::this_thread::sleep_for(1ms);
    }
  }
  d->stop();  // publishes reactor stats; no callback runs after this

  const RunStats& stats = gen.stats();
  const std::uint64_t client_ops = stats.completed + preload_stats.completed;
  const std::uint64_t resends = client_metrics.counter("client.messages_resent");
  const std::uint64_t requests = client_metrics.counter("client.messages_sent");
  const std::uint64_t frames = d->total("net.frames_out");
  const std::uint64_t client_frames = client_metrics.counter("net.frames_out") +
                                      client_metrics.counter("net.sends_dropped");

  gate.check(stats.e1_violations + preload_stats.e1_violations == 0,
             std::to_string(stats.e1_violations + preload_stats.e1_violations) +
                 " ops without 2 rounds and 2n requests");
  gate.check(stats.value_errors == 0,
             std::to_string(stats.value_errors) + " reads returned a damaged value");
  gate.check(requests == 2 * kReplicas * client_ops,
             "client.messages_sent " + std::to_string(requests) + " != 2n x " +
                 std::to_string(client_ops) + " ops");
  gate.check(client_frames == requests + resends,
             "client frames " + std::to_string(client_frames) + " != requests + resends " +
                 std::to_string(requests + resends));
  if (!w.stop_replica && completed) {
    gate.check(frames == 2 * (requests + resends),
               "frames " + std::to_string(frames) + " != 2 x (requests + resends) " +
                   std::to_string(2 * (requests + resends)));
  }

  std::uint64_t checked = 0;
  const std::uint64_t rejected = check_histories(*history, gate, checked);
  const std::uint64_t attempted = phase_a + phase_b;
  const std::uint64_t failed = std::min(
      attempted, stats.deadline_misses + (gen.size() - stats.completed) + rejected);
  const std::vector<Metric> out =
      traced ? layer_metrics(*d, gen,
                             RunCounts{phase_a, phase_b, client_ops, frames, connects, run_seconds},
                             gate)
             : end_to_end_metrics(gen.phases().front(), setup_s);
  std::printf("gate e1_ops=%" PRIu64 " frames=%" PRIu64 " requests=%" PRIu64
              " resends=%" PRIu64 " checked_history_ops=%" PRIu64 " deadline_misses=%" PRIu64
              " violations=%zu\n",
              client_ops, frames, requests, resends, checked, stats.deadline_misses,
              gate.violations.size());
  for (const std::string& v : gate.violations) {
    std::fprintf(stderr, "perfbench: GATE: %s\n", v.c_str());
  }
  const bool correct = gate.violations.empty();
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload small_reads|large_writes|replica_down --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--source-digest HEX]\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage();
      return 2;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name && args.seconds > 0 && (args.trace == 0 || args.trace == 1)) {
      try {
        return run(args, w);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
        return 1;
      }
    }
  }
  usage();
  return 2;
}
