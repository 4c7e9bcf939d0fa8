// Allocation counting with per-thread span attribution.
//
// alloc_hook.cpp replaces the global operator new/delete of the binary it is
// linked into. Every allocation is charged, on the allocating thread, to the
// span kind that thread has open (innermost Scope), or to kOther outside any
// span. Counters are per thread and single-writer, so the hook costs two
// plain increments; snapshot() sums all threads, including ones that exited.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench::alloc {

enum class Span : std::uint8_t {
  kOther,        ///< outside every span: reactor, decoder, set-up
  kClientIssue,  ///< inside Node::read / Node::write
  kClientReply,  ///< client node's on_message (replies), minus nested spans
  kReplica,      ///< replica node's on_message, minus nested spans
  kSend,         ///< inside Context::send
  kTimer,        ///< inside Context::set_timer / cancel_timer
  kUser,         ///< the benchmark's own generator and callbacks
  kCount
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

struct Totals {
  std::array<std::uint64_t, kSpanKinds> count{};
  std::array<std::uint64_t, kSpanKinds> bytes{};

  [[nodiscard]] std::uint64_t of(Span s) const noexcept {
    return count[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t all_count() const noexcept;
  [[nodiscard]] std::uint64_t all_bytes() const noexcept;
  [[nodiscard]] Totals operator-(const Totals& earlier) const noexcept;
};

/// Sum of every thread's counters so far.
[[nodiscard]] Totals snapshot() noexcept;

/// The calling thread's span kind.
[[nodiscard]] Span current() noexcept;

/// Sets the calling thread's span kind for the scope's lifetime.
class Scope {
 public:
  explicit Scope(Span span) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span saved_;
};

}  // namespace perfbench::alloc
