#include "alloc_hook.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {

namespace {

/// One thread's counters. Written only by the owning thread (relaxed
/// load + store, no read-modify-write); read by snapshot() from any thread.
struct Block {
  std::array<std::atomic<std::uint64_t>, kSpanKinds> count{};
  std::array<std::atomic<std::uint64_t>, kSpanKinds> bytes{};
};

// Blocks live in static storage so a thread's counts survive its exit. The
// benchmark runs a handful of threads per deployment and a few deployments
// per run; threads past the pool share the overflow block through atomic
// read-modify-write.
constexpr std::size_t kPool = 512;
Block g_pool[kPool];
Block g_overflow;
std::atomic<std::size_t> g_used{0};

thread_local Block* tl_block = nullptr;
thread_local Span tl_span = Span::kOther;

Block& my_block() noexcept {
  if (tl_block == nullptr) {
    const std::size_t i = g_used.fetch_add(1, std::memory_order_relaxed);
    tl_block = i < kPool ? &g_pool[i] : &g_overflow;
  }
  return *tl_block;
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta, bool shared) noexcept {
  if (shared) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  } else {
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
  }
}

void charge(std::size_t size) noexcept {
  Block& block = my_block();
  const bool shared = &block == &g_overflow;
  const auto kind = static_cast<std::size_t>(tl_span);
  bump(block.count[kind], 1, shared);
  bump(block.bytes[kind], size, shared);
}

void* allocate(std::size_t size) {
  charge(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  charge(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

std::uint64_t Totals::all_count() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : count) sum += c;
  return sum;
}

std::uint64_t Totals::all_bytes() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t b : bytes) sum += b;
  return sum;
}

Totals Totals::operator-(const Totals& earlier) const noexcept {
  Totals diff;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    diff.count[k] = count[k] - earlier.count[k];
    diff.bytes[k] = bytes[k] - earlier.bytes[k];
  }
  return diff;
}

Totals snapshot() noexcept {
  Totals totals;
  const std::size_t used = std::min(g_used.load(std::memory_order_relaxed), kPool);
  const auto add = [&totals](const Block& block) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      totals.count[k] += block.count[k].load(std::memory_order_relaxed);
      totals.bytes[k] += block.bytes[k].load(std::memory_order_relaxed);
    }
  };
  for (std::size_t i = 0; i < used; ++i) add(g_pool[i]);
  add(g_overflow);
  return totals;
}

Span current() noexcept { return tl_span; }

Scope::Scope(Span span) noexcept : saved_{tl_span} { tl_span = span; }

Scope::~Scope() { tl_span = saved_; }

}  // namespace perfbench::alloc

// ---- global replacements ------------------------------------------------------

void* operator new(std::size_t size) { return perfbench::alloc::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::alloc::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::alloc::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::alloc::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
