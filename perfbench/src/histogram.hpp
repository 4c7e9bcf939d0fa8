// Fixed-memory log-linear latency histogram.
//
// Values below 2^kSubBits land in exact unit buckets; above that, each power
// of two is split into 2^kSubBits equal sub-buckets (HDR-histogram layout).
// A quantile is reported inside the bucket holding the nearest-rank sample,
// placed linearly by the rank's position among that bucket's samples and
// clamped to the observed [min, max], so its relative error is below the
// bucket's relative width, 2^-kSubBits (0.78% with kSubBits = 7). Memory is
// fixed (about 35 KiB) no matter how many samples are recorded, so the
// histogram adds nothing per op to the process's resident set.
//
// Single-writer: record() is not thread-safe. The benchmark records from one
// thread and merges afterwards.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace perfbench {

class LogLinearHistogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  /// Largest exponent with its own buckets; larger values share the top one.
  static constexpr unsigned kMaxExponent = 42;  // ~73 minutes in ns
  static constexpr std::size_t kBuckets = kSub + (kMaxExponent - kSubBits + 1) * kSub;

  void record(std::uint64_t value) noexcept {
    ++buckets_[index_of(value)];
    ++count_;
    sum_ += static_cast<double>(value);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void merge(const LogLinearHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank q-quantile (q in [0, 1]): the value of the ceil(q * n)-th
  /// smallest sample, within the bucket error bound. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        // Place the rank linearly among the bucket's samples.
        const double position = (static_cast<double>(rank - seen) - 0.5) /
                                static_cast<double>(buckets_[i]);
        const double value = static_cast<double>(lower_of(i)) +
                             position * static_cast<double>(width_of(i) - 1);
        return std::clamp(value, static_cast<double>(min_), static_cast<double>(max_));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(max_);
  }

  /// Samples strictly above the q-quantile's bucket (for "n beyond p99").
  [[nodiscard]] std::uint64_t count_above(double q) const noexcept {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
    return count_ - std::min(count_, rank);
  }

  [[nodiscard]] static std::size_t index_of(std::uint64_t value) noexcept {
    if (value < kSub) return static_cast<std::size_t>(value);
    const auto exponent = static_cast<unsigned>(std::bit_width(value) - 1);
    if (exponent > kMaxExponent) return kBuckets - 1;
    const unsigned shift = exponent - kSubBits;
    const std::uint64_t sub = (value >> shift) - kSub;
    return static_cast<std::size_t>(kSub + (exponent - kSubBits) * kSub + sub);
  }

  [[nodiscard]] static std::uint64_t lower_of(std::size_t index) noexcept {
    if (index < kSub) return index;
    const std::size_t octave = (index - kSub) / kSub;
    const std::uint64_t sub = (index - kSub) % kSub;
    return (kSub + sub) << octave;
  }

  [[nodiscard]] static std::uint64_t width_of(std::size_t index) noexcept {
    if (index < kSub) return 1;
    return 1ULL << ((index - kSub) / kSub);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_{0};
  double sum_{0.0};
  std::uint64_t min_{std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t max_{0};
};

}  // namespace perfbench
