#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "histogram.hpp"

namespace perfbench {
namespace {

static_assert(sizeof(LogLinearHistogram) < 64 * 1024, "histogram memory must stay fixed");

/// Nearest-rank quantile of sorted samples: the ceil(q * n)-th smallest.
std::uint64_t exact_quantile(const std::vector<std::uint64_t>& sorted, double q) {
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void expect_within_one_percent(const std::vector<std::uint64_t>& samples) {
  LogLinearHistogram h;
  for (const std::uint64_t s : samples) h.record(s);
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(h.count(), sorted.size());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
  for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    const auto exact = static_cast<double>(exact_quantile(sorted, q));
    const double got = h.quantile(q);
    EXPECT_LE(std::abs(got - exact), 0.01 * exact) << "q=" << q << " exact=" << exact;
  }
}

TEST(LogLinearHistogram, LognormalLatenciesWithinOnePercent) {
  std::mt19937_64 rng{1};
  std::lognormal_distribution<double> dist{std::log(170'000.0), 0.6};  // ~170 us in ns
  std::vector<std::uint64_t> samples(200'000);
  for (auto& s : samples) s = static_cast<std::uint64_t>(dist(rng));
  expect_within_one_percent(samples);
}

TEST(LogLinearHistogram, HeavyTailWithinOnePercent) {
  std::mt19937_64 rng{2};
  std::exponential_distribution<double> body{1.0 / 150'000.0};
  std::uniform_real_distribution<double> tail{1e6, 5e8};
  std::vector<std::uint64_t> samples(100'000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::uint64_t>(i % 100 == 0 ? tail(rng) : body(rng));
  }
  expect_within_one_percent(samples);
}

TEST(LogLinearHistogram, SmallValuesAreExact) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 0; v < LogLinearHistogram::kSub; ++v) samples.push_back(v);
  LogLinearHistogram h;
  for (const std::uint64_t s : samples) h.record(s);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 63.0);
  expect_within_one_percent(samples);
}

TEST(LogLinearHistogram, BucketsTileTheRange) {
  for (std::size_t i = 0; i + 1 < LogLinearHistogram::kBuckets; ++i) {
    EXPECT_EQ(LogLinearHistogram::lower_of(i) + LogLinearHistogram::width_of(i),
              LogLinearHistogram::lower_of(i + 1))
        << i;
    EXPECT_EQ(LogLinearHistogram::index_of(LogLinearHistogram::lower_of(i)), i);
  }
}

TEST(LogLinearHistogram, MergeEqualsRecordingEverything) {
  LogLinearHistogram a;
  LogLinearHistogram b;
  LogLinearHistogram both;
  for (std::uint64_t v = 1; v < 50'000; v += 7) {
    (v % 2 == 0 ? a : b).record(v * 13);
    both.record(v * 13);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (const double q : {0.1, 0.5, 0.99}) EXPECT_EQ(a.quantile(q), both.quantile(q));
}

TEST(LogLinearHistogram, EmptyReportsZero) {
  const LogLinearHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace perfbench
