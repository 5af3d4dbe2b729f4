// Property-based tests of the statistics primitives: randomized inputs
// (seeded, reproducible) checked against brute-force reference
// computations. Complements the example-based unit tests in
// welford_test.cpp / p2_quantile_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/welford.hpp"
#include "testing/helpers.hpp"

namespace vcpusim::stats {
namespace {

using vcpusim::testing::PropertyRng;

std::vector<double> random_samples(PropertyRng& rng, std::size_t n,
                                   double lo, double hi) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

double brute_mean(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double brute_sample_variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = brute_mean(xs);
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

TEST(WelfordProperty, MatchesBruteForceOverRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PropertyRng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 400));
    // Mix scales so catastrophic-cancellation bugs would show.
    const double scale = rng.chance(0.5) ? 1.0 : 1e6;
    const auto xs = random_samples(rng, n, -scale, scale);

    Welford w;
    for (const double x : xs) w.add(x);

    EXPECT_EQ(w.count(), n) << "seed " << seed;
    EXPECT_NEAR(w.mean(), brute_mean(xs), 1e-9 * scale) << "seed " << seed;
    EXPECT_NEAR(w.sample_variance(), brute_sample_variance(xs),
                1e-7 * scale * scale)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(w.min(), *std::min_element(xs.begin(), xs.end()))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(w.max(), *std::max_element(xs.begin(), xs.end()))
        << "seed " << seed;
  }
}

TEST(WelfordProperty, MergeEquivalentToSingleAccumulator) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PropertyRng rng(100 + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 300));
    const auto xs = random_samples(rng, n, -10.0, 10.0);
    const auto split =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n)));

    Welford whole;
    for (const double x : xs) whole.add(x);

    Welford left;
    Welford right;
    for (std::size_t i = 0; i < n; ++i) (i < split ? left : right).add(xs[i]);
    left.merge(right);

    EXPECT_EQ(left.count(), whole.count()) << "seed " << seed;
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12) << "seed " << seed;
    EXPECT_NEAR(left.sample_variance(), whole.sample_variance(), 1e-9)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(left.min(), whole.min()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(left.max(), whole.max()) << "seed " << seed;
  }
}

TEST(WelfordProperty, MergeOrderInvariance) {
  // Partition a sample into k chunks and merge them in two different
  // orders: the statistics must agree (to rounding) — the property the
  // parallel replication fold relies on.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PropertyRng rng(200 + seed);
    const int k = rng.uniform_int(2, 8);
    std::vector<Welford> parts(static_cast<std::size_t>(k));
    for (auto& part : parts) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 50));
      for (std::size_t i = 0; i < n; ++i) part.add(rng.normal(5.0, 2.0));
    }

    Welford forward;
    for (const auto& part : parts) forward.merge(part);
    Welford backward;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      backward.merge(*it);
    }

    EXPECT_EQ(forward.count(), backward.count()) << "seed " << seed;
    EXPECT_NEAR(forward.mean(), backward.mean(), 1e-12) << "seed " << seed;
    EXPECT_NEAR(forward.sample_variance(), backward.sample_variance(), 1e-9)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(forward.min(), backward.min()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(forward.max(), backward.max()) << "seed " << seed;
  }
}

TEST(WelfordProperty, MergingEmptyIsIdentity) {
  PropertyRng rng(7);
  Welford w;
  for (int i = 0; i < 50; ++i) w.add(rng.uniform(0.0, 1.0));
  const double mean = w.mean();
  const double var = w.sample_variance();
  w.merge(Welford{});
  EXPECT_EQ(w.count(), 50U);
  EXPECT_DOUBLE_EQ(w.mean(), mean);
  EXPECT_DOUBLE_EQ(w.sample_variance(), var);

  Welford empty;
  empty.merge(w);
  EXPECT_EQ(empty.count(), 50U);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(P2QuantileProperty, SmallSamplesStayWithinObservedRange) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PropertyRng rng(300 + seed);
    P2Quantile p2(rng.uniform(0.05, 0.95));
    double lo = 1e300;
    double hi = -1e300;
    const int n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i) {
      const double x = rng.uniform(-50.0, 50.0);
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      p2.add(x);
    }
    EXPECT_GE(p2.value(), lo) << "seed " << seed;
    EXPECT_LE(p2.value(), hi) << "seed " << seed;
  }
}

TEST(P2QuantileProperty, TracksExactQuantileOnUniformStreams) {
  for (const double q : {0.25, 0.5, 0.9, 0.95}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      PropertyRng rng(400 + seed);
      const auto xs = random_samples(rng, 3000, 0.0, 1.0);
      P2Quantile p2(q);
      for (const double x : xs) p2.add(x);
      // The P² estimate converges to the exact sample quantile; on
      // uniform streams of this length the error stays small.
      EXPECT_NEAR(p2.value(), exact_quantile(xs, q), 0.05)
          << "q=" << q << " seed " << seed;
      EXPECT_EQ(p2.count(), xs.size());
    }
  }
}

TEST(HistogramProperty, BucketAssignmentMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PropertyRng rng(600 + seed);
    const double lo = rng.uniform(-10.0, 0.0);
    const double hi = lo + rng.uniform(1.0, 20.0);
    const auto buckets = static_cast<std::size_t>(rng.uniform_int(1, 16));
    Histogram h(lo, hi, buckets);

    std::vector<std::size_t> reference(buckets, 0);
    std::size_t under = 0;
    std::size_t over = 0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(10, 500));
    const double width = (hi - lo) / static_cast<double>(buckets);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.uniform(lo - 5.0, hi + 5.0);
      h.add(x);
      if (x < lo) {
        ++under;
      } else if (x >= hi) {
        ++over;
      } else {
        auto b = static_cast<std::size_t>((x - lo) / width);
        if (b >= buckets) b = buckets - 1;  // boundary rounding
        ++reference[b];
      }
    }

    EXPECT_EQ(h.total(), n) << "seed " << seed;
    EXPECT_EQ(h.underflow(), under) << "seed " << seed;
    EXPECT_EQ(h.overflow(), over) << "seed " << seed;
    std::size_t sum = h.underflow() + h.overflow();
    for (std::size_t b = 0; b < buckets; ++b) {
      EXPECT_EQ(h.count(b), reference[b]) << "seed " << seed << " bucket " << b;
      sum += h.count(b);
    }
    EXPECT_EQ(sum, n) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vcpusim::stats
