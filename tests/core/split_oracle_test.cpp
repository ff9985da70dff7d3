// core::best_two_type_split evaluates two_type_makespan only near the
// crossings of its interior lines and at the pure runs.  These tests hold
// it to the full scan over n_a = 0..n_jobs (tests/oracles/
// two_type_oracles.h): every count up to 4096 on random and degenerate
// stage pairs, and the adjacent cut pairs of every zoo model at eight
// bandwidths.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "oracles/two_type_oracles.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "util/rng.h"

namespace jps::core {
namespace {

struct StagePair {
  double f_a, g_a, f_b, g_b;
};

std::string describe(const StagePair& p, int n) {
  char text[160];
  std::snprintf(text, sizeof text, "f_a=%a g_a=%a f_b=%a g_b=%a n=%d", p.f_a,
                p.g_a, p.f_b, p.g_b, n);
  return text;
}

/// Diffs the closed form against the scan; returns false on a mismatch.
bool expect_matches_scan(const StagePair& p, int n) {
  const int fast = best_two_type_split(p.f_a, p.g_a, p.f_b, p.g_b, n);
  const int scan =
      oracle::best_two_type_split_scan(p.f_a, p.g_a, p.f_b, p.g_b, n);
  EXPECT_EQ(fast, scan) << describe(p, n);
  return fast == scan;
}

/// Eight log-spaced rates over 1-80 Mbps, as the sweep benchmark uses.
std::vector<double> sweep_rates() {
  std::vector<double> rates;
  for (int k = 0; k < 8; ++k)
    rates.push_back(std::exp(std::log(80.0) * k / 7.0));
  return rates;
}

/// A monotone pair (f_a <= f_b, g_a >= g_b), as the planner passes them.
StagePair random_pair(util::Rng& rng) {
  const double f1 = rng.uniform(0.0, 50.0);
  const double f2 = rng.uniform(0.0, 50.0);
  const double g1 = rng.uniform(0.0, 50.0);
  const double g2 = rng.uniform(0.0, 50.0);
  return {std::min(f1, f2), std::max(g1, g2), std::max(f1, f2),
          std::min(g1, g2)};
}

TEST(BestTwoTypeSplit, MatchesScanForEveryCountUpTo4096) {
  util::Rng rng(4096);
  std::vector<StagePair> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back(random_pair(rng));
  pairs.push_back({1.0, 7.0, 9.0, 7.0});           // g_a == g_b
  pairs.push_back({2.5, 11.0, 6.0, 11.0});
  pairs.push_back({4.0, 9.0, 4.0, 1.0});           // f_a == f_b
  pairs.push_back({3.0, 8.0, 8.0, 2.0});           // f_b == g_a
  pairs.push_back({1.1, 6.6, 6.6, 0.3});
  pairs.push_back({2.0, 5.0, 7.0, 2.0});           // f_a == g_b
  pairs.push_back({0.0, 12.0, 9.0, 0.0});          // zero stages
  pairs.push_back({0.0, 0.0, 3.0, 0.0});
  pairs.push_back({0.0, 0.0, 0.0, 0.0});
  pairs.push_back({5.0, 5.0, 5.0, 5.0});           // one cut twice
  pairs.push_back({0x1.8p-2, 0x1.4p1, 0x1.cp0, 0x1p-3});  // short mantissas
  pairs.push_back({0.1, 0.7, 0.3, 0.1});           // inexact decimals
  for (const StagePair& p : pairs) {
    int mismatches = 0;
    for (int n = 0; n <= 4096 && mismatches < 3; ++n)
      if (!expect_matches_scan(p, n)) ++mismatches;
  }
}

TEST(BestTwoTypeSplit, MatchesScanOnRandomAndTiedPairs) {
  // Values from a small set make exact ties between splits common, so the
  // smallest-index rule is exercised; unordered pairs are covered too.
  util::Rng rng(77);
  const double coarse[] = {0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  int mismatches = 0;
  for (int trial = 0; trial < 6000 && mismatches < 5; ++trial) {
    StagePair p = random_pair(rng);
    if (trial % 3 == 0) {
      p = {coarse[rng.uniform_int(0, 8)], coarse[rng.uniform_int(0, 8)],
           coarse[rng.uniform_int(0, 8)], coarse[rng.uniform_int(0, 8)]};
    } else if (trial % 3 == 1) {
      p.f_b = p.g_a;
    }
    const int limit = trial % 10 == 0 ? 4096 : 300;
    const int n = static_cast<int>(rng.uniform_int(0, limit));
    if (!expect_matches_scan(p, n)) ++mismatches;
  }
}

TEST(BestTwoTypeSplit, MatchesScanOnNoisyPlateaus) {
  // A flat active line (g_a == g_b, f_a == f_b or f_a == g_b) with inexact
  // stages: along the plateau the computed makespan wobbles by rounding,
  // so a walk that stopped at the first value above the start would miss
  // a later, smaller one.
  util::Rng rng(1117);
  int mismatches = 0;
  for (int trial = 0; trial < 30000 && mismatches < 5; ++trial) {
    StagePair p = random_pair(rng);
    switch (trial % 3) {
      case 0: p.g_b = p.g_a; break;
      case 1: p.f_b = p.f_a; break;
      default: p.g_b = p.f_a; break;
    }
    const int n = static_cast<int>(rng.uniform_int(2, 300));
    if (!expect_matches_scan(p, n)) ++mismatches;
  }
}

TEST(BestTwoTypeSplit, MatchesScanOnEveryZooCurvePair) {
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const net::Channel channel(5.85);
  for (const std::string& name : models::all_names()) {
    const partition::ProfileCurve base =
        partition::ProfileCurve::build(models::build(name), mobile, channel);
    for (const double rate : sweep_rates()) {
      const partition::ProfileCurve curve = base.with_bandwidth(channel, rate);
      for (std::size_t a = 0; a + 1 < curve.size(); ++a) {
        const StagePair p{curve.f(a), curve.g(a), curve.f(a + 1),
                          curve.g(a + 1)};
        for (int n = 1; n <= 64; ++n)
          ASSERT_TRUE(expect_matches_scan(p, n)) << name << " @ " << rate;
        ASSERT_TRUE(expect_matches_scan(p, 4096)) << name << " @ " << rate;
      }
    }
  }
}

TEST(BestTwoTypeSplit, MatchesScanOnSubnormalStages) {
  // Sums among the subnormals are exact; subnormal arithmetic is slow on
  // most CPUs, hence the smaller counts.
  for (const StagePair& p :
       {StagePair{0x1p-1070, 0x1.8p-1062, 0x1p-1064, 0x1p-1074},
        StagePair{0x1p-1074, 0x1p-1074, 0x1p-1074, 0.0}}) {
    for (int n = 0; n <= 300; ++n) expect_matches_scan(p, n);
  }
}

TEST(BestTwoTypeSplit, InfiniteStageLeavesOnlyThePureRuns) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const StagePair& p : {StagePair{1.0, inf, 2.0, 1.0},
                             StagePair{1.0, 5.0, inf, 1.0},
                             StagePair{inf, inf, 2.0, 1.0},
                             StagePair{1.0, 5.0, 2.0, inf}}) {
    for (const int n : {0, 1, 2, 7, 100}) expect_matches_scan(p, n);
  }
}

TEST(BestTwoTypeSplit, RejectsNegativeNaNAndOverflowingStages) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)best_two_type_split(-1.0, 2.0, 3.0, 1.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)best_two_type_split(1.0, 2.0, nan, 1.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)best_two_type_split(1.0, 1e306, 3.0, 1.0, 1000),
               std::invalid_argument);
  EXPECT_EQ(best_two_type_split(1.0, 2.0, 3.0, 1.0, 0), 0);
  EXPECT_EQ(best_two_type_split(1.0, 2.0, 3.0, 1.0, -5), 0);
}

TEST(BestTwoTypeSplit, MaxJobCountDoesNotOverflow) {
  // The old scan's int counter overflowed at n_jobs == INT_MAX.  The split
  // must sit at the balance point, where no neighbour is better.
  const StagePair p{1.3, 2.7, 3.1, 0.9};
  const int split = best_two_type_split(p.f_a, p.g_a, p.f_b, p.g_b, INT_MAX);
  ASSERT_GT(split, 0);
  ASSERT_LT(split, INT_MAX);
  const auto makespan = [&](int n_a) {
    return two_type_makespan(p.f_a, p.g_a, p.f_b, p.g_b, n_a, INT_MAX - n_a);
  };
  EXPECT_LT(makespan(split), makespan(split - 1));
  EXPECT_LE(makespan(split), makespan(split + 1));
}

TEST(BestTwoTypeSplit, PlanSweepAtMaxJobCountIsFast) {
  // A kPlan frame accepts n_jobs up to 2^31 - 1; a JPS+ sweep there must
  // cost what it costs at n = 50, not a scan of every split per point.
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const net::Channel channel(5.85);
  const Planner planner(partition::ProfileCurve::build(
      models::build("alexnet"), mobile, channel));
  const std::vector<double> grid = sweep_rates();
  const auto start = std::chrono::steady_clock::now();
  const PlanSweep sweep =
      planner.plan_sweep(Strategy::kJPSHull, INT_MAX, grid, channel);
  const std::chrono::duration<double> seconds =
      std::chrono::steady_clock::now() - start;
  // Microseconds in practice; one scan of 2^31 splits takes minutes.
  EXPECT_LT(seconds.count(), 5.0);
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    EXPECT_TRUE(std::isfinite(sweep.makespan_ms[k])) << k;
    EXPECT_GE(sweep.n_a[k], 0);
  }
}

}  // namespace
}  // namespace jps::core
