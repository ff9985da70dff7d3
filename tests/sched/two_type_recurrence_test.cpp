// sched::two_type_flowshop2_makespan jumps whole stretches of each run
// instead of stepping job by job.  These tests hold it to the job-by-job
// loop (tests/oracles/two_type_oracles.h) bit for bit: long runs that cross
// many binades, stages that make every step a rounding tie, stages that
// vanish against a long run, and non-finite stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "oracles/two_type_oracles.h"
#include "sched/makespan.h"
#include "util/rng.h"

namespace jps::sched {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Compares the fast path with the loop; returns false (and reports) on a
/// mismatch so callers can stop after the first few.
bool expect_matches_loop(double f_a, double g_a, int n_a, double f_b,
                         double g_b, int n_b) {
  const double fast =
      two_type_flowshop2_makespan(f_a, g_a, n_a, f_b, g_b, n_b);
  const double loop =
      oracle::two_type_flowshop2_loop(f_a, g_a, n_a, f_b, g_b, n_b);
  EXPECT_TRUE(same_bits(fast, loop))
      << std::hexfloat << "f_a=" << f_a << " g_a=" << g_a << " n_a=" << n_a
      << " f_b=" << f_b << " g_b=" << g_b << " n_b=" << n_b << ": " << fast
      << " vs " << loop;
  return same_bits(fast, loop);
}

/// Stage values that stress the rounding: plain uniforms, powers of two,
/// short mantissas (ties once the sum's ulp reaches them), tiny values,
/// and zeros.
double stress_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform(0.0, 10.0);
    case 1: return std::ldexp(1.0, static_cast<int>(rng.uniform_int(-12, 12)));
    case 2:
      return std::ldexp(static_cast<double>(rng.uniform_int(1, 7)),
                        static_cast<int>(rng.uniform_int(-40, 8)));
    case 3: return rng.uniform(0.0, 1.0) * 1e-12;
    case 4: return 0.0;
    default:
      return std::ldexp(static_cast<double>(rng.uniform_int(1, 1023)),
                        static_cast<int>(rng.uniform_int(-60, 0)));
  }
}

TEST(TwoTypeRecurrence, MatchesLoopOnLongRunsBitwise) {
  util::Rng rng(4099);
  int mismatches = 0;
  for (int trial = 0; trial < 3000 && mismatches < 5; ++trial) {
    double f_a = stress_value(rng);
    double g_a = stress_value(rng);
    double f_b = stress_value(rng);
    double g_b = stress_value(rng);
    if (trial % 7 == 0) f_a = g_a;  // f = g within a run
    if (trial % 11 == 0) g_b = f_b;
    const int limit = trial % 4 == 0 ? 20000 : 400;
    const int n_a = static_cast<int>(rng.uniform_int(0, limit));
    const int n_b = static_cast<int>(rng.uniform_int(0, limit));
    if (!expect_matches_loop(f_a, g_a, n_a, f_b, g_b, n_b)) ++mismatches;
  }
}

TEST(TwoTypeRecurrence, MatchesLoopAtSixteenMillionJobs) {
  const int big = 1 << 24;
  expect_matches_loop(1.3, 2.7, big, 3.1, 0.9, 1000);
  expect_matches_loop(2.7, 1.3, 1000, 0.9, 3.1, big);
  expect_matches_loop(0.1, 0.1, big, 0.3, 0.2, big);
  expect_matches_loop(0x1.8p-3, 0x1p-2, big, 0x1.4p-1, 0x1p-30, big);
}

TEST(TwoTypeRecurrence, TieEveryStepAfterALongRun) {
  // After n_a jobs of f_a the cpu time is exact; f_b is an odd multiple of
  // half its ulp, so every later cpu addition is a tie that round-to-even
  // decides, and the link side gets the same treatment from g_b.
  for (const double f_a : {0x1p40, 0x1.8p40, 0x1.4p41, 0x1.cp45}) {
    const int n_a = 1000;
    const double cpu = f_a * n_a;
    const double ulp = std::nextafter(cpu, 2 * cpu) - cpu;
    for (const double k : {0.5, 1.5, 2.5, 3.5, 7.5}) {
      for (const double g_scale : {0.5, 1.5, 4.0}) {
        expect_matches_loop(f_a, f_a, n_a, k * ulp, g_scale * ulp, 5000);
        expect_matches_loop(f_a, 2 * f_a, n_a, k * ulp, g_scale * ulp, 5000);
        expect_matches_loop(f_a, 0.5 * f_a, n_a, g_scale * ulp, k * ulp, 5000);
      }
    }
  }
}

TEST(TwoTypeRecurrence, EqualAndZeroStages) {
  for (const double v : {0.0, 0x1p-20, 0.1, 1.0, 3.0, 1e6}) {
    expect_matches_loop(v, v, 777, v, v, 555);         // f = g
    expect_matches_loop(0.0, v, 777, 0.0, v, 555);     // zero f
    expect_matches_loop(v, 0.0, 777, v, 0.0, 555);     // zero g
    expect_matches_loop(v, 0.0, 777, 0.0, v, 555);
    expect_matches_loop(0.0, 0.0, 777, v, 2 * v, 555);
  }
}

TEST(TwoTypeRecurrence, TinyStageAbsorbedAfterLongRun) {
  // Long a-run, then stages far below the ulp of the accumulated times:
  // each addition rounds back to the same value (or by one ulp on a tie).
  for (const double tiny : {1e-20, 0x1p-60, 0x1p-45, 0x1.8p-45}) {
    expect_matches_loop(3.0, 5.0, 20000, 7.0, tiny, 20000);
    expect_matches_loop(5.0, 3.0, 20000, tiny, tiny, 20000);
    expect_matches_loop(5.0, 3.0, 20000, tiny, 2.0, 20000);
  }
}

TEST(TwoTypeRecurrence, NonFiniteAndExtremeStagesGiveTheLoopsResults) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(two_type_flowshop2_makespan(inf, 1.0, 3, 2.0, 1.0, 4), inf);
  EXPECT_EQ(two_type_flowshop2_makespan(1.0, inf, 3, 2.0, 1.0, 4), inf);
  EXPECT_EQ(two_type_flowshop2_makespan(1.0, 2.0, 3, 2.0, inf, 4), inf);
  EXPECT_TRUE(
      std::isnan(two_type_flowshop2_makespan(nan, 1.0, 3, 2.0, 1.0, 4)));
  EXPECT_TRUE(
      std::isnan(two_type_flowshop2_makespan(1.0, 2.0, 3, nan, 1.0, 4)));
  // max(inf, NaN) keeps the inf cpu time, so the b-run ends at inf.
  EXPECT_EQ(two_type_flowshop2_makespan(inf, nan, 3, 2.0, 1.0, 4), inf);
  // A NaN link time is dropped by the next max(cpu, link): the b-run
  // starts from the cpu time alone (cpu 2 + 1 = 3, then 3 + 2 = 5).
  EXPECT_EQ(two_type_flowshop2_makespan(1.0, nan, 2, 1.0, 2.0, 1), 5.0);
  // Stages of an empty run are never read.
  EXPECT_EQ(two_type_flowshop2_makespan(nan, inf, 0, 1.0, 2.0, 2), 5.0);
  const double values[] = {0.0,    1.0,   3.5,     inf,         nan,
                           1e-300, 1e300, 0x1p1023, 0x1.8p-1060, 0x1p-1074};
  for (const double f_a : values)
    for (const double g_a : values)
      for (const double f_b : values)
        for (const double g_b : values)
          for (const int n_a : {0, 1, 2, 300})
            for (const int n_b : {0, 1, 3, 300})
              expect_matches_loop(f_a, g_a, n_a, f_b, g_b, n_b);
}

TEST(TwoTypeRecurrence, NegativeStageThrows) {
  EXPECT_THROW((void)two_type_flowshop2_makespan(-1.0, 1.0, 2, 1.0, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW((void)two_type_flowshop2_makespan(1.0, 1.0, 2, 1.0, -0.5, 2),
               std::invalid_argument);
  // ...but not when the run is empty.
  EXPECT_EQ(two_type_flowshop2_makespan(-1.0, -1.0, 0, 1.0, 1.0, 2),
            oracle::two_type_flowshop2_loop(-1.0, -1.0, 0, 1.0, 1.0, 2));
}

TEST(TwoTypeRecurrence, MaxCountsStayFastAndClose) {
  // INT_MAX jobs per run: no test can afford the loop, so compare with the
  // endpoint identity.  The recurrence's own rounding drifts by up to
  // n * 2^-53 (2.4e-7) relative over 2^31 additions.
  const double ms =
      two_type_flowshop2_makespan(1.3, 2.7, INT_MAX, 3.1, 0.9, INT_MAX);
  const double n = static_cast<double>(INT_MAX);
  const double expected = std::max({1.3 + n * 2.7 + n * 0.9,
                                    n * 1.3 + 2.7 + n * 0.9,
                                    n * 1.3 + 3.1 + n * 0.9,
                                    n * 1.3 + n * 3.1 + 0.9});
  EXPECT_NEAR(ms, expected, expected * 1e-6);
}

}  // namespace
}  // namespace jps::sched
