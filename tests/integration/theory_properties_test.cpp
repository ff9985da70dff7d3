// Property tests of the paper's theorems on randomized synthetic curves.
#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.h"
#include "partition/binary_search.h"
#include "partition/continuous.h"
#include "partition/profile_curve.h"
#include "sched/bruteforce.h"
#include "util/rng.h"

namespace jps {
namespace {

using partition::CutPoint;
using partition::ProfileCurve;

// Random curve with the paper's §3.2 shape: f linear-ish increasing,
// g convex-ish exponentially decreasing.
ProfileCurve random_paper_shaped_curve(util::Rng& rng) {
  const int k = static_cast<int>(rng.uniform_int(4, 16));
  const double slope = rng.uniform(0.5, 4.0);
  const double scale = rng.uniform(20.0, 200.0);
  const double decay = rng.uniform(0.15, 0.9);
  std::vector<CutPoint> candidates;
  for (int i = 0; i < k; ++i) {
    CutPoint c;
    c.f = slope * static_cast<double>(i) * rng.uniform(0.9, 1.1);
    if (i == 0) c.f = 0.0;
    c.g = scale * std::exp(-decay * static_cast<double>(i));
    c.offload_bytes = 1 + static_cast<std::uint64_t>(c.g * 500.0);
    candidates.push_back(c);
  }
  CutPoint last;
  last.f = slope * static_cast<double>(k);
  last.g = 0.0;
  candidates.push_back(last);
  return ProfileCurve::from_candidates("random", std::move(candidates));
}

class TheoremSeeds : public ::testing::TestWithParam<int> {};

// Theorem 5.3 (+ ratio rule): the exactly-swept two-adjacent-type JPS
// matches the exact brute-force joint optimum on paper-shaped curves.
TEST_P(TheoremSeeds, JpsTunedMatchesExactBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const ProfileCurve curve = random_paper_shaped_curve(rng);
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const core::Planner planner(curve);
    const double tuned =
        planner.plan(core::Strategy::kJPSTuned, n).predicted_makespan;
    const double hull =
        planner.plan(core::Strategy::kJPSHull, n).predicted_makespan;
    const auto bf = sched::bruteforce_exact(curve.as_cut_options(), n);
    // Both JPS variants mix at most two cut types.  BF can still beat them
    // by exploiting Prop. 4.1's boundary terms with extra cut types, but
    // that advantage is O(1/n) (see
    // BruteforceTwoType.NearOptimalWithVanishingBoundaryGap).  The hull
    // pair is never worse than the index-adjacent pair asymptotically.
    EXPECT_LE(bf.makespan, tuned + 1e-9) << "seed trial " << trial;
    EXPECT_LE(bf.makespan, hull + 1e-9) << "seed trial " << trial;
    EXPECT_LE(hull,
              bf.makespan * (1.0 + 1.5 / static_cast<double>(n)) + 1e-9)
        << "seed " << GetParam() << " trial " << trial << " n=" << n;
  }
}

// Theorem 5.2: as the partition becomes effectively continuous (dense curve,
// many jobs), the single-cut JPS per-job makespan approaches the continuous
// relaxation's stage bound.
TEST_P(TheoremSeeds, ContinuousRelaxationIsTightForDenseCurves) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  // Dense ideal curve: 64 cuts, exact linear/exponential shapes.
  const int k = 64;
  const double slope = rng.uniform(0.5, 2.0);
  const double scale = rng.uniform(50.0, 150.0);
  const double decay = rng.uniform(0.05, 0.2);
  std::vector<CutPoint> candidates;
  for (int i = 0; i < k; ++i) {
    CutPoint c;
    c.f = (i == 0) ? 0.0 : slope * static_cast<double>(i);
    c.g = scale * std::exp(-decay * static_cast<double>(i));
    c.offload_bytes = 1000;
    candidates.push_back(c);
  }
  CutPoint last;
  last.f = slope * static_cast<double>(k);
  last.g = 0.0;
  candidates.push_back(last);
  const ProfileCurve curve =
      ProfileCurve::from_candidates("dense", std::move(candidates));

  const auto relax = partition::relax_continuous(curve);
  const core::Planner planner(curve);
  const int n = 200;
  const double per_job =
      planner.plan(core::Strategy::kJPSTuned, n).predicted_makespan /
      static_cast<double>(n);
  // Discrete per-job cost within 10% of the continuous bound (which is a
  // lower bound up to boundary terms).
  EXPECT_GE(per_job, relax.stage_ms * 0.9);
  EXPECT_LE(per_job, relax.stage_ms * 1.1 + 2.0 * slope);
}

// Alg. 2 invariant + Theorem 5.3 precondition: the chosen pair brackets the
// f/g crossing, so mixing the two types can always balance the stages.
TEST_P(TheoremSeeds, ChosenPairBracketsCrossing) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int trial = 0; trial < 30; ++trial) {
    const ProfileCurve curve = random_paper_shaped_curve(rng);
    const auto d = partition::binary_search_cut(curve);
    EXPECT_GE(curve.f(d.l_star), curve.g(d.l_star));
    if (d.l_minus) {
      EXPECT_LT(curve.f(*d.l_minus), curve.g(*d.l_minus));
      // Paper's exact-balance special case check: when f(l*) == g(l*), a
      // single cut type suffices and the ratio is 0.
      if (curve.f(d.l_star) == curve.g(d.l_star)) {
        EXPECT_EQ(d.ratio, 0);
      }
    }
  }
}

// Average-makespan equivalence (§4.2): for large n the per-job makespan of
// any plan approaches max(avg f, avg g).
TEST_P(TheoremSeeds, AverageMakespanFormulaAtScale) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const ProfileCurve curve = random_paper_shaped_curve(rng);
  const core::Planner planner(curve);
  const int n = 2000;
  const core::ExecutionPlan plan = planner.plan(core::Strategy::kJPS, n);
  const double bound = sched::average_makespan_bound(plan.job_list());
  EXPECT_NEAR(plan.predicted_makespan / static_cast<double>(n), bound,
              0.01 * bound + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremSeeds, ::testing::Range(1, 9));

}  // namespace
}  // namespace jps
