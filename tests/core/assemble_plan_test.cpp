// Differential suite for plan assembly: core::assemble_plan (both the
// per-job-cuts and the two-run overloads), Planner::plan and
// Planner::materialize must produce BIT FOR BIT the plan of the reference
// assembly in tests/oracles/assemble_plan_oracle.h — same jobs in the same
// order, same lane doubles, same S1 count, same makespan — on unsorted cut
// vectors that need the Johnson sort, tie-heavy curves, degenerate sizes,
// two-type mixes up to n = 4096 and every zoo model's curve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "oracles/assemble_plan_oracle.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/bruteforce.h"
#include "util/rng.h"

namespace jps::core {
namespace {

constexpr Strategy kMixStrategies[] = {
    Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
    Strategy::kJPS,       Strategy::kJPSTuned,  Strategy::kJPSHull,
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_lane(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_matches(const ExecutionPlan& got,
                    const oracle::AssembledPlan& want,
                    const std::string& where) {
  EXPECT_EQ(got.model, want.model) << where;
  EXPECT_EQ(got.strategy, want.strategy) << where;
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << where;
  // JobAssignment has padding between its fields, so its bytes are
  // compared field by field.
  for (std::size_t i = 0; i < got.jobs.size(); ++i) {
    ASSERT_EQ(got.jobs[i].job_id, want.jobs[i].job_id)
        << where << ", job " << i;
    ASSERT_EQ(got.jobs[i].cut_index, want.jobs[i].cut_index)
        << where << ", job " << i;
  }
  EXPECT_TRUE(same_lane(got.f_lane, want.f_lane)) << where;
  EXPECT_TRUE(same_lane(got.g_lane, want.g_lane)) << where;
  EXPECT_EQ(got.comm_heavy_count, want.comm_heavy_count) << where;
  EXPECT_TRUE(same_bits(got.predicted_makespan, want.predicted_makespan))
      << where << ": " << got.predicted_makespan << " vs "
      << want.predicted_makespan;
}

void expect_assembles_like_reference(const partition::ProfileCurve& curve,
                                     const std::vector<std::size_t>& cuts,
                                     const std::string& where) {
  expect_matches(assemble_plan(curve, Strategy::kBruteForce, cuts),
                 oracle::assemble_plan_reference(curve, Strategy::kBruteForce,
                                                 cuts),
                 where);
}

// A curve whose f and g are drawn independently: `levels` > 0 draws both
// from {0, 1, .., levels - 1} (ties in f, in g and between f and g),
// otherwise from a continuous range.  Unclustered curves keep g unsorted,
// so many cut vectors over them are far from Johnson order; clustered ones
// are monotone, as the planner's curves are.
partition::ProfileCurve random_curve(util::Rng& rng, int levels,
                                     bool cluster) {
  const int k = static_cast<int>(rng.uniform_int(1, 12));
  const auto draw = [&] {
    return levels > 0 ? static_cast<double>(rng.uniform_int(0, levels - 1))
                      : rng.uniform(0.0, 30.0);
  };
  std::vector<partition::CutPoint> candidates;
  for (int i = 0; i < k; ++i) {
    partition::CutPoint c;
    c.f = draw();
    c.g = draw();
    candidates.push_back(c);
  }
  partition::CurveOptions options;
  options.cluster = cluster;
  return partition::ProfileCurve::from_candidates("synthetic",
                                                  std::move(candidates),
                                                  options);
}

std::vector<std::size_t> mix(std::size_t cut_a, std::size_t cut_b, int n_a,
                             int n_jobs) {
  std::vector<std::size_t> cuts(static_cast<std::size_t>(n_jobs), cut_b);
  std::fill_n(cuts.begin(), n_a, cut_a);
  return cuts;
}

TEST(AssemblePlanOracle, RandomUnsortedCutsMatchReference) {
  util::Rng rng(20261018);
  for (int trial = 0; trial < 600; ++trial) {
    const partition::ProfileCurve curve =
        random_curve(rng, 0, /*cluster=*/trial % 3 == 0);
    const int n = static_cast<int>(rng.uniform_int(0, 60));
    std::vector<std::size_t> cuts;
    for (int i = 0; i < n; ++i)
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(curve.size()) - 1)));
    expect_assembles_like_reference(curve, cuts,
                                    "trial " + std::to_string(trial));
  }
}

TEST(AssemblePlanOracle, TiesInFAndGMatchReference) {
  util::Rng rng(77);
  for (int trial = 0; trial < 600; ++trial) {
    const partition::ProfileCurve curve =
        random_curve(rng, /*levels=*/trial % 2 == 0 ? 2 : 4,
                     /*cluster=*/trial % 4 == 0);
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    std::vector<std::size_t> cuts;
    for (int i = 0; i < n; ++i)
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(curve.size()) - 1)));
    expect_assembles_like_reference(curve, cuts,
                                    "trial " + std::to_string(trial));
    // Sorted cuts: the order the brute force hands over.
    std::sort(cuts.begin(), cuts.end());
    expect_assembles_like_reference(curve, cuts,
                                    "sorted trial " + std::to_string(trial));
  }
}

TEST(AssemblePlanOracle, SingleCutAndSingleJobPlans) {
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    partition::CutPoint only;
    only.f = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 10.0);
    only.g = trial % 5 == 0 ? only.f : rng.uniform(0.0, 10.0);
    const auto single =
        partition::ProfileCurve::from_candidates("single", {only});
    ASSERT_EQ(single.size(), 1u);
    for (const int n : {0, 1, 2, 7}) {
      const std::string where =
          "trial " + std::to_string(trial) + ", n " + std::to_string(n);
      expect_assembles_like_reference(single, mix(0, 0, 0, n), where);
      expect_matches(assemble_plan(single, Strategy::kJPS, 0, 0, 0, n),
                     oracle::assemble_plan_reference(single, Strategy::kJPS,
                                                     mix(0, 0, 0, n)),
                     where);
    }
    const ExecutionPlan plan = Planner(single).plan(
        kMixStrategies[static_cast<std::size_t>(trial) % 6], 1);
    expect_matches(plan,
                   oracle::assemble_plan_reference(single, plan.strategy,
                                                   mix(0, 0, 0, 1)),
                   "planner trial " + std::to_string(trial));
    const partition::ProfileCurve curve = random_curve(rng, 0, true);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(curve.size()) - 1));
    expect_assembles_like_reference(curve, {cut},
                                    "n = 1, trial " + std::to_string(trial));
  }
}

TEST(AssemblePlanOracle, TwoTypeMixesMatchReference) {
  util::Rng rng(4096);
  for (const int n : {1, 2, 50, 4096}) {
    for (int trial = 0; trial < (n == 4096 ? 40 : 300); ++trial) {
      const partition::ProfileCurve curve =
          random_curve(rng, trial % 4 == 0 ? 3 : 0, /*cluster=*/true);
      const auto last = static_cast<std::int64_t>(curve.size()) - 1;
      auto cut_a = static_cast<std::size_t>(rng.uniform_int(0, last));
      auto cut_b = static_cast<std::size_t>(rng.uniform_int(0, last));
      // Mostly the planner's shape (cut_a before cut_b); the rest arrive
      // out of Johnson order and must be sorted like the reference does.
      if (trial % 5 != 0 && cut_a > cut_b) std::swap(cut_a, cut_b);
      const int n_a = static_cast<int>(rng.uniform_int(0, n));
      const std::string where = "n " + std::to_string(n) + ", trial " +
                                std::to_string(trial) + ", mix " +
                                std::to_string(cut_a) + "x" +
                                std::to_string(n_a) + " + " +
                                std::to_string(cut_b);
      const std::vector<std::size_t> cuts = mix(cut_a, cut_b, n_a, n);
      const oracle::AssembledPlan want =
          oracle::assemble_plan_reference(curve, Strategy::kJPSHull, cuts);
      expect_matches(
          assemble_plan(curve, Strategy::kJPSHull, cut_a, cut_b, n_a, n),
          want, where);
      expect_matches(assemble_plan(curve, Strategy::kJPSHull, cuts), want,
                     where);
    }
  }
}

TEST(AssemblePlanOracle, BruteForcePlansMatchReference) {
  util::Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    const partition::ProfileCurve curve =
        random_curve(rng, trial % 2 == 0 ? 3 : 0, /*cluster=*/true);
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const sched::BruteForceResult bf =
        sched::bruteforce_exact(curve.as_cut_options(), n);
    const std::vector<std::size_t> cuts(bf.cuts.begin(), bf.cuts.end());
    expect_matches(Planner(curve).plan(Strategy::kBruteForce, n),
                   oracle::assemble_plan_reference(
                       curve, Strategy::kBruteForce, cuts),
                   "trial " + std::to_string(trial));
  }
}

TEST(AssemblePlanOracle, EveryZooCurveAndStrategyMatchesReference) {
  const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const net::Channel channel(5.85);
  std::vector<double> rates;
  for (int k = 0; k < 8; ++k)
    rates.push_back(std::exp(std::log(80.0) * (k + 0.5) / 8.0));
  for (const std::string& model : models::all_names()) {
    const dnn::Graph graph = models::build(model);
    const Planner planner(partition::ProfileCurve::build(graph, mobile,
                                                         channel));
    for (const Strategy strategy : kMixStrategies) {
      for (const int n : {50, 4096}) {
        const PlanSweep sweep = planner.plan_sweep(strategy, n, rates, channel);
        for (std::size_t k = 0; k < rates.size(); ++k) {
          const std::string where = model + "/" + strategy_name(strategy) +
                                    "/n" + std::to_string(n) + "@" +
                                    std::to_string(rates[k]);
          const partition::ProfileCurve rebased =
              planner.curve().with_bandwidth(channel, rates[k]);
          const oracle::AssembledPlan want = oracle::assemble_plan_reference(
              rebased, strategy,
              mix(sweep.cut_a[k], sweep.cut_b[k], sweep.n_a[k], n));
          expect_matches(Planner(rebased).plan(strategy, n), want, where);
          expect_matches(planner.materialize(sweep, k, channel), want, where);
        }
      }
    }
  }
}

TEST(AssemblePlanOracle, ErrorsMatchReference) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {partition::CutPoint{}, partition::CutPoint{}});
  const std::vector<std::size_t> beyond = {0, 1, 2};
  EXPECT_THROW((void)oracle::assemble_plan_reference(curve, Strategy::kJPS,
                                                     beyond),
               std::out_of_range);
  EXPECT_THROW((void)assemble_plan(curve, Strategy::kJPS, beyond),
               std::out_of_range);
  EXPECT_THROW((void)assemble_plan(curve, Strategy::kJPS, 0, 5, 1, 3),
               std::out_of_range);

  partition::CutPoint negative;
  negative.f = -1.0;
  negative.g = 2.0;
  partition::CurveOptions unclustered;
  unclustered.cluster = false;
  const auto bad = partition::ProfileCurve::from_candidates(
      "negative", {negative, partition::CutPoint{}}, unclustered);
  const std::vector<std::size_t> cuts = {1, 0};
  EXPECT_THROW((void)oracle::assemble_plan_reference(bad, Strategy::kJPS, cuts),
               std::invalid_argument);
  EXPECT_THROW((void)assemble_plan(bad, Strategy::kJPS, cuts),
               std::invalid_argument);

  EXPECT_THROW((void)assemble_plan(curve, Strategy::kJPS, 0, 1, 4, 3),
               std::invalid_argument);
  EXPECT_THROW((void)assemble_plan(curve, Strategy::kJPS, 0, 1, -1, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace jps::core
