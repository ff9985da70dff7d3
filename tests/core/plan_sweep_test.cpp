// Differential suite for the batched planner path: Planner::plan_sweep and
// the SoA lane kernels must reproduce the per-point scalar plan() BIT FOR
// BIT — same makespan doubles, same cuts, same Johnson order — across
// hundreds of random curves, real model curves, and the edge cases that
// break naive vectorizations (flat curves, duplicate f, n_jobs == 1).
// CI also runs this binary under -O3 -march=x86-64-v3 to pin the identity
// when the lane loops actually vectorize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/makespan.h"
#include "util/rng.h"

namespace jps::core {
namespace {

constexpr Strategy kSweepStrategies[] = {
    Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
    Strategy::kJPS,       Strategy::kJPSTuned,  Strategy::kJPSHull,
};

// A synthetic monotone curve: random f ascending, random offload bytes, and
// g derived from the bytes through the SAME affine channel the sweep will
// re-base — exactly how real curves are built.  Clustering keeps it
// monotone at every bandwidth (g ordering only depends on bytes ordering).
partition::ProfileCurve random_curve(util::Rng& rng, bool duplicate_f) {
  const net::Channel channel(10.0);
  const int k = static_cast<int>(rng.uniform_int(3, 16));
  std::vector<partition::CutPoint> candidates;
  double f = 0.0;
  for (int i = 0; i < k; ++i) {
    partition::CutPoint c;
    if (!(duplicate_f && i % 2 == 1)) f += rng.uniform(0.0, 20.0);
    c.f = f;
    c.offload_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 4'000'000));
    c.g = channel.time_ms(c.offload_bytes);
    candidates.push_back(c);
  }
  // Endpoints: a cloud-only cut (f = 0) and a local-only cut (bytes = 0).
  candidates.front().f = 0.0;
  partition::CutPoint local;
  local.f = f + rng.uniform(0.1, 20.0);
  local.offload_bytes = 0;
  local.g = 0.0;
  candidates.push_back(local);
  return partition::ProfileCurve::from_candidates("synthetic",
                                                  std::move(candidates));
}

// The scalar truth for one (curve, strategy, bandwidth, n_jobs) point.
ExecutionPlan scalar_plan(const partition::ProfileCurve& base,
                          const net::Channel& channel, Strategy strategy,
                          double mbps, int n_jobs) {
  return Planner(base.with_bandwidth(channel, mbps)).plan(strategy, n_jobs);
}

std::vector<std::size_t> sorted_cuts(const ExecutionPlan& plan) {
  std::vector<std::size_t> cuts;
  cuts.reserve(plan.jobs.size());
  for (const auto& job : plan.jobs) cuts.push_back(job.cut_index);
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

std::vector<std::size_t> sorted_cuts(const PlanSweep& sweep, std::size_t p) {
  std::vector<std::size_t> cuts(static_cast<std::size_t>(sweep.n_jobs),
                                sweep.cut_b[p]);
  for (int i = 0; i < sweep.n_a[p]; ++i)
    cuts[static_cast<std::size_t>(i)] = sweep.cut_a[p];
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

// One full cross-check of a sweep against per-point scalar planning:
// bit-equal makespans, identical cut multisets, and (via materialize) the
// identical ExecutionPlan the scalar path produces.
void expect_sweep_matches_scalar(const partition::ProfileCurve& base,
                                 const net::Channel& channel,
                                 Strategy strategy, int n_jobs,
                                 const std::vector<double>& bandwidths) {
  const Planner planner(base);
  const PlanSweep sweep =
      planner.plan_sweep(strategy, n_jobs, bandwidths, channel);
  ASSERT_EQ(sweep.size(), bandwidths.size());
  for (std::size_t p = 0; p < bandwidths.size(); ++p) {
    const ExecutionPlan scalar =
        scalar_plan(base, channel, strategy, bandwidths[p], n_jobs);
    // EXPECT_EQ on doubles is exact: the batched path must not differ even
    // in the last ulp.
    EXPECT_EQ(sweep.makespan_ms[p], scalar.predicted_makespan)
        << strategy_name(strategy) << " at " << bandwidths[p] << " Mbps";
    EXPECT_EQ(sorted_cuts(sweep, p), sorted_cuts(scalar))
        << strategy_name(strategy) << " at " << bandwidths[p] << " Mbps";

    const ExecutionPlan expanded = planner.materialize(sweep, p, channel);
    EXPECT_EQ(expanded.predicted_makespan, scalar.predicted_makespan);
    EXPECT_EQ(expanded.comm_heavy_count, scalar.comm_heavy_count);
    ASSERT_EQ(expanded.jobs.size(), scalar.jobs.size());
    for (std::size_t i = 0; i < expanded.jobs.size(); ++i) {
      EXPECT_EQ(expanded.jobs[i], scalar.jobs[i]);
      EXPECT_EQ(expanded.f_lane[i], scalar.f_lane[i]);
      EXPECT_EQ(expanded.g_lane[i], scalar.g_lane[i]);
    }
  }
}

TEST(PlanSweep, RandomCurvesBitIdenticalToScalar) {
  util::Rng rng(20260808);
  const net::Channel channel(10.0);
  const std::vector<double> bandwidths = {1.0, 3.7, 9.0, 18.88, 55.0};
  // 500+ random curves, every sweepable strategy, mixed job counts.
  for (int trial = 0; trial < 520; ++trial) {
    const partition::ProfileCurve curve =
        random_curve(rng, /*duplicate_f=*/trial % 5 == 0);
    const Strategy strategy = kSweepStrategies[trial % 6];
    const int n_jobs = static_cast<int>(rng.uniform_int(1, 12));
    expect_sweep_matches_scalar(curve, channel, strategy, n_jobs, bandwidths);
  }
}

TEST(PlanSweep, RealModelCurvesAllStrategies) {
  const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const net::Channel channel(10.0);
  std::vector<double> bandwidths;
  for (double b = 1.0; b <= 80.0; b += 7.3) bandwidths.push_back(b);
  for (const char* model : {"alexnet", "mobilenet_v2"}) {
    const dnn::Graph graph = models::build(model);
    const partition::ProfileCurve curve =
        partition::ProfileCurve::build(graph, mobile, channel);
    for (const Strategy strategy : kSweepStrategies)
      expect_sweep_matches_scalar(curve, channel, strategy, 10, bandwidths);
  }
}

TEST(PlanSweep, SingleJobMatchesScalar) {
  util::Rng rng(7);
  const net::Channel channel(10.0);
  for (int trial = 0; trial < 40; ++trial) {
    const partition::ProfileCurve curve = random_curve(rng, trial % 2 == 1);
    for (const Strategy strategy : kSweepStrategies)
      expect_sweep_matches_scalar(curve, channel, strategy, 1,
                                  {2.0, 11.5, 64.0});
  }
}

TEST(PlanSweep, FlatComputeCurve) {
  // Every cut costs the same f; only g (bytes) distinguishes them.  The
  // duplicate-f tie-breaks in sorting, l* search and the hull must agree
  // between the lane path and the scalar path.
  const net::Channel channel(10.0);
  std::vector<partition::CutPoint> candidates;
  for (int i = 0; i < 6; ++i) {
    partition::CutPoint c;
    c.f = 5.0;
    c.offload_bytes = static_cast<std::uint64_t>(6 - i) * 500'000;
    c.g = channel.time_ms(c.offload_bytes);
    candidates.push_back(c);
  }
  partition::CutPoint local;
  local.f = 5.0;
  local.offload_bytes = 0;
  candidates.push_back(local);
  const partition::ProfileCurve curve = partition::ProfileCurve::from_candidates(
      "flat", std::move(candidates));
  for (const Strategy strategy : kSweepStrategies)
    expect_sweep_matches_scalar(curve, channel, strategy, 8,
                                {1.0, 4.2, 10.0, 33.0});
}

TEST(PlanSweep, CurveLanesMirrorCuts) {
  util::Rng rng(11);
  const partition::ProfileCurve curve = random_curve(rng, false);
  ASSERT_EQ(curve.f_lane().size(), curve.size());
  ASSERT_EQ(curve.g_lane().size(), curve.size());
  ASSERT_EQ(curve.offload_bytes_lane().size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve.f_lane()[i], curve.cut(i).f);
    EXPECT_EQ(curve.g_lane()[i], curve.cut(i).g);
    EXPECT_EQ(curve.offload_bytes_lane()[i], curve.cut(i).offload_bytes);
    EXPECT_EQ(curve.f(i), curve.cut(i).f);
    EXPECT_EQ(curve.g(i), curve.cut(i).g);
  }
  // Rebasing keeps the lanes in sync too.
  const partition::ProfileCurve rebased =
      curve.with_bandwidth(net::Channel(10.0), 3.3);
  for (std::size_t i = 0; i < rebased.size(); ++i) {
    EXPECT_EQ(rebased.g_lane()[i], rebased.cut(i).g);
    EXPECT_EQ(rebased.f_lane()[i], rebased.cut(i).f);
  }
}

TEST(PlanSweep, PlanCarriesLanes) {
  util::Rng rng(13);
  const partition::ProfileCurve curve = random_curve(rng, false);
  const ExecutionPlan plan = Planner(curve).plan(Strategy::kJPSTuned, 6);
  ASSERT_EQ(plan.f_lane.size(), plan.jobs.size());
  ASSERT_EQ(plan.g_lane.size(), plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_EQ(plan.f_lane[i], curve.f(plan.jobs[i].cut_index));
    EXPECT_EQ(plan.g_lane[i], curve.g(plan.jobs[i].cut_index));
  }
  EXPECT_EQ(plan.predicted_makespan,
            sched::flowshop2_makespan(plan.job_list()));
}

TEST(PlanSweep, BatchKernelBitIdenticalToScalar) {
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const double f_a = rng.uniform(0.0, 50.0);
    const double f_b = f_a + rng.uniform(0.0, 50.0);
    const int n_a = static_cast<int>(rng.uniform_int(0, 7));
    const int n_b = static_cast<int>(rng.uniform_int(0, 7));
    std::vector<double> g_a(9);
    std::vector<double> g_b(9);
    for (std::size_t s = 0; s < g_a.size(); ++s) {
      g_a[s] = rng.uniform(0.0, 80.0);
      g_b[s] = rng.uniform(0.0, g_a[s]);
    }
    std::vector<double> out(g_a.size());
    two_type_makespan_batch(f_a, g_a, f_b, g_b, n_a, n_b, out);
    for (std::size_t s = 0; s < out.size(); ++s) {
      EXPECT_EQ(out[s],
                two_type_makespan(f_a, g_a[s], f_b, g_b[s], n_a, n_b));
    }
  }
}

TEST(PlanSweep, BatchKernelRejectsMismatchedSpans) {
  std::vector<double> three(3, 1.0);
  std::vector<double> two(2, 1.0);
  EXPECT_THROW(two_type_makespan_batch(1.0, three, 1.0, two, 1, 1, three),
               std::invalid_argument);
  EXPECT_THROW(two_type_makespan_batch(1.0, three, 1.0, three, 1, 1, two),
               std::invalid_argument);
}

TEST(PlanSweep, ValidatesArguments) {
  util::Rng rng(23);
  const partition::ProfileCurve curve = random_curve(rng, false);
  const Planner planner(curve);
  const net::Channel channel(10.0);
  const std::vector<double> ok = {5.0};
  EXPECT_THROW(planner.plan_sweep(Strategy::kJPS, 0, ok, channel),
               std::invalid_argument);
  EXPECT_THROW(planner.plan_sweep(Strategy::kBruteForce, 4, ok, channel),
               std::invalid_argument);
  EXPECT_THROW(planner.plan_sweep(Strategy::kRobust, 4, ok, channel),
               std::invalid_argument);
  for (const double bad :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const std::vector<double> bandwidths = {5.0, bad};
    EXPECT_THROW(planner.plan_sweep(Strategy::kJPS, 4, bandwidths, channel),
                 std::invalid_argument)
        << "bandwidth " << bad;
  }

  const PlanSweep sweep = planner.plan_sweep(Strategy::kJPS, 4, ok, channel);
  EXPECT_THROW((void)planner.materialize(sweep, 1, channel),
               std::out_of_range);
}

TEST(PlanSweep, EmptyBandwidthListYieldsEmptySweep) {
  util::Rng rng(29);
  const Planner planner(random_curve(rng, false));
  const PlanSweep sweep = planner.plan_sweep(
      Strategy::kJPSTuned, 3, std::vector<double>{}, net::Channel(10.0));
  EXPECT_EQ(sweep.size(), 0u);
}

}  // namespace
}  // namespace jps::core
