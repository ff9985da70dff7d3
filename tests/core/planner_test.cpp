#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>

#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/bruteforce.h"
#include "sched/johnson.h"
#include "sched/makespan.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace jps::core {
namespace {

partition::ProfileCurve curve_for(const std::string& model, double mbps) {
  static const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph g = models::build(model);
  return partition::ProfileCurve::build(g, mobile, net::Channel(mbps));
}

TEST(Planner, StrategyNames) {
  EXPECT_STREQ(strategy_name(Strategy::kLocalOnly), "LO");
  EXPECT_STREQ(strategy_name(Strategy::kCloudOnly), "CO");
  EXPECT_STREQ(strategy_name(Strategy::kPartitionOnly), "PO");
  EXPECT_STREQ(strategy_name(Strategy::kJPS), "JPS");
  EXPECT_STREQ(strategy_name(Strategy::kJPSTuned), "JPS*");
  EXPECT_STREQ(strategy_name(Strategy::kJPSHull), "JPS+");
  EXPECT_STREQ(strategy_name(Strategy::kBruteForce), "BF");
}

TEST(Planner, LocalOnlyUsesNoLink) {
  const Planner planner(curve_for("alexnet", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kLocalOnly, 10);
  ASSERT_EQ(plan.jobs.size(), 10u);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan.g_lane[i], 0.0);
    EXPECT_GT(plan.f_lane[i], 0.0);
  }
  // Makespan = n * full local time.
  EXPECT_NEAR(plan.predicted_makespan, 10.0 * plan.f_lane[0], 1e-6);
}

TEST(Planner, CloudOnlyComputesNothingLocally) {
  const Planner planner(curve_for("alexnet", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kCloudOnly, 10);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan.f_lane[i], 0.0);
    EXPECT_GT(plan.g_lane[i], 0.0);
  }
  EXPECT_NEAR(plan.predicted_makespan, 10.0 * plan.g_lane[0], 1e-6);
}

TEST(Planner, PartitionOnlyIsHomogeneousSingleJobOptimum) {
  const Planner planner(curve_for("alexnet", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kPartitionOnly, 7);
  const std::size_t cut = planner.single_job_optimal_cut();
  for (const auto& job : plan.jobs) EXPECT_EQ(job.cut_index, cut);
  // The PO cut minimizes f+g over the curve.
  const auto& curve = planner.curve();
  for (std::size_t i = 0; i < curve.size(); ++i)
    EXPECT_LE(curve.f(cut) + curve.g(cut), curve.f(i) + curve.g(i) + 1e-9);
}

TEST(Planner, JpsUsesAtMostTwoAdjacentCutTypes) {
  for (const auto& model : models::paper_eval_names()) {
    for (const double bw : {1.1, 5.85, 18.88}) {
      const Planner planner(curve_for(model, bw));
      const ExecutionPlan plan = planner.plan(Strategy::kJPS, 50);
      std::set<std::size_t> used;
      for (const auto& job : plan.jobs) used.insert(job.cut_index);
      EXPECT_LE(used.size(), 2u) << model << " " << bw;
      if (used.size() == 2) {
        EXPECT_EQ(*used.rbegin() - *used.begin(), 1u)
            << model << " " << bw << ": cut types must be adjacent";
      }
      // Every used cut is one of Alg. 2's pair (a huge ratio can legally
      // send all jobs to l*-1).
      const auto& d = planner.decision();
      for (const std::size_t cut : used) {
        EXPECT_TRUE(cut == d.l_star || (d.l_minus && cut == *d.l_minus))
            << model << " " << bw;
      }
    }
  }
}

TEST(Planner, DominanceJpsNeverWorseThanBaselines) {
  // The paper's headline claim, as an invariant: JPS* <= min(LO, CO, PO)
  // and JPS tracks JPS* closely.
  for (const auto& model : models::paper_eval_names()) {
    for (const double bw : {1.1, 5.85, 18.88}) {
      const Planner planner(curve_for(model, bw));
      const double lo = planner.plan(Strategy::kLocalOnly, 40).predicted_makespan;
      const double co = planner.plan(Strategy::kCloudOnly, 40).predicted_makespan;
      const double po =
          planner.plan(Strategy::kPartitionOnly, 40).predicted_makespan;
      const double jps = planner.plan(Strategy::kJPS, 40).predicted_makespan;
      const double tuned =
          planner.plan(Strategy::kJPSTuned, 40).predicted_makespan;
      EXPECT_LE(tuned, lo + 1e-6) << model << " " << bw;
      EXPECT_LE(tuned, co + 1e-6) << model << " " << bw;
      EXPECT_LE(tuned, po + 1e-6) << model << " " << bw;
      EXPECT_LE(tuned, jps + 1e-6) << model << " " << bw;
      EXPECT_LE(jps, 1.2 * tuned) << model << " " << bw;
    }
  }
}

TEST(Planner, JpsMatchesBruteForce) {
  // With the exact split sweep, the two-cut JPS should reach the BF optimum
  // on real curves (Fig. 11's finding).
  for (const auto& model : models::paper_eval_names()) {
    for (const double bw : {1.1, 5.85, 18.88}) {
      const Planner planner(curve_for(model, bw));
      const double bf = planner.plan(Strategy::kBruteForce, 12).predicted_makespan;
      const double tuned =
          planner.plan(Strategy::kJPSTuned, 12).predicted_makespan;
      const double hull =
          planner.plan(Strategy::kJPSHull, 12).predicted_makespan;
      EXPECT_LE(bf, tuned + 1e-9) << model << " " << bw;
      EXPECT_LE(bf, hull + 1e-9) << model << " " << bw;
      // The hull pair is the optimal two-type mix up to Prop. 4.1 boundary
      // terms, which are O(1/n): at n=12 allow 12.5%.
      EXPECT_LE(hull, bf * (1.0 + 1.5 / 12.0)) << model << " " << bw;
    }
  }
}

TEST(Planner, ScheduledOrderIsJohnson) {
  const Planner planner(curve_for("alexnet", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kJPS, 30);
  // S1 (f < g) first, ascending f; then S2, descending g.
  for (std::size_t i = 0; i < plan.comm_heavy_count; ++i) {
    EXPECT_LT(plan.f_lane[i], plan.g_lane[i]);
    if (i > 0) {
      EXPECT_GE(plan.f_lane[i], plan.f_lane[i - 1]);
    }
  }
  for (std::size_t i = plan.comm_heavy_count; i < plan.jobs.size(); ++i) {
    EXPECT_GE(plan.f_lane[i], plan.g_lane[i]);
    if (i > plan.comm_heavy_count) {
      EXPECT_LE(plan.g_lane[i], plan.g_lane[i - 1]);
    }
  }
}

TEST(Planner, TimelineConsistentWithMakespan) {
  const Planner planner(curve_for("resnet18", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kJPS, 15);
  const auto timeline = plan.timeline();
  double max_completion = 0.0;
  for (const auto& t : timeline)
    max_completion = std::max(max_completion, t.completion());
  EXPECT_NEAR(max_completion, plan.predicted_makespan, 1e-9);
  EXPECT_NEAR(plan.makespan_per_job(), plan.predicted_makespan / 15.0, 1e-9);
}

TEST(Planner, OverheadIsRecordedAndSmall) {
  const Planner planner(curve_for("alexnet", 5.85));
  const ExecutionPlan plan = planner.plan(Strategy::kJPS, 100);
  EXPECT_GE(plan.decision_overhead_ms, 0.0);
  // Fig. 12(d): planning overhead is negligible vs inference times (~ms).
  EXPECT_LT(plan.decision_overhead_ms, 50.0);
}

TEST(Planner, RejectsBadJobCounts) {
  const Planner planner(curve_for("alexnet", 5.85));
  EXPECT_THROW(planner.plan(Strategy::kJPS, 0), std::invalid_argument);
  EXPECT_THROW(planner.plan(Strategy::kJPS, -3), std::invalid_argument);
}

TEST(Planner, SingleJobPlansWork) {
  const Planner planner(curve_for("mobilenet_v2", 5.85));
  for (const Strategy s :
       {Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
        Strategy::kJPS, Strategy::kJPSTuned, Strategy::kJPSHull,
        Strategy::kBruteForce}) {
    const ExecutionPlan plan = planner.plan(s, 1);
    EXPECT_EQ(plan.jobs.size(), 1u);
    EXPECT_GT(plan.predicted_makespan, 0.0);
  }
}

// Reference evaluation of one split: n_a jobs at cut a, the rest at cut b,
// Johnson order, sequential flow-shop recurrence.
double brute_split_makespan(const partition::ProfileCurve& curve,
                            std::size_t a, std::size_t b, int n_a, int n) {
  sched::JobList jobs;
  for (int i = 0; i < n; ++i) {
    const std::size_t cut = i < n_a ? a : b;
    jobs.push_back(sched::Job{.id = i,
                              .cut = static_cast<int>(cut),
                              .f = curve.f(cut),
                              .g = curve.g(cut)});
  }
  const sched::JohnsonSchedule schedule = sched::johnson_order(jobs);
  return sched::flowshop2_makespan(sched::apply_order(jobs, schedule.order));
}

// Random monotone curve: f strictly ascending from 0, g strictly descending
// to 0 — the shape clustering guarantees, with comm-heavy and comp-heavy
// cuts both present.
partition::ProfileCurve random_curve(util::Rng& rng, int k) {
  std::vector<double> fs{0.0};
  std::vector<double> gs;
  for (int i = 0; i < k - 1; ++i) {
    fs.push_back(rng.uniform(0.5, 100.0));
    gs.push_back(rng.uniform(0.5, 100.0));
  }
  std::sort(fs.begin(), fs.end());
  std::sort(gs.begin(), gs.end(), std::greater<>());
  gs.push_back(0.0);
  std::vector<partition::CutPoint> cuts(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    cuts[i].f = fs[i];
    cuts[i].g = gs[i];
    cuts[i].offload_bytes = i + 1 == cuts.size() ? 0 : 1000;
  }
  return partition::ProfileCurve::from_candidates("random", std::move(cuts));
}

TEST(Planner, TwoTypeMakespanMatchesFlowshopRecurrence) {
  util::Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    const double f_a = rng.uniform(0.0, 20.0);
    const double f_b = f_a + rng.uniform(0.0, 20.0);
    const double g_b = rng.uniform(0.0, 20.0);
    const double g_a = g_b + rng.uniform(0.0, 20.0);
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    const int n_a = static_cast<int>(rng.uniform_int(0, n));
    sched::JobList jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back(sched::Job{.id = i,
                                .cut = i < n_a ? 0 : 1,
                                .f = i < n_a ? f_a : f_b,
                                .g = i < n_a ? g_a : g_b});
    }
    const double reference = sched::flowshop2_makespan(jobs);
    const double closed =
        two_type_makespan(f_a, g_a, f_b, g_b, n_a, n - n_a);
    EXPECT_NEAR(closed, reference, 1e-9 * std::max(1.0, reference))
        << "n=" << n << " n_a=" << n_a;
  }
}

TEST(Planner, TwoTypeMakespanIgnoresEmptyRuns) {
  // Regression: with n_a == 0 the a-run contributes nothing, so its f/g
  // values must not leak into the result.  Pre-fix, f_a = inf produced
  // 0 * inf = NaN inside the endpoint terms and std::max propagated the
  // -inf seed instead of the pure-b makespan.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(two_type_makespan(inf, inf, 1.0, 1.0, 0, 3), 4.0);
  EXPECT_EQ(two_type_makespan(1.0, 1.0, inf, inf, 3, 0), 4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(two_type_makespan(nan, nan, 2.0, 3.0, 0, 2), 2.0 + 2 * 3.0);
  EXPECT_EQ(two_type_makespan(2.0, 3.0, nan, nan, 2, 0), 2.0 + 2 * 3.0);
  // Both runs empty: an empty schedule takes no time.
  EXPECT_EQ(two_type_makespan(inf, inf, inf, inf, 0, 0), 0.0);
  EXPECT_EQ(two_type_makespan(5.0, 7.0, 11.0, 13.0, 0, 0), 0.0);
  // Negative counts behave like empty runs, not like negative work.
  EXPECT_EQ(two_type_makespan(inf, inf, 1.0, 1.0, -2, 3), 4.0);
  EXPECT_EQ(two_type_makespan(5.0, 7.0, 11.0, 13.0, -1, -1), 0.0);
}

TEST(Planner, TwoTypeMakespanExhaustiveSmallCounts) {
  // Every (n_a, n_b) in 0..6 x 0..6 against the exact two-run flowshop
  // recurrence.  Integer-valued stage times keep all sums exact in FP, so
  // the comparison is bitwise.
  const double grid[][4] = {
      {1.0, 4.0, 3.0, 2.0},  {0.0, 5.0, 2.0, 0.0},  {3.0, 3.0, 3.0, 3.0},
      {0.0, 0.0, 7.0, 1.0},  {2.0, 9.0, 6.0, 4.0},  {8.0, 1.0, 10.0, 0.0},
  };
  for (const auto& p : grid) {
    const double f_a = p[0], g_a = p[1], f_b = p[2], g_b = p[3];
    for (int n_a = 0; n_a <= 6; ++n_a) {
      for (int n_b = 0; n_b <= 6; ++n_b) {
        const double expected =
            sched::two_type_flowshop2_makespan(f_a, g_a, n_a, f_b, g_b, n_b);
        EXPECT_EQ(two_type_makespan(f_a, g_a, f_b, g_b, n_a, n_b), expected)
            << "f_a=" << f_a << " g_a=" << g_a << " f_b=" << f_b
            << " g_b=" << g_b << " n_a=" << n_a << " n_b=" << n_b;
      }
    }
  }
}

TEST(Planner, TwoTypeMakespanBatchHandlesEmptyRuns) {
  // The batched kernel shares the guard: empty runs contribute nothing,
  // and a fully empty schedule fills the output with zeros.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> g_a = {inf, inf, inf};
  const std::vector<double> g_b = {1.0, 2.0, 3.0};
  std::vector<double> out(3, -1.0);
  two_type_makespan_batch(inf, g_a, 1.0, g_b, 0, 3, out);
  for (std::size_t s = 0; s < out.size(); ++s) {
    EXPECT_EQ(out[s], two_type_makespan(inf, inf, 1.0, g_b[s], 0, 3)) << s;
  }
  two_type_makespan_batch(inf, g_a, 1.0, g_b, 0, 0, out);
  for (const double ms : out) EXPECT_EQ(ms, 0.0);
}

TEST(Planner, IncrementalSplitSweepMatchesBruteSweepOnRandomCurves) {
  // The planner's split must be exactly the one a scan that assembles and
  // evaluates every split picks, and the plan must carry its makespan.
  util::Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    const partition::ProfileCurve curve =
        random_curve(rng, 4 + static_cast<int>(rng.uniform_int(0, 20)));
    const Planner planner(curve);
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    for (const Strategy strategy : {Strategy::kJPSTuned, Strategy::kJPSHull}) {
      // Recover the mixing pair the planner uses for this strategy.
      std::size_t a = 0;
      std::size_t b = 0;
      if (strategy == Strategy::kJPSTuned) {
        if (!planner.decision().l_minus) continue;
        a = *planner.decision().l_minus;
        b = planner.decision().l_star;
      } else {
        const std::vector<std::size_t> hull = planner.lower_hull_cuts();
        std::size_t pos = hull.size() - 1;
        for (std::size_t i = 0; i < hull.size(); ++i) {
          if (curve.f(hull[i]) >= curve.g(hull[i])) {
            pos = i;
            break;
          }
        }
        if (pos == 0) continue;
        a = hull[pos - 1];
        b = hull[pos];
      }

      int best_n_a = 0;
      double best_makespan = std::numeric_limits<double>::infinity();
      for (int n_a = 0; n_a <= n; ++n_a) {
        const double ms = brute_split_makespan(curve, a, b, n_a, n);
        if (ms < best_makespan) {
          best_makespan = ms;
          best_n_a = n_a;
        }
      }

      const ExecutionPlan plan = planner.plan(strategy, n);
      EXPECT_DOUBLE_EQ(plan.predicted_makespan, best_makespan)
          << strategy_name(strategy) << " round " << round << " n=" << n;
      const auto at_a = std::count_if(
          plan.jobs.begin(), plan.jobs.end(),
          [&](const JobAssignment& j) { return j.cut_index == a; });
      const auto at_b = std::count_if(
          plan.jobs.begin(), plan.jobs.end(),
          [&](const JobAssignment& j) { return j.cut_index == b; });
      EXPECT_EQ(at_a, best_n_a) << strategy_name(strategy) << " round "
                                << round << " n=" << n;
      EXPECT_EQ(at_a + at_b, n);
    }
  }
}

// Replay a plan's scheduled job sequence on the discrete-event simulator:
// per job a compute task on the mobile CPU then a transfer on the uplink,
// submitted in schedule order (FIFO resources reproduce the 2-stage
// permutation flow shop the planner optimizes over).
double simulated_plan_makespan(const ExecutionPlan& plan) {
  sim::EventSimulator sim;
  const sim::ResourceId cpu = sim.add_resource("mobile_cpu");
  const sim::ResourceId link = sim.add_resource("uplink");
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const sim::TaskId comp = sim.add_task(cpu, plan.f_lane[i], {});
    sim.add_task(link, plan.g_lane[i], {comp});
  }
  sim.run();
  return sim.makespan();
}

TEST(Planner, PredictedMakespanMatchesEventSimulatorOnRandomCurves) {
  // Differential check of every strategy against an oracle that shares no
  // code with the analytic makespan path: whatever split and order the
  // planner chose, actually executing it must take exactly the predicted
  // time.  This is the test shape that catches bugs like the closed-form
  // k-endpoint truncation (see sched::closed_form_makespan).
  util::Rng rng(29);
  for (int round = 0; round < 25; ++round) {
    const partition::ProfileCurve curve =
        random_curve(rng, 3 + static_cast<int>(rng.uniform_int(0, 12)));
    const Planner planner(curve);
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    for (const Strategy strategy :
         {Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
          Strategy::kJPS, Strategy::kJPSTuned, Strategy::kJPSHull,
          Strategy::kBruteForce}) {
      const ExecutionPlan plan = planner.plan(strategy, n);
      const double simulated = simulated_plan_makespan(plan);
      EXPECT_NEAR(plan.predicted_makespan, simulated,
                  1e-9 * std::max(1.0, simulated))
          << strategy_name(strategy) << " round " << round << " n=" << n;
    }
  }
}

TEST(Planner, PredictedMakespanMatchesEventSimulatorOnRealCurves) {
  for (const auto& model : models::paper_eval_names()) {
    const Planner planner(curve_for(model, 5.85));
    for (const Strategy strategy :
         {Strategy::kJPS, Strategy::kJPSTuned, Strategy::kJPSHull}) {
      const ExecutionPlan plan = planner.plan(strategy, 24);
      const double simulated = simulated_plan_makespan(plan);
      EXPECT_NEAR(plan.predicted_makespan, simulated,
                  1e-9 * std::max(1.0, simulated))
          << model << " " << strategy_name(strategy);
    }
  }
}

TEST(Planner, BruteForceFallsBackToTwoTypeAtScale) {
  // n = 300 over a real curve exceeds the planner's exact-enumeration cap
  // of 2'000'000 multisets, so exact BF refuses it; the BF strategy must
  // silently fall back and still return a consistent plan.
  const partition::ProfileCurve curve = curve_for("alexnet", 5.85);
  EXPECT_THROW(
      (void)sched::bruteforce_exact(curve.as_cut_options(), 300, 2'000'000),
      std::invalid_argument);
  const Planner planner(curve);
  const ExecutionPlan plan = planner.plan(Strategy::kBruteForce, 300);
  EXPECT_EQ(plan.jobs.size(), 300u);
  const double tuned =
      planner.plan(Strategy::kJPSTuned, 300).predicted_makespan;
  EXPECT_LE(plan.predicted_makespan, tuned + 1e-6);
}

// Orientation of c against the directed edge a -> b in the (f, g) plane:
// > 0 when c lies to the left of (above, for an edge going right) the edge.
double orientation(const partition::ProfileCurve& curve, std::size_t a,
                   std::size_t b, std::size_t c) {
  return (curve.f(b) - curve.f(a)) * (curve.g(c) - curve.g(a)) -
         (curve.g(b) - curve.g(a)) * (curve.f(c) - curve.f(a));
}

// Monotone curve with integer coordinates in [0, range]: a small range
// forces duplicate f values, duplicate points and collinear runs, and every
// orientation below is computed exactly.
partition::ProfileCurve integer_curve(util::Rng& rng, int k, int range) {
  std::vector<double> fs;
  std::vector<double> gs;
  for (int i = 0; i < k; ++i) {
    fs.push_back(static_cast<double>(rng.uniform_int(0, range)));
    gs.push_back(static_cast<double>(rng.uniform_int(0, range)));
  }
  std::sort(fs.begin(), fs.end());
  std::sort(gs.begin(), gs.end(), std::greater<>());
  std::vector<partition::CutPoint> cuts(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    cuts[i].f = fs[i];
    cuts[i].g = gs[i];
  }
  return partition::ProfileCurve::from_candidates(
      "hull", std::move(cuts), partition::CurveOptions{.cluster = false});
}

// Points on one line with equal steps: every interior cut is collinear.
partition::ProfileCurve collinear_curve(int k, double df, double dg) {
  std::vector<partition::CutPoint> cuts(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    cuts[i].f = df * static_cast<double>(i);
    cuts[i].g = dg * static_cast<double>(cuts.size() - 1 - i);
  }
  return partition::ProfileCurve::from_candidates(
      "line", std::move(cuts), partition::CurveOptions{.cluster = false});
}

// The lower hull by its defining geometry, not by construction: a chain from
// the first cut to the last, ascending, turning strictly left at every
// interior vertex, with no cut below it.  A convex chain is the maximum of
// its edges' lines, so "on or above the polyline" is "on or left of every
// edge".
void expect_lower_hull(const partition::ProfileCurve& curve,
                       const std::string& label) {
  const std::vector<std::size_t> hull = Planner(curve).lower_hull_cuts();
  ASSERT_FALSE(hull.empty()) << label;
  EXPECT_EQ(hull.front(), 0u) << label;
  EXPECT_EQ(hull.back(), curve.size() - 1) << label;
  for (std::size_t j = 1; j < hull.size(); ++j)
    EXPECT_LT(hull[j - 1], hull[j]) << label << " vertex " << j;
  for (std::size_t j = 1; j + 1 < hull.size(); ++j) {
    EXPECT_GT(orientation(curve, hull[j - 1], hull[j], hull[j + 1]), 0.0)
        << label << " vertex " << j;
  }
  for (std::size_t j = 0; j + 1 < hull.size(); ++j) {
    for (std::size_t i = 0; i < curve.size(); ++i) {
      EXPECT_GE(orientation(curve, hull[j], hull[j + 1], i), 0.0)
          << label << " cut " << i << " below edge " << j;
    }
  }
}

TEST(Planner, LowerHullCutsIsTheLowerHullOnRandomCurves) {
  util::Rng rng(31);
  for (int round = 0; round < 400; ++round) {
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const int range = round % 2 == 0 ? 4 : 1'000'000;
    expect_lower_hull(integer_curve(rng, k, range),
                      "round " + std::to_string(round));
  }
  for (int k = 1; k <= 6; ++k) {
    expect_lower_hull(collinear_curve(k, 2.0, 3.0), "line k=" + std::to_string(k));
    expect_lower_hull(collinear_curve(k, 0.0, 1.0), "f-ties k=" + std::to_string(k));
    expect_lower_hull(collinear_curve(k, 1.0, 0.0), "g-ties k=" + std::to_string(k));
  }
  // A collinear run is collapsed to its ends: only two vertices remain.
  EXPECT_EQ(Planner(collinear_curve(5, 2.0, 3.0)).lower_hull_cuts(),
            (std::vector<std::size_t>{0, 4}));
}

TEST(Planner, PartitionOnlyTakesTheFirstLatencyMinimum) {
  // Small integer coordinates make latency ties common; the PO cut is the
  // lowest-index minimum of f + g, the one std::min_element finds.
  util::Rng rng(37);
  for (int round = 0; round < 200; ++round) {
    const partition::ProfileCurve curve =
        integer_curve(rng, 1 + static_cast<int>(rng.uniform_int(0, 9)), 4);
    std::vector<double> latency;
    for (std::size_t i = 0; i < curve.size(); ++i)
      latency.push_back(curve.f(i) + curve.g(i));
    const auto first = static_cast<std::size_t>(
        std::min_element(latency.begin(), latency.end()) - latency.begin());
    const Planner planner(curve);
    EXPECT_EQ(planner.single_job_optimal_cut(), first) << "round " << round;
    for (const JobAssignment& job :
         planner.plan(Strategy::kPartitionOnly, 3).jobs)
      EXPECT_EQ(job.cut_index, first) << "round " << round;
  }
}

TEST(Planner, JpsRoundsTheTheoremBalance) {
  // l* = 2, surplus s = f(2) - g(2) = 4, deficit d = g(1) - f(1) = 1: JPS
  // puts n·s/(s+d) = 0.8·n jobs at l*-1, rounded to the nearest count.
  const double fg[][2] = {{0.0, 4.0}, {1.0, 2.0}, {5.0, 1.0}, {9.0, 0.0}};
  std::vector<partition::CutPoint> cuts;
  for (const auto& p : fg) {
    cuts.emplace_back();
    cuts.back().f = p[0];
    cuts.back().g = p[1];
  }
  const Planner planner(
      partition::ProfileCurve::from_candidates("balance", std::move(cuts)));
  ASSERT_EQ(planner.decision().l_star, 2u);
  for (const auto& [n, at_l_minus] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 3}, std::pair{7, 6}}) {
    const ExecutionPlan plan = planner.plan(Strategy::kJPS, n);
    EXPECT_EQ(std::count_if(plan.jobs.begin(), plan.jobs.end(),
                            [](const JobAssignment& j) {
                              return j.cut_index == 1;
                            }),
              at_l_minus)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace jps::core
