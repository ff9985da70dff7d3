// Simulating plans whose cuts are SPREAD cut-sets (multiple tensors crossing
// the cut inside a branched module) — the general-structure path of Alg. 3 /
// Fig. 9(a) through the discrete-event executor.
#include <gtest/gtest.h>

#include "core/planner.h"
#include "dnn/layer.h"
#include "net/channel.h"
#include "partition/general_dag.h"
#include "profile/device.h"
#include "sched/makespan.h"
#include "sim/executor.h"

namespace jps::sim {
namespace {

using dnn::Graph;
using dnn::NodeId;
using dnn::TensorShape;

// Inception-style module whose branches REDUCE volume below even the raw
// network input, so spread cut-sets survive clustering: cutting after the
// two stride-2 reduce convs ships 2 x 4x48x48 = 18.4K elements vs the
// 3x96x96 = 27.6K-element input, at only slightly more local compute.
Graph make_reducing_module_net() {
  Graph g("reducing_module");
  NodeId x = g.add(dnn::input(TensorShape::chw(3, 96, 96)));
  x = g.add(dnn::conv2d(64, 3, 1, 1), {x});
  const NodeId entry = g.add(dnn::activation(dnn::ActivationKind::kReLU), {x});

  // Two branches, both reducing sharply (channels AND resolution) first.
  NodeId b1 = g.add(dnn::conv2d(4, 3, 2, 1), {entry});
  b1 = g.add(dnn::conv2d(16, 3, 1, 1), {b1});
  NodeId b2 = g.add(dnn::conv2d(4, 5, 2, 2), {entry});
  b2 = g.add(dnn::conv2d(16, 3, 1, 1), {b2});
  const NodeId join = g.add(dnn::concat(), {b1, b2});

  NodeId y = g.add(dnn::conv2d(64, 3, 2, 1), {join});
  y = g.add(dnn::global_avg_pool(), {y});
  y = g.add(dnn::flatten(), {y});
  (void)g.add(dnn::dense(10), {y});
  g.infer();
  return g;
}

struct SpreadTestbed {
  Graph graph = make_reducing_module_net();
  profile::LatencyModel mobile{profile::DeviceProfile::raspberry_pi_4b()};
  profile::LatencyModel cloud{profile::DeviceProfile::cloud_gtx1080()};
  // Fast enough that the f >= g crossing sits inside the module, where the
  // spread cuts live.
  net::Channel channel{50.0};

  partition::ProfileCurve general_curve() const {
    return partition::build_general_curve(
        graph,
        [&](NodeId id) { return mobile.node_time_ms(graph, id); },
        [&](std::uint64_t bytes) { return channel.time_ms(bytes); });
  }
};

TEST(SpreadCutExecutor, CurveContainsAMultiTensorCut) {
  const SpreadTestbed tb;
  const auto curve = tb.general_curve();
  bool has_spread = false;
  for (std::size_t i = 0; i < curve.size(); ++i)
    has_spread |= curve.cut(i).cut_nodes.size() > 1;
  ASSERT_TRUE(has_spread) << "fixture must produce a surviving spread cut";
}

TEST(SpreadCutExecutor, SimulationMatchesRecurrenceForEveryCut) {
  const SpreadTestbed tb;
  const auto curve = tb.general_curve();
  // Force every cut (incl. the spread ones) through the simulator as a
  // homogeneous 5-job plan and compare with the flow-shop recurrence.
  for (std::size_t c = 0; c < curve.size(); ++c) {
    core::ExecutionPlan plan;
    for (int j = 0; j < 5; ++j) {
      plan.jobs.push_back({j, c});
      plan.f_lane.push_back(curve.f(c));
      plan.g_lane.push_back(curve.g(c));
    }
    plan.predicted_makespan =
        sched::flowshop2_makespan(plan.f_lane, plan.g_lane);

    SimOptions options;
    options.include_cloud = false;
    util::Rng rng(1);
    const SimResult result = simulate_plan(tb.graph, curve, plan, tb.mobile,
                                           tb.cloud, tb.channel, options, rng);
    EXPECT_NEAR(result.makespan, plan.predicted_makespan,
                1e-6 * plan.predicted_makespan + 1e-6)
        << "cut " << c << " (" << curve.cut(c).label << ")";
  }
}

TEST(SpreadCutExecutor, CloudStageConsumesAllShippedTensors) {
  const SpreadTestbed tb;
  const auto curve = tb.general_curve();
  // Find a spread cut and run with the cloud stage on: every job must have
  // cloud work and completion must not precede its transfer.
  std::size_t spread_cut = 0;
  for (std::size_t i = 0; i < curve.size(); ++i)
    if (curve.cut(i).cut_nodes.size() > 1) spread_cut = i;
  ASSERT_GT(curve.cut(spread_cut).cut_nodes.size(), 1u);

  core::ExecutionPlan plan;
  for (int j = 0; j < 3; ++j) {
    plan.jobs.push_back({j, spread_cut});
    plan.f_lane.push_back(curve.f(spread_cut));
    plan.g_lane.push_back(curve.g(spread_cut));
  }

  util::Rng rng(2);
  const SimResult result = simulate_plan(tb.graph, curve, plan, tb.mobile,
                                         tb.cloud, tb.channel, {}, rng);
  for (const SimJobResult& job : result.jobs) {
    EXPECT_GT(job.cloud_end, 0.0);
    EXPECT_GE(job.cloud_start, job.comm_end - 1e-9);
    EXPECT_GE(job.comm_start, job.comp_end - 1e-9);
  }
}

TEST(SpreadCutExecutor, GeneralCurveStrictlyExtendsTrunkCurve) {
  // The surviving spread cut is a genuinely new non-dominated option: no
  // trunk cut matches its (f, g), and adding it can only help the planner.
  const SpreadTestbed tb;
  const auto trunk = partition::ProfileCurve::build(
      tb.graph,
      [&](NodeId id) { return tb.mobile.node_time_ms(tb.graph, id); },
      [&](std::uint64_t bytes) { return tb.channel.time_ms(bytes); });
  const auto general = tb.general_curve();
  EXPECT_GT(general.size(), trunk.size());

  for (std::size_t i = 0; i < general.size(); ++i) {
    if (general.cut(i).cut_nodes.size() <= 1) continue;  // trunk-style cut
    // The spread cut is not dominated by any trunk cut.
    for (std::size_t t = 0; t < trunk.size(); ++t) {
      EXPECT_FALSE(trunk.f(t) <= general.f(i) + 1e-9 &&
                   trunk.g(t) <= general.g(i) + 1e-9)
          << "spread cut " << i << " dominated by trunk cut " << t;
    }
  }

  const core::Planner trunk_planner(trunk);
  const core::Planner general_planner(general);
  EXPECT_LE(
      general_planner.plan(core::Strategy::kJPSHull, 20).predicted_makespan,
      trunk_planner.plan(core::Strategy::kJPSHull, 20).predicted_makespan +
          1e-6);
}

}  // namespace
}  // namespace jps::sim
