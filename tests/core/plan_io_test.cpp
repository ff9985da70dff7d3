#include "core/plan_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/makespan.h"

namespace jps::core {
namespace {

ExecutionPlan sample_plan(Strategy strategy = Strategy::kJPS) {
  static const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph g = models::build("alexnet");
  const auto curve =
      partition::ProfileCurve::build(g, mobile, net::Channel::preset_4g());
  const Planner planner(curve);
  return planner.plan(strategy, 9);
}

TEST(PlanIo, RoundTripPreservesEverything) {
  const ExecutionPlan plan = sample_plan();
  const ExecutionPlan parsed = deserialize_plan(serialize_plan(plan));
  EXPECT_EQ(parsed.model, plan.model);
  EXPECT_EQ(parsed.strategy, plan.strategy);
  EXPECT_EQ(parsed.comm_heavy_count, plan.comm_heavy_count);
  EXPECT_DOUBLE_EQ(parsed.predicted_makespan, plan.predicted_makespan);
  ASSERT_EQ(parsed.jobs.size(), plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_EQ(parsed.jobs[i], plan.jobs[i]);
    EXPECT_DOUBLE_EQ(parsed.f_lane[i], plan.f_lane[i]);
    EXPECT_DOUBLE_EQ(parsed.g_lane[i], plan.g_lane[i]);
  }
  // The reloaded stage lengths still reproduce the recorded makespan.
  EXPECT_NEAR(sched::flowshop2_makespan(parsed.job_list()),
              parsed.predicted_makespan, 1e-9);
}

TEST(PlanIo, EveryStrategyNameRoundTrips) {
  for (const Strategy s :
       {Strategy::kLocalOnly, Strategy::kCloudOnly, Strategy::kPartitionOnly,
        Strategy::kJPS, Strategy::kJPSTuned, Strategy::kJPSHull}) {
    const ExecutionPlan plan = sample_plan(s);
    EXPECT_EQ(deserialize_plan(serialize_plan(plan)).strategy, s);
  }
}

TEST(PlanIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/jps_plan_test.txt";
  const ExecutionPlan plan = sample_plan();
  save_plan(plan, path);
  const ExecutionPlan loaded = load_plan(path);
  EXPECT_EQ(loaded.jobs.size(), plan.jobs.size());
  std::remove(path.c_str());
}

TEST(PlanIo, RejectsMalformedInput) {
  EXPECT_THROW(deserialize_plan("not a plan"), std::runtime_error);
  EXPECT_THROW(deserialize_plan("jps-plan v1\n"), std::runtime_error);
  EXPECT_THROW(
      deserialize_plan("jps-plan v1\nmodel m\nstrategy JPS\njob x y z w\n"),
      std::runtime_error);
  EXPECT_THROW(deserialize_plan(
                   "jps-plan v1\nmodel m\nstrategy NOPE\njob 0 0 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(
      deserialize_plan("jps-plan v1\nmodel m\nstrategy JPS\nbogus 1\n"),
      std::runtime_error);
  EXPECT_THROW(load_plan("/nonexistent/plan.txt"), std::runtime_error);
}

}  // namespace
}  // namespace jps::core
