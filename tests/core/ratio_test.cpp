#include "core/ratio.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/binary_search.h"
#include "profile/device.h"
#include "profile/latency_model.h"

namespace jps::core {
namespace {

partition::ProfileCurve curve_for(const std::string& model, double mbps) {
  static const profile::LatencyModel mobile(
      profile::DeviceProfile::raspberry_pi_4b());
  const dnn::Graph g = models::build(model);
  return partition::ProfileCurve::build(g, mobile, net::Channel(mbps));
}

TEST(RatioSweep, CoversAllSplits) {
  const auto curve = curve_for("resnet18", 10.0);
  const auto decision = partition::binary_search_cut(curve);
  ASSERT_TRUE(decision.l_minus.has_value());
  const auto sweep =
      sweep_type_ratio(curve, *decision.l_minus, decision.l_star, 20);
  ASSERT_EQ(sweep.size(), 19u);  // n_comm = 1..19
  for (const auto& p : sweep) {
    EXPECT_EQ(p.n_comm_heavy + p.n_comp_heavy, 20);
    EXPECT_GT(p.makespan, 0.0);
    EXPECT_NEAR(p.ratio,
                static_cast<double>(p.n_comp_heavy) /
                    static_cast<double>(p.n_comm_heavy),
                1e-12);
  }
}

TEST(RatioSweep, BestPointIsMinimum) {
  const auto curve = curve_for("resnet18", 10.0);
  const auto decision = partition::binary_search_cut(curve);
  ASSERT_TRUE(decision.l_minus.has_value());
  const auto sweep =
      sweep_type_ratio(curve, *decision.l_minus, decision.l_star, 50);
  const RatioPoint best = best_ratio(sweep);
  for (const auto& p : sweep) EXPECT_GE(p.makespan, best.makespan - 1e-12);
}

TEST(RatioSweep, OptimumBeatsNaiveFiftyFifty) {
  // Fig. 14's observation: the optimal ratio between the two job types is
  // usually not 1 — the balanced mix depends on the f/g gaps.
  const auto curve = curve_for("googlenet", 10.0);
  const auto decision = partition::binary_search_cut(curve);
  ASSERT_TRUE(decision.l_minus.has_value());
  const int n = 100;
  const auto sweep =
      sweep_type_ratio(curve, *decision.l_minus, decision.l_star, n);
  const RatioPoint best = best_ratio(sweep);
  const RatioPoint& half = sweep[static_cast<std::size_t>(n / 2 - 1)];
  EXPECT_LE(best.makespan, half.makespan);
}

TEST(RatioSweep, OptimumShiftsWithBandwidth) {
  // Fig. 14: "The optimal ratio shifts with bandwidth configurations."
  const auto curve9 = curve_for("resnet18", 9.0);
  const auto curve11 = curve_for("resnet18", 11.0);
  const auto d9 = partition::binary_search_cut(curve9);
  const auto d11 = partition::binary_search_cut(curve11);
  ASSERT_TRUE(d9.l_minus.has_value());
  ASSERT_TRUE(d11.l_minus.has_value());
  const auto b9 =
      best_ratio(sweep_type_ratio(curve9, *d9.l_minus, d9.l_star, 100));
  const auto b11 =
      best_ratio(sweep_type_ratio(curve11, *d11.l_minus, d11.l_star, 100));
  // Either the cut pair itself or the optimal mix must differ.
  const bool shifted = d9.l_star != d11.l_star ||
                       b9.n_comm_heavy != b11.n_comm_heavy;
  EXPECT_TRUE(shifted);
}

TEST(RatioSweep, AgreesWithJpsTunedPlanner) {
  const auto curve = curve_for("alexnet", 5.85);
  const Planner planner(curve);
  const auto decision = planner.decision();
  ASSERT_TRUE(decision.l_minus.has_value());
  const int n = 40;
  const auto sweep =
      sweep_type_ratio(curve, *decision.l_minus, decision.l_star, n);
  const RatioPoint best = best_ratio(sweep);
  const double tuned = planner.plan(Strategy::kJPSTuned, n).predicted_makespan;
  // kJPSTuned additionally tries the all-one-type splits, so <=.
  EXPECT_LE(tuned, best.makespan + 1e-9);
}

TEST(RatioSweep, Validation) {
  const auto curve = curve_for("alexnet", 5.85);
  EXPECT_THROW(sweep_type_ratio(curve, 0, curve.size(), 10),
               std::invalid_argument);
  EXPECT_THROW(sweep_type_ratio(curve, 0, 1, 1), std::invalid_argument);
}

TEST(RatioSweep, BestRatioRejectsEmptySweep) {
  // Previously returned a default point with makespan = inf and a zero job
  // mix, which silently propagated into reports.
  EXPECT_THROW((void)best_ratio({}), std::invalid_argument);
}

}  // namespace
}  // namespace jps::core
