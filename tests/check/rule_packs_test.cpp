// Unit tests for the individual rule packs over in-memory artifacts; the
// corpus golden test exercises the same rules end-to-end through files.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/lint_curve.h"
#include "check/lint_fault.h"
#include "check/lint_graph.h"
#include "check/lint_plan.h"
#include "dnn/layer.h"
#include "fault/fault_spec.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "profile/latency_model.h"

namespace jps::check {
namespace {

// ---------------------------------------------------------------- graph pack

TEST(LintGraph, EmptyGraphIsG001) {
  dnn::Graph g("empty");
  DiagnosticList out;
  lint_graph_structure(g, out);
  EXPECT_TRUE(out.has_code("G001"));
}

TEST(LintGraph, TwoInputsIsG002) {
  dnn::Graph g("two-inputs");
  const dnn::NodeId a = g.add(dnn::input(dnn::TensorShape::chw(1, 4, 4)));
  const dnn::NodeId b = g.add(dnn::input(dnn::TensorShape::chw(1, 4, 4)));
  (void)g.add(dnn::add(), {a, b});
  DiagnosticList out;
  lint_graph_structure(g, out);
  EXPECT_TRUE(out.has_code("G002"));
}

TEST(LintGraph, NonInputHeadIsG003AndG004) {
  dnn::Graph g("headless");
  (void)g.add(dnn::activation(dnn::ActivationKind::kReLU));
  DiagnosticList out;
  lint_graph_structure(g, out);
  EXPECT_TRUE(out.has_code("G003"));  // node 0 is not the input
  EXPECT_TRUE(out.has_code("G004"));  // non-input node without predecessors
}

TEST(LintGraph, TwoSinksIsG005) {
  dnn::Graph g("forked");
  const dnn::NodeId x = g.add(dnn::input(dnn::TensorShape::chw(1, 4, 4)));
  (void)g.add(dnn::activation(dnn::ActivationKind::kReLU), {x});
  (void)g.add(dnn::activation(dnn::ActivationKind::kReLU), {x});
  DiagnosticList out;
  lint_graph_structure(g, out);
  EXPECT_TRUE(out.has_code("G005"));
}

TEST(LintGraph, DisconnectedChainWarnsG007) {
  dnn::Graph g("islands");
  const dnn::NodeId x = g.add(dnn::input(dnn::TensorShape::chw(1, 4, 4)));
  (void)g.add(dnn::activation(dnn::ActivationKind::kReLU), {x});
  // Island: a chain with no route back to the input.
  const dnn::NodeId stray =
      g.add(dnn::activation(dnn::ActivationKind::kReLU));
  (void)g.add(dnn::activation(dnn::ActivationKind::kReLU), {stray});
  DiagnosticList out;
  lint_graph_structure(g, out);
  EXPECT_TRUE(out.has_code("G004"));  // the island's head
  EXPECT_TRUE(out.has_code("G007"));
  EXPECT_EQ(out.warning_count(), 2u);  // both island nodes are dead
}

TEST(LintGraph, ShapeMismatchIsG006) {
  dnn::Graph g("mismatch");
  const dnn::NodeId x = g.add(dnn::input(dnn::TensorShape::chw(3, 8, 8)));
  const dnn::NodeId thin = g.add(dnn::conv2d(1, 1, 1, 0), {x});
  (void)g.add(dnn::add(), {x, thin});  // 3x8x8 + 1x8x8 cannot broadcast
  DiagnosticList out;
  lint_graph(g, out);
  EXPECT_TRUE(out.has_code("G006"));
}

TEST(LintGraph, ZooModelsAreClean) {
  for (const std::string& name : models::all_names()) {
    const dnn::Graph g = models::build(name);
    DiagnosticList out;
    lint_graph(g, out);
    EXPECT_TRUE(out.empty()) << name << ": " << out.to_text();
  }
}

// ---------------------------------------------------------------- curve pack

partition::CutPoint cut_fg(double f, double g) {
  partition::CutPoint c;
  c.f = f;
  c.g = g;
  return c;
}

TEST(LintCurve, SingleCutIsC001) {
  const auto curve =
      partition::ProfileCurve::from_candidates("toy", {cut_fg(0.0, 0.0)});
  DiagnosticList out;
  lint_curve(curve, out);
  EXPECT_TRUE(out.has_code("C001"));
}

TEST(LintCurve, NegativeLatencyIsC002) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(0.0, 10.0), cut_fg(-5.0, 0.0)}, {.cluster = false});
  DiagnosticList out;
  lint_curve(curve, out);
  EXPECT_TRUE(out.has_code("C002"));
}

TEST(LintCurve, IncreasingGIsC004) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(0.0, 10.0), cut_fg(5.0, 20.0), cut_fg(9.0, 0.0)},
      {.cluster = false});
  DiagnosticList out;
  lint_curve(curve, out);
  EXPECT_TRUE(out.has_code("C004"));
}

TEST(LintCurve, WrongEndpointsAreC005) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(1.0, 10.0), cut_fg(5.0, 2.0)}, {.cluster = false});
  DiagnosticList out;
  lint_curve(curve, out);
  EXPECT_TRUE(out.has_code("C005"));
}

TEST(LintCurve, BuiltModelCurveIsClean) {
  const dnn::Graph g = models::build("alexnet");
  const profile::LatencyModel mobile(profile::DeviceProfile::raspberry_pi_4b());
  const auto curve =
      partition::ProfileCurve::build(g, mobile, net::Channel(5.85));
  DiagnosticList out;
  lint_curve(curve, out);
  EXPECT_TRUE(out.empty()) << out.to_text();
}

// ----------------------------------------------------------------- plan pack

core::ExecutionPlan one_job_plan(double f, double g, std::size_t cut) {
  core::ExecutionPlan plan;
  plan.model = "toy";
  plan.strategy = core::Strategy::kJPS;
  plan.comm_heavy_count = 0;
  core::JobAssignment a;
  a.job_id = 0;
  a.cut_index = cut;
  plan.jobs.push_back(a);
  plan.f_lane.push_back(f);
  plan.g_lane.push_back(g);
  plan.predicted_makespan = f + g;  // closed form for one job
  return plan;
}

TEST(LintPlan, CurveMismatchOnFIsX002) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(0.0, 100.0), cut_fg(50.0, 40.0), cut_fg(120.0, 0.0)});
  PlanLintContext context;
  context.curve = &curve;

  DiagnosticList clean;
  lint_plan(one_job_plan(50.0, 40.0, 1), clean, context);
  EXPECT_TRUE(clean.empty()) << clean.to_text();

  DiagnosticList out;
  lint_plan(one_job_plan(55.0, 40.0, 1), out, context);
  EXPECT_TRUE(out.has_code("X002"));
  EXPECT_TRUE(out.has_errors());
}

TEST(LintPlan, CurveMismatchOnGIsX003Warning) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(0.0, 100.0), cut_fg(50.0, 40.0), cut_fg(120.0, 0.0)});
  PlanLintContext context;
  context.curve = &curve;
  DiagnosticList out;
  lint_plan(one_job_plan(50.0, 45.0, 1), out, context);
  EXPECT_TRUE(out.has_code("X003"));
  EXPECT_FALSE(out.has_errors());  // g depends on bandwidth: warn, not reject
}

TEST(LintPlan, CutBeyondCurveIsP001) {
  const auto curve = partition::ProfileCurve::from_candidates(
      "toy", {cut_fg(0.0, 100.0), cut_fg(120.0, 0.0)});
  PlanLintContext context;
  context.curve = &curve;
  DiagnosticList out;
  lint_plan(one_job_plan(50.0, 40.0, 7), out, context);
  EXPECT_TRUE(out.has_code("P001"));
}

TEST(LintPlan, InconsistentArraysAreP007) {
  core::ExecutionPlan plan = one_job_plan(10.0, 5.0, 1);
  plan.g_lane.push_back(5.0);  // a g entry no job owns
  DiagnosticList out;
  lint_plan(plan, out);
  EXPECT_TRUE(out.has_code("P007"));
  plan.g_lane.clear();  // a job without its g entry
  DiagnosticList missing;
  lint_plan(plan, missing);
  EXPECT_TRUE(missing.has_code("P007"));
}

TEST(LintPlan, NonFiniteLatencyIsP002) {
  core::ExecutionPlan plan = one_job_plan(10.0, 5.0, 1);
  plan.g_lane[0] = std::numeric_limits<double>::quiet_NaN();
  DiagnosticList out;
  lint_plan(plan, out);
  EXPECT_TRUE(out.has_code("P002"));
}

// ---------------------------------------------------------------- fault pack

fault::FaultEvent event(fault::FaultKind kind, double start, double end,
                        double value = 0.0) {
  fault::FaultEvent e;
  e.kind = kind;
  e.start_ms = start;
  e.end_ms = end;
  e.value = value;
  return e;
}

TEST(LintFault, ReportsAllViolationsAtOnce) {
  fault::FaultSpec spec;
  spec.events.push_back(event(fault::FaultKind::kOutage, 0.0, 500.0));
  spec.events.push_back(event(fault::FaultKind::kOutage, 400.0, 800.0));
  spec.events.push_back(event(fault::FaultKind::kDrift, 0.0, 100.0, -3.0));
  spec.events.push_back(event(fault::FaultKind::kCloudSlow, 900.0, 100.0, 2.0));
  DiagnosticList out;
  lint_fault_spec(spec, out);
  EXPECT_TRUE(out.has_code("F003"));
  EXPECT_TRUE(out.has_code("F005"));
  EXPECT_TRUE(out.has_code("F004"));
  EXPECT_EQ(out.error_count(), 3u);
}

TEST(LintFault, DifferentKindsMayOverlap) {
  fault::FaultSpec spec;
  spec.events.push_back(event(fault::FaultKind::kOutage, 0.0, 500.0));
  spec.events.push_back(event(fault::FaultKind::kCloudSlow, 100.0, 400.0, 2.0));
  DiagnosticList out;
  lint_fault_spec(spec, out);
  EXPECT_TRUE(out.empty()) << out.to_text();
}

}  // namespace
}  // namespace jps::check
