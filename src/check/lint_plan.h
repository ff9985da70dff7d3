// Plan rule pack (P codes) — parse-level and semantic admission rules for
// "jps-plan v1" artifacts, plus the cross-artifact plan-vs-curve rules
// (X002/X003).  core::deserialize_plan routes through both packs, so a plan
// that loads at runtime and a plan that passes `jps_lint` are the same set.
//
// Semantic rules (in-memory ExecutionPlan):
//   P001  cut index out of range for the model/curve bound
//   P002  non-finite or negative stage latency
//   P003  comm_heavy_count exceeds the job count
//   P004  scheduled order is not makespan-optimal (violates Johnson's rule)
//   P005  recorded makespan does not reproduce the closed-form flow-shop
//         identity of the recorded order
//   P006  duplicate job ids
//   P007  jobs[], f_lane and g_lane disagree in size
//   P008  (warning) order or S1 split deviates from the canonical Johnson
//         tie-break without changing the makespan
//
// Parse rules (text artifact):
//   P010  bad or missing header / unknown version string
//   P011  malformed line (bad field, bad number, trailing fields)
//   P012  unknown strategy name
//   P013  unknown key
//   P014  duplicate scalar key
//   P015  incomplete plan (missing model/strategy or no jobs)
//
// Cross-artifact rules (with a resolved ProfileCurve):
//   X002  plan f latencies disagree with the curve at the claimed cut
//   X003  (warning) plan g latencies disagree with the curve at the claimed
//         cut (g depends on the channel, so this fires only against the
//         bandwidth the caller chose to check)
#pragma once

#include <optional>

#include "check/diagnostics.h"
#include "core/plan.h"
#include "partition/profile_curve.h"

namespace jps::check {

/// Optional context that unlocks the bound and cross-artifact rules.
struct PlanLintContext {
  /// Exclusive upper bound on cut indices (e.g. graph size + 1 when only
  /// the model is known, or curve->size() when a curve is resolved).
  std::optional<std::size_t> cut_bound;
  /// Curve the plan claims to be planned against; enables X002/X003 and
  /// tightens P001 to the exact curve size.
  const partition::ProfileCurve* curve = nullptr;
  /// Relative tolerance for latency and makespan comparisons.
  double tolerance = 1e-6;
};

/// Run the semantic rules over an in-memory plan.
void lint_plan(const core::ExecutionPlan& plan, DiagnosticList& out,
               const PlanLintContext& context = {});

/// Parse the "jps-plan v1" text format, reporting P010-P015 instead of
/// throwing.  Returns the plan when the text was structurally recoverable
/// (diagnostics may still hold errors); nullopt when nothing useful could
/// be extracted.  Does NOT run the semantic rules.
[[nodiscard]] std::optional<core::ExecutionPlan> parse_plan_text(
    const std::string& text, DiagnosticList& out);

}  // namespace jps::check
