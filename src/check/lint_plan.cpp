#include "check/lint_plan.h"

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "sched/johnson.h"
#include "sched/makespan.h"
#include "util/strings.h"

namespace jps::check {

namespace {

constexpr const char* kHeader = "jps-plan v1";
constexpr const char* kHeaderPrefix = "jps-plan";

std::string job_loc(std::size_t i) { return "job " + std::to_string(i); }

std::string line_loc(std::size_t line_no) {
  return "line " + std::to_string(line_no);
}

bool close(double a, double b, double tolerance) {
  return std::abs(a - b) <=
         tolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

std::optional<core::Strategy> strategy_from_name(const std::string& name) {
  for (const core::Strategy s :
       {core::Strategy::kLocalOnly, core::Strategy::kCloudOnly,
        core::Strategy::kPartitionOnly, core::Strategy::kJPS,
        core::Strategy::kJPSTuned, core::Strategy::kJPSHull,
        core::Strategy::kBruteForce, core::Strategy::kRobust}) {
    if (name == core::strategy_name(s)) return s;
  }
  return std::nullopt;
}

// P007: every job needs its stage lengths before any rule can reason about
// "the job at position i".
bool lint_consistency(const core::ExecutionPlan& plan, DiagnosticList& out) {
  if (plan.f_lane.size() == plan.jobs.size() &&
      plan.g_lane.size() == plan.jobs.size())
    return true;
  out.error("P007", {},
            "jobs[] has " + std::to_string(plan.jobs.size()) +
                " entries but f_lane has " +
                std::to_string(plan.f_lane.size()) + " and g_lane has " +
                std::to_string(plan.g_lane.size()));
  return false;
}

void lint_against_curve(const core::ExecutionPlan& plan,
                        const partition::ProfileCurve& curve,
                        double tolerance, DiagnosticList& out) {
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const std::size_t cut = plan.jobs[i].cut_index;
    if (cut >= curve.size()) continue;  // P001 already reported
    const double f = plan.f_lane[i];
    const double g = plan.g_lane[i];
    if (!close(f, curve.f(cut), tolerance))
      out.error("X002", job_loc(i),
                "f = " + std::to_string(f) + " ms but the curve has f = " +
                    std::to_string(curve.f(cut)) + " ms at cut " +
                    std::to_string(cut));
    if (!close(g, curve.g(cut), tolerance))
      out.warning("X003", job_loc(i),
                  "g = " + std::to_string(g) +
                      " ms but the curve has g = " +
                      std::to_string(curve.g(cut)) + " ms at cut " +
                      std::to_string(cut) +
                      " (bandwidth mismatch with the checked channel?)");
  }
}

}  // namespace

void lint_plan(const core::ExecutionPlan& plan, DiagnosticList& out,
               const PlanLintContext& context) {
  if (plan.jobs.empty()) {
    out.error("P015", {}, "plan schedules no jobs");
    return;
  }
  if (!lint_consistency(plan, out)) return;

  bool latencies_ok = true;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const double f = plan.f_lane[i];
    const double g = plan.g_lane[i];
    const auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
    if (bad(f) || bad(g)) {
      out.error("P002", job_loc(i),
                "stage latencies must be finite and non-negative (f=" +
                    std::to_string(f) + ", g=" + std::to_string(g) + ")");
      latencies_ok = false;
    }
  }

  std::size_t cut_bound = context.cut_bound.value_or(0);
  if (context.curve != nullptr) cut_bound = context.curve->size();
  if (cut_bound > 0) {
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
      if (plan.jobs[i].cut_index >= cut_bound)
        out.error("P001", job_loc(i),
                  "cut index " + std::to_string(plan.jobs[i].cut_index) +
                      " out of range; model has " + std::to_string(cut_bound) +
                      " candidate cuts");
    }
  }

  if (plan.comm_heavy_count > plan.jobs.size())
    out.error("P003", {},
              "comm_heavy_count " + std::to_string(plan.comm_heavy_count) +
                  " exceeds the " + std::to_string(plan.jobs.size()) +
                  "-job schedule");

  std::set<int> seen_ids;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (!seen_ids.insert(plan.jobs[i].job_id).second)
      out.error("P006", job_loc(i),
                "duplicate job id " + std::to_string(plan.jobs[i].job_id));
  }

  if (!latencies_ok) return;  // order/makespan math needs sane numbers

  // P005: the recorded makespan must reproduce the closed-form flow-shop
  // identity of the recorded order (the §4 endpoint identity).
  const double identity =
      sched::closed_form_makespan(plan.f_lane, plan.g_lane);
  if (!close(plan.predicted_makespan, identity, context.tolerance))
    out.error("P005", {},
              "recorded makespan " + std::to_string(plan.predicted_makespan) +
                  " ms does not reproduce the closed-form identity " +
                  std::to_string(identity) + " ms of the recorded order");

  // P004/P008: the offloaded set must be in Johnson order.  Makespan is the
  // ground truth (Johnson minimizes it); pure tie permutations and S1-split
  // label drift that leave the makespan unchanged only warn.
  const sched::JobList scheduled = plan.job_list();
  const sched::JohnsonSchedule canonical = sched::johnson_order(scheduled);
  const double best = sched::closed_form_makespan(
      sched::apply_order(scheduled, canonical.order));
  if (identity > best &&
      !close(identity, best, context.tolerance)) {
    out.error("P004", {},
              "scheduled order has makespan " + std::to_string(identity) +
                  " ms but Johnson order achieves " + std::to_string(best) +
                  " ms; offloaded jobs must follow Johnson's rule");
  } else {
    bool same_sequence = canonical.comm_heavy_count == plan.comm_heavy_count;
    for (std::size_t i = 0; same_sequence && i < canonical.order.size(); ++i)
      same_sequence = canonical.order[i] == i;
    if (!same_sequence)
      out.warning("P008", {},
                  "order or S1 split deviates from the canonical Johnson "
                  "tie-break (makespan unaffected)");
  }

  if (context.curve != nullptr)
    lint_against_curve(plan, *context.curve, context.tolerance, out);
}

std::optional<core::ExecutionPlan> parse_plan_text(const std::string& text,
                                                   DiagnosticList& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) {
    out.error("P010", line_loc(1), "empty input; expected 'jps-plan v1'");
    return std::nullopt;
  }
  const std::string header{util::trim(line)};
  if (header != kHeader) {
    const bool versioned = util::starts_with(header, kHeaderPrefix);
    out.error("P010", line_loc(1),
              versioned
                  ? "unsupported version '" + header + "'; expected '" +
                        kHeader + "'"
                  : "bad header '" + header + "'; expected '" + kHeader + "'");
    if (!versioned) return std::nullopt;  // not a plan artifact at all
  }

  core::ExecutionPlan plan;
  bool have_model = false;
  bool have_strategy = false;
  bool have_comm_heavy = false;
  bool have_makespan = false;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string trimmed{util::trim(line)};
    if (trimmed.empty()) continue;
    std::istringstream fields(trimmed);
    std::string key;
    fields >> key;
    const auto require_done = [&] {
      std::string extra;
      if (fields >> extra)
        out.error("P011", line_loc(line_no),
                  "trailing fields after '" + key + "' entry");
    };
    if (key == "model") {
      if (have_model)
        out.error("P014", line_loc(line_no), "duplicate 'model' key");
      if (!(fields >> plan.model)) {
        out.error("P011", line_loc(line_no), "missing model name");
      } else {
        have_model = true;
        require_done();
      }
    } else if (key == "strategy") {
      if (have_strategy)
        out.error("P014", line_loc(line_no), "duplicate 'strategy' key");
      std::string name;
      if (!(fields >> name)) {
        out.error("P011", line_loc(line_no), "missing strategy name");
      } else if (const auto strategy = strategy_from_name(name)) {
        plan.strategy = *strategy;
        have_strategy = true;
        require_done();
      } else {
        out.error("P012", line_loc(line_no),
                  "unknown strategy '" + name + "'");
      }
    } else if (key == "comm_heavy") {
      if (have_comm_heavy)
        out.error("P014", line_loc(line_no), "duplicate 'comm_heavy' key");
      have_comm_heavy = true;
      if (!(fields >> plan.comm_heavy_count))
        out.error("P011", line_loc(line_no), "bad comm_heavy count");
      else
        require_done();
    } else if (key == "makespan_ms") {
      if (have_makespan)
        out.error("P014", line_loc(line_no), "duplicate 'makespan_ms' key");
      have_makespan = true;
      if (!(fields >> plan.predicted_makespan))
        out.error("P011", line_loc(line_no), "bad makespan value");
      else
        require_done();
    } else if (key == "job") {
      core::JobAssignment assignment;
      double f = 0.0;
      double g = 0.0;
      if (!(fields >> assignment.job_id >> assignment.cut_index >> f >> g)) {
        out.error("P011", line_loc(line_no),
                  "bad job entry; expected 'job <id> <cut> <f_ms> <g_ms>'");
      } else {
        require_done();
        plan.jobs.push_back(assignment);
        plan.f_lane.push_back(f);
        plan.g_lane.push_back(g);
      }
    } else {
      out.error("P013", line_loc(line_no), "unknown key '" + key + "'");
    }
  }
  if (!have_model)
    out.error("P015", {}, "plan is missing its 'model' entry");
  if (!have_strategy)
    out.error("P015", {}, "plan is missing its 'strategy' entry");
  if (plan.jobs.empty()) out.error("P015", {}, "plan schedules no jobs");
  return plan;
}

}  // namespace jps::check
