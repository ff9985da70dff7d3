#include "core/plan_io.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "check/lint_plan.h"

namespace jps::core {

std::string serialize_plan(const ExecutionPlan& plan) {
  std::ostringstream os;
  // max_digits10: doubles round-trip exactly through the text format.
  os.precision(17);
  os << "jps-plan v1" << '\n';
  os << "model " << plan.model << '\n';
  os << "strategy " << strategy_name(plan.strategy) << '\n';
  os << "comm_heavy " << plan.comm_heavy_count << '\n';
  os << "makespan_ms " << plan.predicted_makespan << '\n';
  JPS_REQUIRE(plan.f_lane.size() == plan.jobs.size() &&
                  plan.g_lane.size() == plan.jobs.size(),
              "every job needs its f and g lane entries");
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    os << "job " << plan.jobs[i].job_id << ' ' << plan.jobs[i].cut_index << ' '
       << plan.f_lane[i] << ' ' << plan.g_lane[i] << '\n';
  }
  return os.str();
}

ExecutionPlan deserialize_plan(const std::string& text) {
  // Parse and semantic rules both run through the shared rule packs, so a
  // plan that loads here is exactly a plan that passes `jps_lint` (up to the
  // cross-artifact rules, which need a model/channel this API does not take).
  check::DiagnosticList diagnostics;
  std::optional<ExecutionPlan> plan = check::parse_plan_text(text, diagnostics);
  if (plan && !diagnostics.has_errors())
    check::lint_plan(*plan, diagnostics);
  check::throw_parse_error_if_any(diagnostics, "plan_io");
  JPS_INVARIANT(plan.has_value(),
                "an error-free parse always produces a plan");
  return std::move(*plan);
}

void save_plan(const ExecutionPlan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("plan_io: cannot open " + path);
  out << serialize_plan(plan);
  if (!out) throw std::runtime_error("plan_io: write failed for " + path);
}

ExecutionPlan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("plan_io: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize_plan(buffer.str());
}

}  // namespace jps::core
