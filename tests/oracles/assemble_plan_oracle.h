// Reference plan assembly, kept as a differential oracle: core::assemble_plan
// must return exactly what this returns.  The body is the assembly the
// planner used while ExecutionPlan stored every job three times — a
// sched::Job list, johnson_order's index permutation and an apply_order
// copy — so it shares no code path with the lane-based assembly beyond the
// curve lookups and the recurrence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/plan.h"
#include "partition/profile_curve.h"
#include "sched/johnson.h"
#include "sched/makespan.h"

namespace jps::oracle {

/// The old ExecutionPlan's per-job fields.
struct AssembledPlan {
  std::string model;
  core::Strategy strategy = core::Strategy::kJPS;
  std::vector<core::JobAssignment> jobs;
  sched::JobList scheduled_jobs;
  std::vector<double> f_lane;
  std::vector<double> g_lane;
  std::size_t comm_heavy_count = 0;
  double predicted_makespan = 0.0;

  void refresh_lanes() {
    f_lane.resize(scheduled_jobs.size());
    g_lane.resize(scheduled_jobs.size());
    for (std::size_t i = 0; i < scheduled_jobs.size(); ++i) {
      f_lane[i] = scheduled_jobs[i].f;
      g_lane[i] = scheduled_jobs[i].g;
    }
  }
};

inline AssembledPlan assemble_plan_reference(
    const partition::ProfileCurve& curve, core::Strategy strategy,
    const std::vector<std::size_t>& cuts) {
  sched::JobList jobs;
  jobs.reserve(cuts.size());
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    jobs.push_back(sched::Job{.id = static_cast<int>(i),
                              .cut = static_cast<int>(cuts[i]),
                              .f = curve.f(cuts[i]),
                              .g = curve.g(cuts[i])});
  }
  const sched::JohnsonSchedule schedule = sched::johnson_order(jobs);

  AssembledPlan plan;
  plan.model = curve.model_name();
  plan.strategy = strategy;
  plan.comm_heavy_count = schedule.comm_heavy_count;
  plan.scheduled_jobs = sched::apply_order(jobs, schedule.order);
  plan.jobs.reserve(jobs.size());
  for (const sched::Job& job : plan.scheduled_jobs) {
    plan.jobs.push_back({job.id, static_cast<std::size_t>(job.cut)});
  }
  plan.refresh_lanes();
  plan.predicted_makespan =
      sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
  return plan;
}

}  // namespace jps::oracle
