// Execution plans: the output of every planning strategy.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "partition/profile_curve.h"
#include "sched/job.h"
#include "sched/makespan.h"

namespace jps::core {

/// The strategies the paper compares (§6.2) plus this repo's extensions.
enum class Strategy {
  kLocalOnly,    // LO: everything on the mobile device
  kCloudOnly,    // CO: upload raw inputs, everything on the cloud
  kPartitionOnly,// PO: single-job optimal cut, same for all jobs, no pipeline-aware mixing
  kJPS,          // the paper's joint partition + scheduling (Alg. 2 ratio)
  kJPSTuned,     // JPS with the split between the two cut types swept exactly
  kJPSHull,      // extension: pick the pair adjacent on the lower convex
                 // hull of the (f, g) points instead of index-adjacent; on
                 // fine convex curves (the paper's assumption) the two
                 // coincide, on coarse curves the hull pair is optimal
  kBruteForce,   // exact or two-type brute force (§6.2's BF)
  kRobust,       // extension: uncertainty-aware mix minimizing worst-case /
                 // CVaR makespan over a bandwidth interval (core/robust.h);
                 // produced by RobustPlanner, not Planner::plan
};

/// Display name ("LO", "CO", "PO", "JPS", "JPS*", "JPS+", "BF", "ROB").
[[nodiscard]] const char* strategy_name(Strategy s);

/// One job's slice of a plan.
struct JobAssignment {
  int job_id = 0;
  /// Cut index into the plan's curve.
  std::size_t cut_index = 0;

  friend bool operator==(const JobAssignment&, const JobAssignment&) = default;
};

/// A complete partition + schedule for n identical jobs.
///
/// Each job is stored once: its identity and cut in `jobs`, its stage
/// lengths in the f/g lanes at the same position — 32 bytes per job.
struct ExecutionPlan {
  std::string model;
  Strategy strategy = Strategy::kJPS;
  /// Jobs in scheduled (processing) order.
  std::vector<JobAssignment> jobs;
  /// Stage lengths of jobs[i]: f_lane[i] is its computation on the mobile
  /// device, g_lane[i] its offload, ms.  The contiguous lanes are what the
  /// branch-light makespan kernels iterate (sched::flowshop2_makespan /
  /// closed_form_makespan span overloads).  Same length as `jobs` on every
  /// plan assemble_plan and the plan parser produce (lint rule P007).
  std::vector<double> f_lane;
  std::vector<double> g_lane;
  /// Number of leading communication-heavy jobs in the order (Johnson S1).
  std::size_t comm_heavy_count = 0;
  /// Makespan of the plan under the 2-stage flow-shop recurrence, ms.
  double predicted_makespan = 0.0;
  /// Wall-clock time the planner itself took (Fig. 12(d) overhead), ms.
  double decision_overhead_ms = 0.0;

  /// The scheduled jobs as sched::Job values (id, cut, f, g), built on
  /// demand in O(n) for the scheduling and simulation APIs that take them.
  /// Throws std::logic_error when the lanes and `jobs` disagree in length.
  [[nodiscard]] sched::JobList job_list() const {
    if (f_lane.size() != jobs.size() || g_lane.size() != jobs.size())
      throw std::logic_error("ExecutionPlan: jobs and f/g lanes disagree");
    sched::JobList list(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      list[i] = sched::Job{.id = jobs[i].job_id,
                           .cut = static_cast<int>(jobs[i].cut_index),
                           .f = f_lane[i],
                           .g = g_lane[i]};
    }
    return list;
  }

  /// Per-job stage timelines (computed from job_list() on demand).
  [[nodiscard]] std::vector<sched::JobTimeline> timeline() const {
    return sched::flowshop2_timeline(job_list());
  }

  /// Average completion per job, ms.
  [[nodiscard]] double makespan_per_job() const {
    return jobs.empty() ? 0.0
                        : predicted_makespan / static_cast<double>(jobs.size());
  }
};

}  // namespace jps::core
