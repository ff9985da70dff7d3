// Makespan evaluation for partitioned-DNN pipelines.
//
// The mobile CPU and the uplink are exclusive resources used in a pipeline:
// job i's communication stage may overlap job i+1's computation stage, but
// each resource serves one job at a time and a job's communication cannot
// start before its own computation ends (§3.1).  That is the classic
// 2-machine permutation flow shop; a third stage (cloud compute) extends it
// to 3 machines for the "is cloud time really negligible" check.
#pragma once

#include <span>
#include <vector>

#include "sched/job.h"

namespace jps::sched {

/// Start/end times of each stage of one job within a schedule.
struct JobTimeline {
  int job_id = 0;
  double comp_start = 0.0;
  double comp_end = 0.0;
  double comm_start = 0.0;
  double comm_end = 0.0;
  double cloud_start = 0.0;
  double cloud_end = 0.0;

  /// Completion time tau_j of the job (end of its last nonempty stage).
  [[nodiscard]] double completion() const {
    return cloud_end > 0.0 ? cloud_end : comm_end;
  }
};

/// Evaluate the 2-stage flow-shop recurrence for `jobs` executed in their
/// given order. Returns per-job stage timelines (same order as input).
[[nodiscard]] std::vector<JobTimeline> flowshop2_timeline(
    std::span<const Job> jobs);

/// Makespan (max completion) of the 2-stage pipeline in the given order.
[[nodiscard]] double flowshop2_makespan(std::span<const Job> jobs);

/// Structure-of-arrays flowshop2_makespan: job i has stages (f[i], g[i]).
/// Bit-identical to the Job-span overload on the same sequence (the
/// recurrence runs the same additions in the same order); the contiguous
/// lanes are what the batched planner sweeps feed it.  Throws
/// std::invalid_argument when the lanes disagree in length.
[[nodiscard]] double flowshop2_makespan(std::span<const double> f,
                                        std::span<const double> g);

/// flowshop2_makespan of the two-run sequence "n_a jobs of (f_a, g_a) then
/// n_b jobs of (f_b, g_b)" without materializing the jobs, in O(log n).
/// The result is bit-identical to running the recurrence job by job
/// (flowshop2_makespan on that sequence) — unlike core::two_type_makespan,
/// which evaluates the O(1) endpoint identity and may differ in the last
/// ulp.  Within a run the recurrence's max settles after the first job, so
/// each run is two repeated sums, and a repeated sum adds one fixed
/// multiple of the ulp per step inside a binade; whole stretches are jumped
/// exactly (docs/THEORY.md §9).  Infinite and NaN stages give the
/// recurrence's own results.  Negative counts are treated as empty runs;
/// a negative stage in a non-empty run throws std::invalid_argument.
[[nodiscard]] double two_type_flowshop2_makespan(double f_a, double g_a,
                                                 int n_a, double f_b,
                                                 double g_b, int n_b);

/// 3-stage variant including each job's cloud stage (permutation flow shop
/// recurrence on three machines).
[[nodiscard]] std::vector<JobTimeline> flowshop3_timeline(
    std::span<const Job> jobs);

/// Makespan of the 3-stage pipeline in the given order.
[[nodiscard]] double flowshop3_makespan(std::span<const Job> jobs);

/// The exact closed-form 2-stage makespan for the GIVEN order:
///   max_k ( sum_{i<=k} f(x_i) + sum_{i>=k} g(x_i) )        (one O(n) pass)
/// — always identical to flowshop2_makespan; the differential-oracle tests
/// verify both against the discrete-event simulator.  Under Johnson order on
/// a monotone curve the maximum sits at k in {1, n}, which recovers the
/// paper's Prop. 4.1 rendering
///   f(x1) + max{ sum_{i>=2} f(x_i), sum_{i<=n-1} g(x_i) } + g(x_n)
/// as the special case (see docs/THEORY.md §2).
[[nodiscard]] double closed_form_makespan(std::span<const Job> jobs_in_order);

/// Structure-of-arrays closed_form_makespan: the same identity over
/// contiguous (f, g) lanes.  Bit-identical to the Job-span overload on the
/// same sequence; branch-light (one max per element, no struct loads), so
/// the compiler can keep both running sums in registers.  Throws
/// std::invalid_argument when the lanes disagree in length.
[[nodiscard]] double closed_form_makespan(std::span<const double> f,
                                          std::span<const double> g);

/// The average-makespan lower bound the paper optimizes after relaxation:
///   max( sum f / n , sum g / n ).
[[nodiscard]] double average_makespan_bound(std::span<const Job> jobs);

}  // namespace jps::sched
