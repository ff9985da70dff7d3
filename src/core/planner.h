// The joint partition + scheduling planner (the paper's primary
// contribution) and the comparison strategies of §6.2.
//
// A Planner is bound to one ProfileCurve — i.e. one model on one device pair
// over one channel.  plan(strategy, n) partitions n identical jobs and
// orders them with Johnson's rule (Alg. 1):
//
//   LO   — every job at the local-only cut.
//   CO   — every job at the cloud-only cut.
//   PO   — the state-of-the-art single-DNN partition [Hu et al. 2019 /
//          Neurosurgeon]: the cut minimizing a single job's latency
//          f(l) + g(l), applied homogeneously; no pipeline-aware mixing.
//   JPS  — Alg. 2's binary search for (l*-1, l*) and Theorem 5.3's balance
//          between the two cut types, applied as round(n·s/(s+d)) jobs at
//          l*-1 (s = f(l*) - g(l*), d = g(l*-1) - f(l*-1); DESIGN.md §5a).
//          The paper's floor ratio is still reported by decision().ratio.
//   JPS* — same two cut types, but the split is swept exactly (the Fig. 14
//          tuning knob); never worse than JPS.
//   JPS+ — our extension: the mixing pair is chosen adjacent on the LOWER
//          CONVEX HULL of the curve's (f, g) points rather than adjacent in
//          index.  Theorem 5.2's continuous argument optimizes
//          max(avg f, avg g) over mixtures, whose optimum mixes the two
//          hull vertices bracketing the f = g balance; when f is linear and
//          g convex (the paper's §3.2 shapes) every cut lies on the hull
//          and JPS+ == JPS*.  On coarse real curves (few clustered cuts),
//          index-adjacent pairs can be strictly dominated — e.g. a
//          CO + LO endpoint mix — and JPS+ recovers the BF optimum.
//   BF   — brute force: exact multiset enumeration when tractable,
//          otherwise all two-cut-type assignments (see sched/bruteforce.h).
//
// Every strategy but BF is a two-cut-type mix (cut_a, cut_b, n_a), and one
// decision procedure over the curve's (f, g) lanes computes it for both
// plan() and plan_sweep().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/plan.h"
#include "net/channel.h"
#include "partition/binary_search.h"
#include "partition/profile_curve.h"

namespace jps::core {

/// Makespan of the two-cut-type schedule "n_a jobs at (f_a, g_a) then n_b
/// jobs at (f_b, g_b)" in O(1), via the permutation-flow-shop identity
///   makespan = max_i ( sum_{k<=i} f_k + sum_{k>=i} g_k ),
/// whose inner maximum over each homogeneous run is attained at a run
/// endpoint.  This is exactly flowshop2_makespan of that job sequence
/// (up to floating-point association).
///
/// PRECONDITION: the endpoint reduction is exact ONLY for this two-type
/// comm-heavy-before-comp-heavy shape (within a homogeneous run the
/// critical-path term is linear in i, so interior positions never dominate
/// their run's endpoints).  For an arbitrary job order interior terms can
/// dominate — evaluate sched::closed_form_makespan (the full identity)
/// instead.  The planner only calls this (through best_two_type_split) for
/// a pair cut_a < cut_b of a monotone curve, whose Johnson order guarantees
/// the shape; the differential tests in tests/core/planner_test.cpp
/// cross-check the resulting plans against the discrete-event simulator.
///
/// An empty run is ignored entirely: its (f, g) pair is never read, so a
/// degenerate cut (e.g. an infinite g from a zero-bandwidth probe) offered
/// as the UNUSED type cannot contaminate the result, and the partial
/// maximum can never escape as -inf.  Non-positive counts are empty runs;
/// both empty returns 0.
[[nodiscard]] double two_type_makespan(double f_a, double g_a, double f_b,
                                       double g_b, int n_a, int n_b);

/// Batched two_type_makespan over per-sample g lanes: out[s] is exactly
/// two_type_makespan(f_a, g_a[s], f_b, g_b[s], n_a, n_b) — bit-identical;
/// the count branches are hoisted out of the sample loop so each case is a
/// tight vectorizable pass.  This is RobustPlanner's inner kernel: one
/// candidate (pair, split) scored across the whole bandwidth grid per call.
/// Throws std::invalid_argument when the spans disagree in length.
void two_type_makespan_batch(double f_a, std::span<const double> g_a,
                             double f_b, std::span<const double> g_b, int n_a,
                             int n_b, std::span<double> out);

/// The split n_a (jobs at cut a; the remaining n - n_a sit at cut b)
/// minimizing two_type_makespan, with the smallest minimizing n_a winning
/// ties — exactly what scanning n_a = 0..n_jobs would return.  O(1) for
/// any n_jobs: two_type_makespan is evaluated only near the crossings of
/// its three interior lines and at the two pure runs (docs/THEORY.md §9);
/// a pair whose optimum lies on a flat line costs up to the width of that
/// plateau.  The planner calls it with cut a preceding cut b on a monotone
/// curve (f_a <= f_b, g_a >= g_b), which pins the Johnson order to "all
/// a-jobs before all b-jobs" for every split.  Throws
/// std::invalid_argument for a negative or NaN stage, or finite stages so
/// large that (n_jobs + 2) * (f_a + g_a + f_b + g_b) reaches 2^1023.
[[nodiscard]] int best_two_type_split(double f_a, double g_a, double f_b,
                                      double g_b, int n_jobs);

/// Assemble, Johnson-order and evaluate a plan from per-job cut indices
/// into `curve` (job i has id i).  Consecutive equal cuts form a run; the
/// runs are put in Johnson order and their jobs and f/g lanes written once,
/// in that order, from the curve's lanes: O(n) plus O(r log r) for r runs,
/// allocating the plan's 32 bytes per job and O(r) scratch.
/// predicted_makespan is the O(n) flowshop2_makespan of the lanes.  Throws
/// std::out_of_range for a cut beyond the curve and std::invalid_argument
/// for a negative stage length.
[[nodiscard]] ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                                          Strategy strategy,
                                          std::span<const std::size_t> cuts);

/// assemble_plan for the two-run mix "n_a jobs at cut_a, then
/// n_jobs - n_a at cut_b" — the same plan as assemble_plan over those
/// per-job cuts, without building them: one O(n) fill plus the
/// recurrence.  Throws std::invalid_argument unless 0 <= n_a <= n_jobs.
[[nodiscard]] ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                                          Strategy strategy, std::size_t cut_a,
                                          std::size_t cut_b, int n_a,
                                          int n_jobs);

/// The PO rule: the first argmin over cuts of single-job latency f[i] + g[i]
/// (0 for empty lanes).  Shared by the planner and plan_hetero.
[[nodiscard]] std::size_t single_job_optimal_cut(std::span<const double> f,
                                                 std::span<const double> g);

/// Structure-of-arrays result of Planner::plan_sweep: lane entry k is the
/// plan decision at bandwidth_mbps[k].  Every strategy this planner family
/// produces is a two-cut-type mix, so (cut_a, cut_b, n_a) describes a whole
/// plan: the first n_a jobs sit at cut_a, the remaining n_jobs - n_a at
/// cut_b (cut_a == cut_b with n_a == 0 for a pure plan).  makespan_ms[k]
/// is bit-identical to what Planner(curve.with_bandwidth(channel, b_k))
/// .plan(strategy, n_jobs).predicted_makespan would compute; use
/// Planner::materialize to expand a lane into that full ExecutionPlan.
struct PlanSweep {
  Strategy strategy = Strategy::kJPS;
  int n_jobs = 0;
  std::vector<double> bandwidth_mbps;
  std::vector<double> makespan_ms;
  std::vector<std::size_t> cut_a;
  std::vector<std::size_t> cut_b;
  std::vector<int> n_a;

  [[nodiscard]] std::size_t size() const { return bandwidth_mbps.size(); }
};

class Planner {
 public:
  /// The curve must be monotone (built with clustering on).
  explicit Planner(partition::ProfileCurve curve);

  /// Plan `n_jobs` identical jobs with the given strategy.
  /// Throws std::invalid_argument for n_jobs < 1.
  [[nodiscard]] ExecutionPlan plan(Strategy strategy, int n_jobs) const;

  /// Batched bandwidth sweep: decide the plan for `n_jobs` at every rate in
  /// `bandwidths` in ONE pass over the curve's SoA lanes, without building
  /// a rebased ProfileCurve, a Planner, or an ExecutionPlan per point.
  /// `channel` supplies the affine comm model (setup latency, jitter) that
  /// is re-based to each rate, exactly as ProfileCurve::with_bandwidth
  /// does, and the re-based g lane goes through the same decision procedure
  /// plan() uses, so lane k equals
  ///   Planner(curve().with_bandwidth(channel, bandwidths[k]))
  ///       .plan(strategy, n_jobs)
  /// bit-for-bit in cuts, order and makespan (the differential suite in
  /// tests/core/plan_sweep_test.cpp pins this).  This is the hot path of
  /// the fig13/fig14 sweeps and any per-request planning service: the f
  /// and offload-bytes lanes are hoisted once, and each point costs one
  /// O(cuts) lane scan plus an O(1) split and an O(log n_jobs) makespan.
  ///
  /// Supported strategies: LO, CO, PO, JPS, JPS*, JPS+.  Throws
  /// std::invalid_argument for n_jobs < 1, for kBruteForce/kRobust (they
  /// are not O(cuts) per point; call plan()/RobustPlanner instead), or for
  /// a non-finite or non-positive bandwidth.
  [[nodiscard]] PlanSweep plan_sweep(Strategy strategy, int n_jobs,
                                     std::span<const double> bandwidths,
                                     const net::Channel& channel) const;

  /// Expand lane `k` of a sweep into the full ExecutionPlan that plan()
  /// produces at that bandwidth (same cuts, same Johnson order,
  /// bit-identical makespan).  Costs one curve rebase + the two-run
  /// assemble_plan (O(n_jobs), 32 bytes per job); use it for the points
  /// you actually execute, not for the whole sweep.
  [[nodiscard]] ExecutionPlan materialize(const PlanSweep& sweep,
                                          std::size_t k,
                                          const net::Channel& channel) const;

  /// The Alg. 2 decision for this curve (exposed for benches/tests).
  [[nodiscard]] const partition::CutDecision& decision() const {
    return decision_;
  }

  [[nodiscard]] const partition::ProfileCurve& curve() const { return curve_; }

  /// The PO cut: single_job_optimal_cut over this curve's lanes.
  [[nodiscard]] std::size_t single_job_optimal_cut() const;

  /// Indices of the cuts on the lower convex hull of the (f, g) point set,
  /// in ascending f order (always includes the first and last cut).
  [[nodiscard]] std::vector<std::size_t> lower_hull_cuts() const;

 private:
  /// The uninstrumented planning body; plan() wraps it in an obs::Span.
  [[nodiscard]] ExecutionPlan plan_impl(Strategy strategy, int n_jobs) const;

  partition::ProfileCurve curve_;
  partition::CutDecision decision_;
};

}  // namespace jps::core
