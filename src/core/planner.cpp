#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "obs/obs.h"
#include "sched/bruteforce.h"
#include "sched/johnson.h"
#include "sched/makespan.h"

namespace jps::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Number of jobs (out of n) assigned to the communication-heavy cut l*-1.
// Theorem 5.3's balance condition n1*(g(l*-1)-f(l*-1)) = n2*(f(l*)-g(l*))
// gives n1 : n2 = surplus : deficit; the paper floors that quotient into an
// integer "Ratio", which loses the mix entirely whenever the exact quotient
// is below 1.  We apply the balance directly (rounding once, at the job
// count), which is the same rule without the double truncation.
int jobs_at_l_minus(double surplus, double deficit, int n) {
  if (surplus <= 0.0 || deficit <= 0.0) return 0;
  const double fraction = surplus / (surplus + deficit);
  const int n1 = static_cast<int>(std::lround(static_cast<double>(n) * fraction));
  return std::clamp(n1, 0, n);
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kLocalOnly: return "LO";
    case Strategy::kCloudOnly: return "CO";
    case Strategy::kPartitionOnly: return "PO";
    case Strategy::kJPS: return "JPS";
    case Strategy::kJPSTuned: return "JPS*";
    case Strategy::kJPSHull: return "JPS+";
    case Strategy::kBruteForce: return "BF";
    case Strategy::kRobust: return "ROB";
  }
  return "?";
}

namespace {

/// `count` consecutive jobs at `cut`.
struct CutRun {
  std::size_t cut = 0;
  std::size_t count = 0;
};

// The one assembly.  Jobs are numbered 0, 1, ... run by run.  The jobs of a
// run are identical and numbered consecutively, so Johnson's rule over the
// runs (ties broken by run, hence by job id) laid out job by job is exactly
// Johnson's rule over the jobs: the jobs and both lanes are written once,
// in their final order, straight from the curve's lanes.  A two-type mix
// is two runs, already in Johnson order on a monotone curve.
ExecutionPlan assemble_runs(const partition::ProfileCurve& curve,
                            Strategy strategy, std::span<const CutRun> runs) {
  std::vector<CutRun> kept;  // the non-empty runs
  std::vector<std::size_t> first_id;
  std::vector<double> run_f;
  std::vector<double> run_g;
  std::size_t n_jobs = 0;
  for (const CutRun& run : runs) {
    if (run.count == 0) continue;
    kept.push_back(run);
    first_id.push_back(n_jobs);
    run_f.push_back(curve.f(run.cut));
    run_g.push_back(curve.g(run.cut));
    n_jobs += run.count;
  }
  const sched::JohnsonSchedule schedule = sched::johnson_order(run_f, run_g);

  ExecutionPlan plan;
  plan.model = curve.model_name();
  plan.strategy = strategy;
  plan.jobs.reserve(n_jobs);
  plan.f_lane.reserve(n_jobs);
  plan.g_lane.reserve(n_jobs);
  for (std::size_t k = 0; k < schedule.order.size(); ++k) {
    const std::size_t r = schedule.order[k];
    for (std::size_t j = 0; j < kept[r].count; ++j)
      plan.jobs.push_back({static_cast<int>(first_id[r] + j), kept[r].cut});
    plan.f_lane.insert(plan.f_lane.end(), kept[r].count, run_f[r]);
    plan.g_lane.insert(plan.g_lane.end(), kept[r].count, run_g[r]);
    if (k < schedule.comm_heavy_count) plan.comm_heavy_count += kept[r].count;
  }
  plan.predicted_makespan =
      sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
  return plan;
}

}  // namespace

ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                            Strategy strategy,
                            std::span<const std::size_t> cuts) {
  std::vector<CutRun> runs;
  for (const std::size_t cut : cuts) {
    if (runs.empty() || runs.back().cut != cut)
      runs.push_back({cut, 0});
    ++runs.back().count;
  }
  return assemble_runs(curve, strategy, runs);
}

ExecutionPlan assemble_plan(const partition::ProfileCurve& curve,
                            Strategy strategy, std::size_t cut_a,
                            std::size_t cut_b, int n_a, int n_jobs) {
  if (n_jobs < 0 || n_a < 0 || n_a > n_jobs)
    throw std::invalid_argument("assemble_plan: need 0 <= n_a <= n_jobs");
  const CutRun runs[] = {{cut_a, static_cast<std::size_t>(n_a)},
                         {cut_b, static_cast<std::size_t>(n_jobs - n_a)}};
  return assemble_runs(curve, strategy, runs);
}

double two_type_makespan(double f_a, double g_a, double f_b, double g_b,
                         int n_a, int n_b) {
  // makespan = max_i (F_i + G_i) with F_i the f-prefix through job i and
  // G_i the g-suffix from job i.  Within a homogeneous run the term is
  // linear in i, so only the four run endpoints can attain the maximum.
  //
  // An empty run must be ignored entirely, not multiplied by a zero count:
  // the old "count * value" terms turned an unused cut's inf/NaN stages
  // into NaN, and std::max(-inf, NaN) then leaked -inf out as the result.
  const double a_count = static_cast<double>(n_a);
  const double b_count = static_cast<double>(n_b);
  if (n_a <= 0 && n_b <= 0) return 0.0;
  if (n_b <= 0)  // pure a-run: endpoints i = 1 and i = n_a
    return std::max(f_a + a_count * g_a, a_count * f_a + g_a);
  if (n_a <= 0)  // pure b-run: endpoints i = 1 and i = n_b
    return std::max(f_b + b_count * g_b, b_count * f_b + g_b);
  double best = f_a + a_count * g_a + b_count * g_b;             // i = 1
  best = std::max(best, a_count * f_a + g_a + b_count * g_b);    // i = n_a
  best = std::max(best, a_count * f_a + f_b + b_count * g_b);    // i = n_a+1
  best = std::max(best, a_count * f_a + b_count * f_b + g_b);    // i = n
  return best;
}

void two_type_makespan_batch(double f_a, std::span<const double> g_a,
                             double f_b, std::span<const double> g_b, int n_a,
                             int n_b, std::span<double> out) {
  if (g_a.size() != g_b.size() || out.size() != g_a.size())
    throw std::invalid_argument("two_type_makespan_batch: span size mismatch");
  const std::size_t samples = out.size();
  const double a_count = static_cast<double>(n_a);
  const double b_count = static_cast<double>(n_b);
  if (n_a <= 0 && n_b <= 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // The count branches are per-candidate constants; hoisting them leaves
  // one branch-free multiply-add-max pass per case.  Every arithmetic
  // expression below keeps the scalar function's association, so out[s] is
  // bit-identical to two_type_makespan(f_a, g_a[s], f_b, g_b[s], n_a, n_b).
  if (n_b <= 0) {
    const double af = a_count * f_a;
    for (std::size_t s = 0; s < samples; ++s)
      out[s] = std::max(f_a + a_count * g_a[s], af + g_a[s]);
    return;
  }
  if (n_a <= 0) {
    const double bf = b_count * f_b;
    for (std::size_t s = 0; s < samples; ++s)
      out[s] = std::max(f_b + b_count * g_b[s], bf + g_b[s]);
    return;
  }
  const double af = a_count * f_a;
  const double af_fb = af + f_b;
  const double af_bf = af + b_count * f_b;
  for (std::size_t s = 0; s < samples; ++s) {
    const double bg = b_count * g_b[s];
    double best = f_a + a_count * g_a[s] + bg;  // i = 1
    best = std::max(best, af + g_a[s] + bg);    // i = n_a
    best = std::max(best, af_fb + bg);          // i = n_a+1
    best = std::max(best, af_bf + g_b[s]);      // i = n
    out[s] = best;
  }
}

namespace {

/// The smallest interior split 1 <= n_a <= n_jobs - 1 attaining the least
/// interior two_type_makespan, with that makespan, for finite stages >= 0
/// and n_jobs >= 2 (docs/THEORY.md §9).
///
/// On the interior the real makespan M(n_a) is the maximum of three lines
/// (the i = n_a and i = n_a + 1 terms share a slope), so it is convex and
/// its integer minimum sits next to a crossing of two lines or at an end.
/// Every term is a sum of non-negative products of counts and stages, each
/// summand passing through at most three roundings, so the computed value
/// is within a factor (1 +- 4u) of the real one (u = 2^-53; no step can
/// overflow under the caller's size bound, and a step that lands among
/// the subnormals is exact).  Start from the best point near a crossing,
/// value U: every split whose computed value is <= U has M <= U (1 + 4u),
/// and that sublevel set is an interval holding the start.  Walking out
/// from the start, the first split whose computed value clears a
/// threshold safely above U (1 + 4u) (1 + 4u) lies outside the interval,
/// so nothing beyond it can win.  Flat lines widen the interval; it never
/// spans more than the interior.
std::pair<int, double> best_interior_split(double f_a, double g_a, double f_b,
                                           double g_b, int n_jobs) {
  const auto makespan = [&](int n_a) {
    return two_type_makespan(f_a, g_a, f_b, g_b, n_a, n_jobs - n_a);
  };
  const double n = static_cast<double>(n_jobs);
  // Lines c + s * n_a: the i = 1, the i = n_a (and n_a + 1), and the i = n
  // terms of two_type_makespan.
  const double c[] = {f_a + n * g_b, std::max(g_a, f_b) + n * g_b,
                      n * f_b + g_b};
  const double s[] = {g_a - g_b, f_a - g_b, f_a - f_b};
  int start = 1;
  double start_ms = makespan(1);
  const auto seed = [&](int n_a) {
    const double ms = makespan(n_a);
    if (ms < start_ms) {
      start_ms = ms;
      start = n_a;
    }
  };
  seed(n_jobs - 1);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      // The crossing only seeds the walk; NaN or inf (parallel lines)
      // clamps to an end.
      const double x = (c[j] - c[i]) / (s[i] - s[j]);
      const int below = !(x > 1.0)       ? 1
                        : !(x < n - 1.0) ? n_jobs - 1
                                         : static_cast<int>(x);
      seed(below);
      if (below < n_jobs - 1) seed(below + 1);
    }
  }
  // The added 2^-1072 covers a start among the subnormals, where the
  // relative margin rounds away (and the arithmetic is exact).
  const double threshold = start_ms * (1.0 + 0x1p-48) + 0x1p-1072;
  int best = start;
  double best_ms = start_ms;
  for (int n_a = start - 1; n_a >= 1; --n_a) {
    const double ms = makespan(n_a);
    if (ms > threshold) break;
    if (ms <= best_ms) {  // walking down: a tie moves to the smaller n_a
      best_ms = ms;
      best = n_a;
    }
  }
  for (int n_a = start + 1; n_a <= n_jobs - 1; ++n_a) {
    const double ms = makespan(n_a);
    if (ms > threshold) break;
    if (ms < best_ms) {
      best_ms = ms;
      best = n_a;
    }
  }
  return {best, best_ms};
}

}  // namespace

int best_two_type_split(double f_a, double g_a, double f_b, double g_b,
                        int n_jobs) {
  if (!(f_a >= 0.0 && g_a >= 0.0 && f_b >= 0.0 && g_b >= 0.0))
    throw std::invalid_argument(
        "best_two_type_split: stage lengths must be >= 0");
  if (n_jobs <= 0) return 0;
  const auto makespan = [&](int n_a) {
    return two_type_makespan(f_a, g_a, f_b, g_b, n_a, n_jobs - n_a);
  };
  // The scan's rule over n_a = 0..n_jobs: the first strictly smaller
  // makespan wins, so the smallest minimizing n_a does.
  int best_split = 0;
  double best_makespan = makespan(0);
  // An infinite stage makes every interior split infinite: only the two
  // pure runs can win.
  const bool finite = std::isfinite(f_a) && std::isfinite(g_a) &&
                      std::isfinite(f_b) && std::isfinite(g_b);
  if (finite && n_jobs >= 2) {
    if (!((f_a + g_a + f_b + g_b) * (static_cast<double>(n_jobs) + 2.0) <
          0x1p1023))
      throw std::invalid_argument(
          "best_two_type_split: makespan would overflow a double");
    const auto [n_a, ms] = best_interior_split(f_a, g_a, f_b, g_b, n_jobs);
    if (ms < best_makespan) {
      best_makespan = ms;
      best_split = n_a;
    }
  }
  if (makespan(n_jobs) < best_makespan) best_split = n_jobs;
  return best_split;
}

std::size_t single_job_optimal_cut(std::span<const double> f,
                                   std::span<const double> g) {
  std::size_t best = 0;
  double best_latency = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double latency = f[i] + g[i];
    if (latency < best_latency) {
      best_latency = latency;
      best = i;
    }
  }
  return best;
}

namespace {

// BF switches from exact multiset enumeration to the two-type search above
// this many assignments.
constexpr std::uint64_t kBruteForceExactCap = 2'000'000;

// Andrew's monotone chain, lower hull only.  Cuts are already sorted by
// ascending f; ties in f keep the later (smaller-g) point via <= pops.
void lower_hull(std::span<const double> f, std::span<const double> g,
                std::vector<std::size_t>& hull) {
  const auto cross = [&](std::size_t o, std::size_t a, std::size_t b) {
    return (f[a] - f[o]) * (g[b] - g[o]) - (g[a] - g[o]) * (f[b] - f[o]);
  };
  hull.clear();
  for (std::size_t i = 0; i < f.size(); ++i) {
    while (hull.size() >= 2 &&
           cross(hull[hull.size() - 2], hull.back(), i) <= 0.0) {
      hull.pop_back();
    }
    hull.push_back(i);
  }
}

/// A plan decision: the first n_a jobs at cut_a, the rest at cut_b.
struct Decision {
  std::size_t cut_a = 0;
  std::size_t cut_b = 0;
  int n_a = 0;
};

/// The one decision procedure for LO, CO, PO, JPS, JPS* and JPS+, over the
/// (f, g) lanes of a monotone curve.  `hull_scratch` is reused storage for
/// the JPS+ hull.
Decision lane_decide(Strategy strategy, int n_jobs, std::span<const double> f,
                     std::span<const double> g,
                     std::vector<std::size_t>& hull_scratch) {
  Decision d;
  switch (strategy) {
    case Strategy::kLocalOnly:
      d.cut_a = d.cut_b = f.size() - 1;
      break;
    case Strategy::kCloudOnly:
      d.cut_a = d.cut_b = 0;
      break;
    case Strategy::kPartitionOnly:
      d.cut_a = d.cut_b = single_job_optimal_cut(f, g);
      break;
    case Strategy::kJPS:
    case Strategy::kJPSTuned: {
      // The paper's pair (l*-1, l*): JPS splits it by Theorem 5.3's
      // balance, JPS* by the exact best split.
      int probes = 0;
      const std::size_t l_star = partition::l_star_search(f, g, probes);
      d.cut_a = d.cut_b = l_star;
      if (l_star == 0) break;
      d.cut_a = l_star - 1;
      d.n_a = strategy == Strategy::kJPS
                  ? jobs_at_l_minus(f[l_star] - g[l_star],
                                    g[l_star - 1] - f[l_star - 1], n_jobs)
                  : best_two_type_split(f[d.cut_a], g[d.cut_a], f[d.cut_b],
                                        g[d.cut_b], n_jobs);
      break;
    }
    case Strategy::kJPSHull: {
      // Mixing pair = the lower-hull-adjacent cuts bracketing f = g.
      lower_hull(f, g, hull_scratch);
      std::size_t pos = hull_scratch.size() - 1;  // first hull cut with f >= g
      for (std::size_t i = 0; i < hull_scratch.size(); ++i) {
        if (f[hull_scratch[i]] >= g[hull_scratch[i]]) {
          pos = i;
          break;
        }
      }
      if (pos == 0) {
        d.cut_a = d.cut_b = hull_scratch.front();
        break;
      }
      d.cut_a = hull_scratch[pos - 1];
      d.cut_b = hull_scratch[pos];
      d.n_a = best_two_type_split(f[d.cut_a], g[d.cut_a], f[d.cut_b],
                                  g[d.cut_b], n_jobs);
      break;
    }
    case Strategy::kBruteForce:
    case Strategy::kRobust:
      throw std::invalid_argument(
          "lane_decide: strategy is not a two-cut-type decision");
  }
  return d;
}

}  // namespace

Planner::Planner(partition::ProfileCurve curve) : curve_(std::move(curve)) {
  JPS_REQUIRE(curve_.size() >= 1, "a plannable curve has at least one cut");
  decision_ = partition::binary_search_cut(curve_);
}

std::size_t Planner::single_job_optimal_cut() const {
  return core::single_job_optimal_cut(curve_.f_lane(), curve_.g_lane());
}

std::vector<std::size_t> Planner::lower_hull_cuts() const {
  std::vector<std::size_t> hull;
  lower_hull(curve_.f_lane(), curve_.g_lane(), hull);
  return hull;
}

ExecutionPlan Planner::plan(Strategy strategy, int n_jobs) const {
  if (n_jobs < 1) throw std::invalid_argument("Planner::plan: n_jobs < 1");
  static obs::Counter& plans = obs::counter("planner.plans");
  plans.add();
  obs::Span span("planner.plan", "core");
  span.arg("strategy", strategy_name(strategy));
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("model", curve_.model_name());
  ExecutionPlan plan = plan_impl(strategy, n_jobs);
  span.arg("makespan_ms", plan.predicted_makespan);
  JPS_ENSURE(plan.jobs.size() == static_cast<std::size_t>(n_jobs),
             "every requested job must be scheduled");
  JPS_ENSURE(std::isfinite(plan.predicted_makespan) &&
                 plan.predicted_makespan >= 0.0,
             "predicted makespan must be finite and non-negative");
  return plan;
}

ExecutionPlan Planner::plan_impl(Strategy strategy, int n_jobs) const {
  const auto start = Clock::now();
  ExecutionPlan plan;
  if (strategy == Strategy::kBruteForce) {
    const std::vector<sched::CutOption> options = curve_.as_cut_options();
    sched::BruteForceResult result;
    try {
      result = sched::bruteforce_exact(options, n_jobs, kBruteForceExactCap);
    } catch (const std::invalid_argument&) {
      result = sched::bruteforce_two_type(options, n_jobs);
    }
    const std::vector<std::size_t> cuts(result.cuts.begin(), result.cuts.end());
    plan = assemble_plan(curve_, strategy, cuts);
  } else if (strategy == Strategy::kRobust) {
    throw std::invalid_argument(
        "Planner::plan: robust plans need a bandwidth interval; use "
        "core::RobustPlanner");
  } else {
    std::vector<std::size_t> hull_scratch;
    const Decision d = lane_decide(strategy, n_jobs, curve_.f_lane(),
                                   curve_.g_lane(), hull_scratch);
    plan = assemble_plan(curve_, strategy, d.cut_a, d.cut_b, d.n_a, n_jobs);
  }
  plan.decision_overhead_ms = ms_since(start);
  return plan;
}

PlanSweep Planner::plan_sweep(Strategy strategy, int n_jobs,
                              std::span<const double> bandwidths,
                              const net::Channel& channel) const {
  if (n_jobs < 1)
    throw std::invalid_argument("Planner::plan_sweep: n_jobs < 1");
  if (strategy == Strategy::kBruteForce || strategy == Strategy::kRobust)
    throw std::invalid_argument(
        "Planner::plan_sweep: strategy is not O(cuts) per point; use "
        "plan() / RobustPlanner");
  for (const double mbps : bandwidths) {
    if (!std::isfinite(mbps) || mbps <= 0.0)
      throw std::invalid_argument(
          "Planner::plan_sweep: bandwidth must be finite and > 0");
  }
  static obs::Counter& sweeps = obs::counter("planner.plan_sweeps");
  sweeps.add();
  static obs::Counter& points = obs::counter("planner.plan_sweep_points");
  points.add(bandwidths.size());
  obs::Span span("planner.plan_sweep", "core");
  span.arg("strategy", strategy_name(strategy));
  span.arg("n_jobs", std::to_string(n_jobs));
  span.arg("points", std::to_string(bandwidths.size()));
  span.arg("model", curve_.model_name());

  const std::span<const double> f = curve_.f_lane();
  const std::span<const std::uint64_t> bytes = curve_.offload_bytes_lane();
  const std::size_t cuts = curve_.size();

  PlanSweep sweep;
  sweep.strategy = strategy;
  sweep.n_jobs = n_jobs;
  sweep.bandwidth_mbps.assign(bandwidths.begin(), bandwidths.end());
  sweep.makespan_ms.resize(bandwidths.size());
  sweep.cut_a.resize(bandwidths.size());
  sweep.cut_b.resize(bandwidths.size());
  sweep.n_a.resize(bandwidths.size());

  std::vector<double> g(cuts);  // per-point comm lane, reused across points
  std::vector<std::size_t> hull_scratch;
  for (std::size_t p = 0; p < bandwidths.size(); ++p) {
    // Re-derive g at this rate exactly as ProfileCurve::with_bandwidth does
    // (same Channel::time_ms call on the same bytes), so every comparison
    // below sees the same doubles a rebased curve's g_lane() holds.
    const net::Channel at_rate = channel.with_bandwidth(bandwidths[p]);
    for (std::size_t i = 0; i < cuts; ++i)
      g[i] = bytes[i] > 0 ? at_rate.time_ms(bytes[i]) : 0.0;
    // Parity with the Planner constructor's monotonicity check (an affine
    // rebase preserves monotonicity, but a custom-built curve may not start
    // monotone).
    for (std::size_t i = 1; i < cuts; ++i) {
      if (f[i] < f[i - 1] || g[i] > g[i - 1])
        throw std::invalid_argument(
            "Planner::plan_sweep: curve is not monotone at this bandwidth; "
            "cluster it first");
    }
    const Decision d = lane_decide(strategy, n_jobs, f, g, hull_scratch);
    sweep.cut_a[p] = d.cut_a;
    sweep.cut_b[p] = d.cut_b;
    sweep.n_a[p] = d.n_a;
    // On a monotone curve cut_a precedes cut_b (f(a) <= f(b),
    // g(a) >= g(b)), so "all a-jobs before all b-jobs" is the Johnson
    // order of the mix and the exact recurrence over the two runs reproduces
    // assemble_plan's flowshop2_makespan bit-for-bit.
    sweep.makespan_ms[p] = sched::two_type_flowshop2_makespan(
        f[d.cut_a], g[d.cut_a], d.n_a, f[d.cut_b], g[d.cut_b],
        n_jobs - d.n_a);
  }
  return sweep;
}

ExecutionPlan Planner::materialize(const PlanSweep& sweep, std::size_t k,
                                   const net::Channel& channel) const {
  if (k >= sweep.size())
    throw std::out_of_range("Planner::materialize: point out of range");
  const partition::ProfileCurve rebased =
      curve_.with_bandwidth(channel, sweep.bandwidth_mbps[k]);
  ExecutionPlan plan =
      assemble_plan(rebased, sweep.strategy, sweep.cut_a[k], sweep.cut_b[k],
                    sweep.n_a[k], sweep.n_jobs);
  JPS_ENSURE(plan.predicted_makespan == sweep.makespan_ms[k],
             "materialized plan must reproduce the sweep makespan "
             "bit-for-bit");
  return plan;
}

}  // namespace jps::core
