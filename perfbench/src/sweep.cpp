// sweep: the offline analyst path.  Every zoo model x every O(cuts)
// strategy x n_jobs in {50, 4096}: Planner::plan_sweep over a log-spaced
// 1-80 Mbps grid, plus materialize and the scalar
// Planner(curve.with_bandwidth(..)).plan on a fixed 1-in-N subset of the
// points.  Single-threaded; one "pass" is the whole model x strategy x n
// cross product on one grid.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "obs/obs.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace jps;

namespace {

constexpr int kGridPoints = 8;
constexpr double kGridLoMbps = 1.0;
constexpr double kGridHiMbps = 80.0;
/// Each pass also materializes and re-plans with the scalar planner one
/// grid point, for both job counts, of every kSamplePairEvery-th
/// (model, strategy) pair: 1 point in 96, each strategy once (13 is coprime
/// with the six strategies).  The pairs are the same in every pass and for
/// every seed, so every pass does the same work; the seed picks which grid
/// point.
constexpr int kSamplePairEvery = 13;
constexpr double kBaseMbps = 5.85;
/// Set-up takes milliseconds; the median of many is steadier.
constexpr int kSetupReplicates = 25;
const int kJobCounts[] = {50, 4096};

struct Model {
  std::string name;
  std::unique_ptr<core::Planner> planner;
};

struct Setup {
  net::Channel channel{kBaseMbps};
  std::vector<Model> models;
};

Setup build_setup() {
  Setup s;
  const profile::LatencyModel mobile(serve::ServerOptions{}.device);
  for (const std::string& name : models::all_names()) {
    const dnn::Graph graph = models::build(name);
    s.models.push_back(
        {name, std::make_unique<core::Planner>(
                   partition::ProfileCurve::build(graph, mobile, s.channel))});
  }
  return s;
}

/// (cut -> count) mix of a plan, ascending by cut.
std::map<std::size_t, int> plan_mix(const core::ExecutionPlan& plan) {
  std::map<std::size_t, int> mix;
  for (const core::JobAssignment& job : plan.jobs) ++mix[job.cut_index];
  return mix;
}

/// One sampled point: the sweep's decision and what the scalar path and
/// materialize produced for it.
struct Sample {
  PlanKey key;
  std::map<std::size_t, int> sweep_mix;
  double sweep_makespan = 0.0;
  std::map<std::size_t, int> scalar_mix;
  double scalar_makespan = 0.0;
  std::map<std::size_t, int> materialized_mix;
  double materialized_makespan = 0.0;
};

struct PassOutput {
  double seconds = 0.0;
  std::size_t points = 0;
  double jobs = 0.0;
  std::vector<Sample> samples;
};

std::vector<double> grid(util::Rng& rng) {
  const double phase = rng.uniform(0.0, 1.0);
  const double lo = std::log(kGridLoMbps), hi = std::log(kGridHiMbps);
  std::vector<double> g;
  for (int k = 0; k < kGridPoints; ++k)
    g.push_back(std::exp(lo + (k + phase) / kGridPoints * (hi - lo)));
  return g;
}

PassOutput run_pass(const Setup& setup, util::Rng& rng, int sample_phase) {
  const std::vector<double> bandwidths = grid(rng);
  PassOutput out;
  struct Pending {
    const Model* model;
    core::Strategy strategy;
    core::PlanSweep sweep;
    std::size_t k;
    core::ExecutionPlan scalar, materialized;
  };
  std::vector<Pending> pending;
  std::size_t pair = 0;
  const auto start = Clock::now();
  for (const Model& m : setup.models) {
    for (const core::Strategy strategy : servable_strategies()) {
      const bool sampled = pair % kSamplePairEvery == 0;
      const std::size_t k = (pair + static_cast<std::size_t>(sample_phase)) % kGridPoints;
      ++pair;
      for (const int n : kJobCounts) {
        core::PlanSweep sweep = m.planner->plan_sweep(strategy, n, bandwidths, setup.channel);
        out.points += sweep.size();
        out.jobs += static_cast<double>(n) * static_cast<double>(sweep.size());
        if (sampled) {
          Pending p{&m, strategy, sweep, k, {}, {}};
          p.materialized = m.planner->materialize(sweep, k, setup.channel);
          p.scalar = core::Planner(m.planner->curve().with_bandwidth(
                                       setup.channel, bandwidths[k]))
                         .plan(strategy, n);
          pending.push_back(std::move(p));
        }
      }
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (const Pending& p : pending) {
    Sample s;
    s.key = {p.model->name, p.strategy, p.sweep.n_jobs, p.sweep.bandwidth_mbps[p.k]};
    const int n_a = p.sweep.n_a[p.k];
    if (n_a > 0) s.sweep_mix[p.sweep.cut_a[p.k]] += n_a;
    if (p.sweep.n_jobs - n_a > 0) s.sweep_mix[p.sweep.cut_b[p.k]] += p.sweep.n_jobs - n_a;
    s.sweep_makespan = p.sweep.makespan_ms[p.k];
    s.scalar_mix = plan_mix(p.scalar);
    s.scalar_makespan = p.scalar.predicted_makespan;
    s.materialized_mix = plan_mix(p.materialized);
    s.materialized_makespan = p.materialized.predicted_makespan;
    out.samples.push_back(std::move(s));
  }
  return out;
}

void verify(const Options& options, std::vector<Sample>& samples, Result& result) {
  for (Sample& s : samples) {
    if (inject_now(options, "point"))
      s.sweep_makespan = std::nextafter(s.sweep_makespan, 1e300);
    const std::string where = s.key.model + "/" + strategy_cli_name(s.key.strategy) +
                              "/n" + std::to_string(s.key.n_jobs) + "@" +
                              std::to_string(s.key.bandwidth_mbps);
    if (s.sweep_makespan != s.scalar_makespan || s.sweep_mix != s.scalar_mix)
      result.problem("sweep point differs from the scalar planner: " + where);
    if (s.materialized_makespan != s.scalar_makespan || s.materialized_mix != s.scalar_mix)
      result.problem("materialized point differs from the scalar planner: " + where);
  }
}

/// Run passes for `seconds`; verifies every sample.
std::vector<PassOutput> run_passes(const Options& options, const Setup& setup,
                                   util::Rng& rng, int sample_phase,
                                   double seconds, Result& result) {
  std::vector<PassOutput> passes;
  double spent = 0.0;
  while (spent < seconds || passes.size() < 3) {
    passes.push_back(run_pass(setup, rng, sample_phase));
    spent += passes.back().seconds;
    verify(options, passes.back().samples, result);
    // Memory must not grow with the pass count; the first pass's samples
    // stay as the traced run's probe keys.
    if (passes.size() > 1) std::vector<Sample>().swap(passes.back().samples);
    result.attempted += passes.back().points;
    result.succeeded += passes.back().points;
  }
  return passes;
}

}  // namespace

Result run_sweep(const Options& options) {
  Result result;
  util::Rng rng(stream_seed(options.seed, 2));
  const int sample_phase = static_cast<int>(rng.uniform_int(0, kGridPoints - 1));
  result.record.set("grid", std::to_string(kGridPoints) +
                                " log-spaced points over 1-80 Mbps, seeded phase per pass");
  result.record.set("n_jobs", "50, 4096");
  result.record.set("sample_pair_every", kSamplePairEvery);
  result.record.set("sample_phase", sample_phase);

  std::vector<double> setups;
  Setup setup;
  for (int r = 0; r < kSetupReplicates; ++r) {
    setup = Setup{};
    setups.push_back(time_s([&] { setup = build_setup(); }));
  }

  if (options.trace) {
    const double half = std::max(0.5, options.seconds * 0.15);
    auto median_pass = [](const std::vector<PassOutput>& ps) {
      std::vector<double> t;
      for (const PassOutput& p : ps) t.push_back(p.seconds);
      return median(t);
    };
    const auto untraced = run_passes(options, setup, rng, sample_phase, half, result);
    obs::set_enabled(true);
    const auto traced = run_passes(options, setup, rng, sample_phase, half, result);
    obs::set_enabled(false);
    obs::Registry::global().reset();
    result.metric("obs.tracing_overhead_pct",
                  (median_pass(traced) / median_pass(untraced) - 1.0) * 100.0, "%");
    ProbeInputs inputs;
    for (const PassOutput& p : untraced)
      for (const Sample& s : p.samples) inputs.keys.push_back(s.key);
    ReplyOracle oracle;
    (void)run_span_probe(options, inputs.keys, {}, 100.0, std::max(1.0, options.seconds * 0.15),
                         oracle, result);
    run_layer_probes(inputs, options.seed, result);
    run_runtime_probe(options, 1.0, result);
    return result;
  }

  const std::vector<PassOutput> passes =
      run_passes(options, setup, rng, sample_phase, options.seconds, result);
  // Every pass does the same work, so throughput is taken at the median
  // pass: a pass that a host stall stretched does not move it.
  std::vector<double> pass_ms;
  for (const PassOutput& p : passes) pass_ms.push_back(p.seconds * 1e3);
  const double pass_s = median(pass_ms) / 1e3;
  const double points = static_cast<double>(passes.front().points);
  result.record.set("passes", static_cast<double>(passes.size()));
  result.record.set("points_per_pass", points);
  util::Json times = util::Json::array();
  for (const double ms : pass_ms) times.push_back(ms);
  result.record.set("pass_ms", std::move(times));
  result.metric("setup_s", median(setups), "s", setups);
  result.metric("p50_ms", quantile(pass_ms, 0.50), "ms", pass_ms);
  result.metric("p90_ms", quantile(pass_ms, 0.90), "ms", pass_ms);
  result.metric("p99_ms", quantile(pass_ms, 0.99), "ms", pass_ms);
  result.metric("max_rate_rps", 1.0 / pass_s, "req/s");
  result.metric("plans_per_sec", points / pass_s, "1/s");
  result.metric("jobs_per_sec", passes.front().jobs / pass_s, "1/s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

}  // namespace perfbench
