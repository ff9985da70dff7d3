// Google-benchmark micro suite: the costs behind Fig. 12(d)'s "overhead is
// negligible" claim — curve construction, Alg. 2 binary search vs linear
// scan, Johnson's rule, full planning, and the simulator's event throughput —
// plus the parallel-runtime costs: pooled vs spawn-per-call parallel_for,
// Monte-Carlo campaign throughput, and cached vs uncached bandwidth sweeps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_cache.h"
#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/binary_search.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "sched/johnson.h"
#include "sched/makespan.h"
#include "sim/executor.h"
#include "sim/monte_carlo.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace jps;

const dnn::Graph& alexnet_graph() {
  static const dnn::Graph g = models::build("alexnet");
  return g;
}

const profile::LatencyModel& mobile_model() {
  static const profile::LatencyModel m(
      profile::DeviceProfile::raspberry_pi_4b());
  return m;
}

partition::ProfileCurve alexnet_curve() {
  return partition::ProfileCurve::build(alexnet_graph(), mobile_model(),
                                        net::Channel::preset_4g());
}

// Synthetic monotone curve with k cut points (for scaling curves).
partition::ProfileCurve synthetic_curve(int k) {
  std::vector<partition::CutPoint> cuts;
  for (int i = 0; i <= k; ++i) {
    partition::CutPoint c;
    c.f = static_cast<double>(i);
    c.g = static_cast<double>(k - i);
    c.offload_bytes = i == k ? 0 : 1000;
    cuts.push_back(c);
  }
  partition::CurveOptions opt;
  opt.cluster = false;
  return partition::ProfileCurve::from_candidates("bench", std::move(cuts),
                                                  opt);
}

void BM_BuildModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::build("alexnet"));
  }
}
BENCHMARK(BM_BuildModel);

void BM_BuildCurve(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(alexnet_curve());
  }
}
BENCHMARK(BM_BuildCurve);

void BM_BinarySearchCut(benchmark::State& state) {
  const auto curve = synthetic_curve(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::binary_search_cut(curve));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BinarySearchCut)->RangeMultiplier(4)->Range(8, 8192)->Complexity(
    benchmark::oLogN);

void BM_LinearScanCut(benchmark::State& state) {
  const auto curve = synthetic_curve(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::linear_scan_cut(curve));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LinearScanCut)->RangeMultiplier(4)->Range(8, 8192)->Complexity(
    benchmark::oN);

void BM_JohnsonOrder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  sched::JobList jobs;
  for (std::size_t i = 0; i < n; ++i)
    jobs.push_back(sched::Job{.id = static_cast<int>(i),
                              .cut = 0,
                              .f = rng.uniform(0.0, 10.0),
                              .g = rng.uniform(0.0, 10.0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::johnson_order(jobs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JohnsonOrder)->RangeMultiplier(8)->Range(8, 32768)->Complexity();

void BM_PlanJps(benchmark::State& state) {
  const core::Planner planner(alexnet_curve());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(core::Strategy::kJPS, n));
  }
}
BENCHMARK(BM_PlanJps)->Arg(10)->Arg(100)->Arg(1000);

void BM_PlanJpsHull(benchmark::State& state) {
  const core::Planner planner(alexnet_curve());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(core::Strategy::kJPSHull, n));
  }
}
// The two-type split is O(1) in the job count and assembling the plan O(n)
// (it used to assemble a plan per candidate split: O(n^2 log n)), so job
// counts in the tens of thousands plan in microseconds.
BENCHMARK(BM_PlanJpsHull)->Arg(10)->Arg(100)->Arg(1000)->Arg(100000);

void BM_PlanJpsTuned(benchmark::State& state) {
  const core::Planner planner(alexnet_curve());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(core::Strategy::kJPSTuned, n));
  }
}
BENCHMARK(BM_PlanJpsTuned)->Arg(100)->Arg(1000)->Arg(100000);

void BM_Flowshop2Makespan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  sched::JobList jobs;
  for (std::size_t i = 0; i < n; ++i)
    jobs.push_back(sched::Job{.id = static_cast<int>(i),
                              .cut = 0,
                              .f = rng.uniform(0.0, 10.0),
                              .g = rng.uniform(0.0, 10.0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::flowshop2_makespan(jobs));
  }
}
BENCHMARK(BM_Flowshop2Makespan)->Arg(100)->Arg(10000);

void BM_SimulatePlan(benchmark::State& state) {
  const dnn::Graph& g = alexnet_graph();
  const auto curve = alexnet_curve();
  const core::Planner planner(curve);
  const core::ExecutionPlan plan =
      planner.plan(core::Strategy::kJPS, static_cast<int>(state.range(0)));
  const profile::LatencyModel cloud(profile::DeviceProfile::cloud_gtx1080());
  const net::Channel channel = net::Channel::preset_4g();
  for (auto _ : state) {
    util::Rng rng(3);
    benchmark::DoNotOptimize(sim::simulate_plan(
        g, curve, plan, mobile_model(), cloud, channel, {}, rng));
  }
}
BENCHMARK(BM_SimulatePlan)->Arg(10)->Arg(100);

// --- Parallel runtime -----------------------------------------------------

// A deliberately small per-index body: thread churn dominates exactly here.
void busy_body(std::size_t i, std::atomic<long long>& acc) {
  double x = static_cast<double>(i);
  for (int k = 0; k < 64; ++k) x = x * 1.0000001 + 0.5;
  acc.fetch_add(static_cast<long long>(x), std::memory_order_relaxed);
}

// The seed implementation: spawn and join a fresh std::thread team on every
// call.  Kept here (only) as the baseline the pooled dispatch replaced.
void spawn_per_call_parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  const std::size_t threads =
      std::min<std::size_t>(util::default_thread_count(), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::thread> team;
  const std::size_t chunk = (count + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    team.emplace_back([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }
  for (auto& th : team) th.join();
}

void BM_ParallelForSpawnPerCall(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::atomic<long long> acc{0};
  for (auto _ : state)
    spawn_per_call_parallel_for(count,
                                [&](std::size_t i) { busy_body(i, acc); });
  benchmark::DoNotOptimize(acc.load());
}
BENCHMARK(BM_ParallelForSpawnPerCall)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ParallelForPooled(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::atomic<long long> acc{0};
  for (auto _ : state)
    util::parallel_for(count, [&](std::size_t i) { busy_body(i, acc); });
  benchmark::DoNotOptimize(acc.load());
}
BENCHMARK(BM_ParallelForPooled)->Arg(64)->Arg(1024)->Arg(16384);

// Monte-Carlo campaign throughput.  Arg = thread cap (0 = all cores via the
// shared pool); compare Arg(1) to Arg(0) for the parallel speedup on this
// machine.  The summaries are bit-identical across thread counts.
void BM_MonteCarloMakespan(benchmark::State& state) {
  const dnn::Graph& g = alexnet_graph();
  const auto curve = alexnet_curve();
  const core::Planner planner(curve);
  const core::ExecutionPlan plan = planner.plan(core::Strategy::kJPS, 20);
  const profile::LatencyModel cloud(profile::DeviceProfile::cloud_gtx1080());
  const net::Channel channel = net::Channel::preset_4g();
  sim::MonteCarloOptions options;
  options.trials = 1000;
  options.comp_noise_sigma = 0.10;
  options.comm_noise_sigma = 0.10;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::monte_carlo_makespan(
        g, curve, plan, mobile_model(), cloud, channel, options));
  }
  state.counters["trials"] = static_cast<double>(options.trials);
}
BENCHMARK(BM_MonteCarloMakespan)->Arg(1)->Arg(0);

// --- Plan cache -----------------------------------------------------------

const std::vector<double>& sweep_bandwidths() {
  static const std::vector<double> mbps = [] {
    std::vector<double> v;
    for (double b = 1.0; b <= 20.0; b += 1.0) v.push_back(b);
    return v;
  }();
  return mbps;
}

// One fig13-style column: curve + JPS plan per bandwidth, rebuilt from
// scratch every time (the pre-cache serving cost).
void BM_BandwidthSweepUncached(benchmark::State& state) {
  const dnn::Graph& g = alexnet_graph();
  for (auto _ : state) {
    double total = 0.0;
    for (const double mbps : sweep_bandwidths()) {
      const auto curve = partition::ProfileCurve::build(g, mobile_model(),
                                                        net::Channel(mbps));
      total +=
          core::Planner(curve).plan(core::Strategy::kJPS, 100).predicted_makespan;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_BandwidthSweepUncached);

// The same sweep through a PlanCache: the first iteration misses, every
// later one is pure lookup.  The reported hit_rate counter approaches 1.
void BM_BandwidthSweepCached(benchmark::State& state) {
  const dnn::Graph& g = alexnet_graph();
  core::PlanCache cache;
  const std::string device = profile::DeviceProfile::raspberry_pi_4b().name;
  for (auto _ : state) {
    double total = 0.0;
    for (const double mbps : sweep_bandwidths()) {
      const auto curve =
          cache.curve({"alexnet", device, mbps}, [&] {
            return partition::ProfileCurve::build(g, mobile_model(),
                                                  net::Channel(mbps));
          });
      const auto plan =
          cache.plan({"alexnet", device, mbps, core::Strategy::kJPS, 100},
                     [&] {
                       return core::Planner(*curve).plan(core::Strategy::kJPS,
                                                         100);
                     });
      total += plan->predicted_makespan;
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_BandwidthSweepCached);

}  // namespace

BENCHMARK_MAIN();
