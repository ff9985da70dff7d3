// execute: the paper's deploy loop with real kernels.  The synthetic CNN of
// ext_host_runtime is profiled on this host (runtime::profile_on_host ->
// lookup table), planned with JPS+ at 5.85 Mbps for 20 jobs, and the plan
// is executed repeatedly: each job's mobile prefix, then its cloud suffix
// starting from the cut tensors, every layer through runtime::run_layer.
// The stages run back to back on this host; the uplink is not timed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "core/planner.h"
#include "models/registry.h"
#include "models/zoo.h"
#include "net/channel.h"
#include "obs/obs.h"
#include "partition/profile_curve.h"
#include "profile/lookup_table.h"
#include "runtime/graph_runner.h"
#include "runtime/host_profiler.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace jps;

namespace {

constexpr double kUplinkMbps = 5.85;
constexpr int kJobs = 20;
constexpr int kSetupReplicates = 3;

enum KindBucket { kConv = 0, kPool = 1, kDense = 2, kOther = 3 };

KindBucket bucket_of(dnn::LayerKind kind) {
  switch (kind) {
    case dnn::LayerKind::kConv2d: return kConv;
    case dnn::LayerKind::kPool2d: return kPool;
    case dnn::LayerKind::kDense: return kDense;
    default: return kOther;
  }
}

dnn::Graph synthetic_cnn() {
  models::SyntheticLineSpec spec;
  spec.blocks = 6;
  spec.input_size = 64;
  spec.base_channels = 16;
  spec.fc_sizes = {64, 10};
  dnn::Graph g = models::synthetic_line(spec);
  g.infer();
  return g;
}

/// Everything set-up produces.
struct Deploy {
  std::unique_ptr<dnn::Graph> graph;
  std::unique_ptr<runtime::WeightStore> weights;
  std::vector<profile::ProfileRecord> records;
  partition::ProfileCurve curve;
  core::ExecutionPlan plan;
  double weights_s = 0.0;
  double profile_s = 0.0;
};

Deploy deploy(std::uint64_t seed) {
  Deploy d;
  d.graph = std::make_unique<dnn::Graph>(synthetic_cnn());
  d.weights_s = time_s([&] {
    d.weights = std::make_unique<runtime::WeightStore>(*d.graph, seed);
  });
  runtime::HostProfilerOptions options;
  options.seed = seed;
  d.profile_s = time_s([&] { d.records = runtime::profile_on_host(*d.graph, options); });
  profile::LookupTable table;
  table.add_graph(*d.graph, d.records);
  d.curve = partition::ProfileCurve::build(*d.graph, table, net::Channel(kUplinkMbps));
  d.plan = core::Planner(d.curve).plan(core::Strategy::kJPSHull, kJobs);
  return d;
}

/// Per-window execution statistics.
struct ExecStats {
  std::vector<double> job_ms;
  double mobile_ms = 0.0, cloud_ms = 0.0;
  double kind_ms[4] = {0, 0, 0, 0};
  double kind_calls[4] = {0, 0, 0, 0};
  double flops = 0.0, layer_s = 0.0;
  double cut_bytes = 0.0;
  std::map<dnn::NodeId, std::pair<double, double>> node_ms;  // sum, calls
  std::size_t jobs = 0;
  double seconds = 0.0;
};

/// Execute the plan's jobs in schedule order, repeatedly, for `seconds`.
/// Job j uses input j % inputs.size(); its output is compared with
/// run_graph_output afterwards.
ExecStats execute(const Options& options, const Deploy& d,
                  const std::vector<runtime::Tensor>& inputs, double seconds,
                  Result& result) {
  const dnn::Graph& g = *d.graph;
  ExecStats st;
  std::vector<std::pair<std::size_t, runtime::Tensor>> outputs;  // (input, sink)
  const auto start = Clock::now();
  std::size_t job = 0;
  while (st.seconds < seconds || st.jobs < kJobs) {
    const core::JobAssignment& a = d.plan.jobs[job % d.plan.jobs.size()];
    const partition::CutPoint& cut = d.curve.cut(a.cut_index);
    const std::size_t input_index = job % inputs.size();
    std::vector<bool> local(g.size(), false);
    local[g.source()] = true;
    for (const dnn::NodeId v : cut.local_nodes) local[v] = true;

    auto run_side = [&](std::vector<runtime::Tensor>& values, bool mobile) {
      double side_ms = 0.0;
      for (dnn::NodeId id = 0; id < g.size(); ++id) {
        if (local[id] != mobile || id == g.source()) continue;
        std::vector<runtime::Tensor> in;
        for (const dnn::NodeId p : g.predecessors(id)) in.push_back(values[p]);
        const auto t0 = Clock::now();
        values[id] = runtime::run_layer(g.layer(id), in, d.weights->weights(id));
        const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        side_ms += ms;
        const KindBucket b = bucket_of(g.layer(id).kind());
        st.kind_ms[b] += ms;
        st.kind_calls[b] += 1;
        st.flops += g.info(id).flops;
        auto& [sum, calls] = st.node_ms[id];
        sum += ms;
        calls += 1;
      }
      return side_ms;
    };

    std::vector<runtime::Tensor> mobile(g.size());
    mobile[g.source()] = inputs[input_index];
    const double mobile_ms = run_side(mobile, true);
    // The cut tensors: every mobile-side value a cloud-side layer reads.
    std::vector<runtime::Tensor> cloud(g.size());
    std::set<dnn::NodeId> sent;
    for (dnn::NodeId id = 0; id < g.size(); ++id) {
      if (local[id]) continue;
      for (const dnn::NodeId p : g.predecessors(id)) {
        if (local[p] && sent.insert(p).second) {
          cloud[p] = mobile[p];
          st.cut_bytes += static_cast<double>(mobile[p].size() * sizeof(float));
        }
      }
    }
    const double cloud_ms = run_side(cloud, false);
    const dnn::NodeId sink = g.sink();
    outputs.emplace_back(input_index, local[sink] ? mobile[sink] : cloud[sink]);
    st.job_ms.push_back(mobile_ms + cloud_ms);
    st.mobile_ms += mobile_ms;
    st.cloud_ms += cloud_ms;
    st.layer_s += (mobile_ms + cloud_ms) / 1e3;
    ++st.jobs;
    ++job;
    st.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }

  // Off the clock: every split output equals the whole-graph run.
  std::vector<runtime::Tensor> reference;
  for (const runtime::Tensor& in : inputs)
    reference.push_back(runtime::run_graph_output(g, in, *d.weights));
  for (auto& [index, out] : outputs) {
    if (inject_now(options, "output") && out.size() > 0) out[0] += 1.0f;
    const runtime::Tensor& want = reference[index];
    if (!(out.shape() == want.shape()) ||
        std::memcmp(out.data(), want.data(), want.size() * sizeof(float)) != 0)
      result.problem("split execution output differs from run_graph_output on input " +
                     std::to_string(index));
  }
  result.attempted += st.jobs;
  result.succeeded += st.jobs;
  return st;
}

std::vector<runtime::Tensor> make_inputs(const dnn::Graph& g, std::uint64_t seed) {
  util::Rng rng(stream_seed(seed, 3));
  std::vector<runtime::Tensor> inputs;
  for (int i = 0; i < kJobs; ++i) inputs.push_back(runtime::random_input(g, rng));
  return inputs;
}

void runtime_metrics(const Deploy& d, const ExecStats& st, Result& result) {
  const double jobs = static_cast<double>(st.jobs);
  const char* names[4] = {"conv2d", "pool2d", "dense", "other"};
  for (int b = 0; b < 4; ++b)
    result.metric(std::string("runtime.layer_ms.") + names[b],
                  st.kind_calls[b] > 0 ? st.kind_ms[b] / st.kind_calls[b] : 0.0, "ms");
  result.metric("runtime.mobile_ms_per_job", st.mobile_ms / jobs, "ms");
  result.metric("runtime.cloud_ms_per_job", st.cloud_ms / jobs, "ms");
  result.metric("runtime.gflops", st.flops / st.layer_s / 1e9, "GFLOP/s");
  result.metric("runtime.cut_bytes_per_job", st.cut_bytes / jobs, "B");
  result.metric("runtime.weights_s", d.weights_s, "s");
  result.metric("runtime.profile_s", d.profile_s, "s");
  // Lookup-table prediction vs. this window's measured mean, per layer.
  double err = 0.0, total = 0.0;
  for (const profile::ProfileRecord& r : d.records) {
    auto it = st.node_ms.find(r.node);
    if (it == st.node_ms.end() || r.median_ms <= 0.0) continue;
    err += std::abs(it->second.first / it->second.second - r.median_ms);
    total += r.median_ms;
  }
  result.metric("profile.prediction_error_pct", total > 0 ? 100.0 * err / total : 0.0, "%");
}

util::Json plan_json(const Deploy& d) {
  std::map<std::size_t, int> mix;
  for (const core::JobAssignment& j : d.plan.jobs) ++mix[j.cut_index];
  util::Json m = util::Json::object();
  for (const auto& [cut, count] : mix) m.set("cut" + std::to_string(cut), count);
  return m;
}

}  // namespace

void run_runtime_probe(const Options& options, double seconds, Result& result) {
  const Deploy d = deploy(options.seed);
  const auto inputs = make_inputs(*d.graph, options.seed);
  const ExecStats st = execute(options, d, inputs, seconds, result);
  runtime_metrics(d, st, result);
}

Result run_execute(const Options& options) {
  Result result;
  result.record.set("model", "synthetic_line(blocks=6, input=64, base_channels=16, fc=64,10)");
  result.record.set("plan", "JPS+ at 5.85 Mbps, 20 jobs, from the host lookup table");

  std::vector<double> setups;
  Deploy d;
  for (int r = 0; r < kSetupReplicates; ++r) {
    d = Deploy{};
    setups.push_back(time_s([&] { d = deploy(options.seed); }));
  }
  result.record.set("plan_mix", plan_json(d));
  const auto inputs = make_inputs(*d.graph, options.seed);

  if (options.trace) {
    const double part = std::max(0.5, options.seconds * 0.2);
    const ExecStats untraced = execute(options, d, inputs, part, result);
    obs::set_enabled(true);
    const ExecStats traced = execute(options, d, inputs, part, result);
    obs::set_enabled(false);
    obs::Registry::global().reset();
    result.metric("obs.tracing_overhead_pct",
                  (median(traced.job_ms) / median(untraced.job_ms) - 1.0) * 100.0, "%");
    runtime_metrics(d, untraced, result);
    ProbeInputs probe;
    for (const std::string& m : models::paper_eval_names())
      probe.keys.push_back({m, core::Strategy::kJPSHull, kJobs, kUplinkMbps});
    ReplyOracle oracle;
    (void)run_span_probe(options, probe.keys, {}, 500.0, std::max(1.0, options.seconds * 0.15),
                         oracle, result);
    run_layer_probes(probe, options.seed, result);
    return result;
  }

  const ExecStats st = execute(options, d, inputs, options.seconds, result);
  // Throughput at the median job, as sweep takes it at the median pass: a
  // job a host stall stretched does not move it.
  const double jobs_per_s = 1e3 / quantile(st.job_ms, 0.50);
  result.record.set("jobs", static_cast<double>(st.jobs));
  result.metric("setup_s", median(setups), "s", setups);
  result.metric("p50_ms", quantile(st.job_ms, 0.50), "ms", st.job_ms);
  result.metric("p90_ms", quantile(st.job_ms, 0.90), "ms", st.job_ms);
  result.metric("p99_ms", quantile(st.job_ms, 0.99), "ms", st.job_ms);
  result.metric("max_rate_rps", jobs_per_s, "req/s");
  result.metric("plans_per_sec", jobs_per_s / kJobs, "1/s");
  result.metric("jobs_per_sec", jobs_per_s, "1/s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

}  // namespace perfbench
