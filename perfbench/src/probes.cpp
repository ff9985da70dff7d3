// In-process per-layer probes.  Each layer is timed from outside, through
// its public functions, on the workload's own plan questions; nothing here
// adds tracing to the program.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/plan_cache.h"
#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/profile_curve.h"
#include "profile/latency_model.h"
#include "sched/makespan.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace jps;

namespace {

/// Median per-call seconds of `fn` over batches of `calls` calls, batches
/// repeated until `budget_s` is spent (at least 3).
double per_call_s(const std::function<void()>& fn, int calls, double budget_s) {
  std::vector<double> per_call;
  double spent = 0.0;
  while (spent < budget_s || per_call.size() < 3) {
    const double t = time_s([&] {
      for (int i = 0; i < calls; ++i) fn();
    });
    spent += t;
    per_call.push_back(t / calls);
  }
  return median(per_call);
}

/// The workload's distinct keys, in first-seen order, at most `max`.
std::vector<PlanKey> distinct_keys(const std::vector<PlanKey>& keys, std::size_t max) {
  std::set<std::tuple<std::string, int, int, double>> seen;
  std::vector<PlanKey> out;
  for (const PlanKey& k : keys) {
    if (out.size() >= max) break;
    if (seen.emplace(k.model, static_cast<int>(k.strategy), k.n_jobs,
                     serve::quantize_bandwidth(k.bandwidth_mbps, kBucketMbps))
            .second)
      out.push_back(k);
  }
  return out;
}

/// Graphs and bucket curves for the keys, built once.
class Curves {
 public:
  const dnn::Graph& graph(const std::string& model) {
    auto it = graphs_.find(model);
    if (it == graphs_.end())
      it = graphs_.emplace(model, std::make_unique<dnn::Graph>(models::build(model))).first;
    return *it->second;
  }
  const partition::ProfileCurve& curve(const PlanKey& k) {
    const double bucket = serve::quantize_bandwidth(k.bandwidth_mbps, kBucketMbps);
    const auto key = std::make_pair(k.model, bucket);
    auto it = curves_.find(key);
    if (it == curves_.end())
      it = curves_.emplace(key, partition::ProfileCurve::build(graph(k.model), mobile_,
                                                                 net::Channel(bucket)))
               .first;
    return it->second;
  }
  const profile::LatencyModel& mobile() const { return mobile_; }

 private:
  profile::LatencyModel mobile_{serve::ServerOptions{}.device};
  std::map<std::string, std::unique_ptr<dnn::Graph>> graphs_;
  std::map<std::pair<std::string, double>, partition::ProfileCurve> curves_;
};

void probe_serve_layers(const ProbeInputs& in, Result& result) {
  ReplyOracle oracle;
  // protocol: request + reply encode/decode on the workload's own frames.
  const std::vector<PlanKey> sample = distinct_keys(in.keys, 64);
  std::vector<serve::PlanRequest> requests;
  std::vector<serve::PlanReply> replies;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    requests.push_back(request_of(sample[i], in.tenants.empty() ? "" : in.tenants[i % in.tenants.size()]));
    const ExpectedReply want = oracle.expected(sample[i]);
    serve::PlanReply reply;
    reply.status = serve::Status::kOk;
    reply.bandwidth_bucket_mbps = want.bucket_mbps;
    reply.makespan_ms = want.makespan_ms;
    reply.mix = want.mix;
    replies.push_back(reply);
  }
  std::size_t next = 0;
  const double codec_s = per_call_s(
      [&] {
        const std::size_t i = next++ % requests.size();
        const serve::PlanRequest back =
            serve::decode_plan_request(serve::encode_plan_request(requests[i]));
        const serve::PlanReply reply_back =
            serve::decode_plan_reply(serve::encode_plan_reply(replies[i]));
        if (back.n_jobs != requests[i].n_jobs || reply_back.mix != replies[i].mix)
          result.problem("protocol round trip changed a frame");
      },
      256, 0.2);
  result.metric("protocol.codec_ns", codec_s * 1e9, "ns");

  // server: in-process Server::handle_plan over the request stream.
  {
    serve::Server server;
    for (const PlanKey& k : in.warm) (void)server.handle_plan(request_of(k, "warm"));
    std::vector<double> us;
    double spent = 0.0;
    for (std::size_t i = 0; i < in.keys.size() && (spent < 1.0 || us.size() < 100); ++i) {
      const serve::PlanRequest r =
          request_of(in.keys[i], in.tenants.empty() ? "" : in.tenants[i % in.tenants.size()]);
      serve::PlanReply reply;
      const double t = time_s([&] { reply = server.handle_plan(r); });
      spent += t;
      us.push_back(t * 1e6);
      if (i < 64) {
        const std::string why = oracle.check(in.keys[i], reply);
        if (!why.empty()) result.problem("in-process handle_plan mismatch: " + why);
      }
    }
    result.metric("server.handle_plan_us.p50", quantile(us, 0.5), "us");
    result.metric("server.handle_plan_us.p99", quantile(us, 0.99), "us");
    server.stop();
  }

  // admission: the shipped default (no per-tenant limit).
  {
    const serve::ServerOptions defaults;
    serve::TenantAdmission admission(defaults.tenant_rate_per_sec, defaults.tenant_burst);
    std::vector<std::string> tenants = in.tenants;
    if (tenants.empty()) tenants = {""};
    std::size_t i = 0;
    const double s = per_call_s(
        [&] {
          if (!admission.admit(tenants[i++ % tenants.size()], now_s() * 1e3))
            result.problem("admission refused under the default policy");
        },
        1024, 0.1);
    result.metric("admission.admit_ns", s * 1e9, "ns");
  }
}

void probe_cache(const ProbeInputs& in, Curves& curves, Result& result) {
  const std::string device = serve::ServerOptions{}.device.name;
  auto cache_key = [&](const PlanKey& k) {
    return core::PlanCacheKey(k.model, device,
                              serve::quantize_bandwidth(k.bandwidth_mbps, kBucketMbps),
                              k.strategy, k.n_jobs);
  };
  auto build = [&](const PlanKey& k) {
    return core::Planner(curves.curve(k)).plan(k.strategy, k.n_jobs);
  };
  // Memory per entry: fill a fresh cache with the workload's distinct keys
  // (curves built beforehand, so only plans and cache nodes are counted).
  const std::vector<PlanKey> keys = distinct_keys(in.keys, 1000);
  for (const PlanKey& k : keys) (void)curves.curve(k);
  core::ShardedPlanCache cache;
  const double before_kb = rss_kb();
  for (const PlanKey& k : keys) (void)cache.plan(cache_key(k), [&] { return build(k); });
  const double after_kb = rss_kb();
  result.metric("cache.entries", static_cast<double>(cache.plan_count()), "count");
  result.metric("cache.rss_kb_per_entry",
                keys.empty() ? 0.0 : (after_kb - before_kb) / static_cast<double>(keys.size()),
                "KiB");
  // A hit: ShardedPlanCache::plan on a present key.
  std::size_t i = 0;
  const double s = per_call_s(
      [&] {
        const PlanKey& k = keys[i++ % keys.size()];
        (void)cache.plan(cache_key(k), [&]() -> core::ExecutionPlan {
          throw std::logic_error("cache miss on a present key");
        });
      },
      256, 0.1);
  result.metric("cache.hit_lookup_us", s * 1e6, "us");
}

void probe_planner(const ProbeInputs& in, Curves& curves, std::uint64_t seed, Result& result) {
  const std::vector<PlanKey> keys = distinct_keys(in.keys, 64);
  // Planner::plan by job-count class; keys outside a class are re-asked
  // with the class's representative n.
  for (const auto& [label, lo, hi, fallback] :
       {std::make_tuple("small", 1, 64, 50), std::make_tuple("large", 512, 1 << 30, 1024)}) {
    std::vector<PlanKey> cls;
    for (const PlanKey& k : keys)
      if (k.n_jobs >= lo && k.n_jobs <= hi) cls.push_back(k);
    if (cls.empty()) {
      for (PlanKey k : keys) {
        k.n_jobs = fallback;
        cls.push_back(k);
      }
    }
    std::vector<core::Planner> planners;
    for (const PlanKey& k : cls) planners.emplace_back(curves.curve(k));
    std::size_t i = 0;
    const double s = per_call_s(
        [&] {
          const std::size_t j = i++ % cls.size();
          (void)planners[j].plan(cls[j].strategy, cls[j].n_jobs);
        },
        8, 0.15);
    result.metric(std::string("core.plan_us.") + label, s * 1e6, "us");
  }

  // plan_sweep / materialize / best_two_type_split on the workload's
  // (model, strategy) pairs.
  std::set<std::pair<std::string, int>> seen;
  std::vector<PlanKey> pairs;
  for (const PlanKey& k : keys)
    if (seen.emplace(k.model, static_cast<int>(k.strategy)).second) pairs.push_back(k);
  util::Rng rng(stream_seed(seed, 5));
  std::vector<double> grid;
  for (int p = 0; p < 16; ++p) grid.push_back(std::exp(rng.uniform(0.0, std::log(80.0))));
  std::sort(grid.begin(), grid.end());
  const net::Channel channel(5.85);
  for (const int n : {50, 4096}) {
    std::vector<core::Planner> planners;
    for (const PlanKey& k : pairs) planners.emplace_back(curves.curve(k));
    std::size_t i = 0;
    std::vector<core::PlanSweep> sweeps(pairs.size());
    const double s = per_call_s(
        [&] {
          const std::size_t j = i++ % pairs.size();
          sweeps[j] = planners[j].plan_sweep(pairs[j].strategy, n, grid, channel);
        },
        static_cast<int>(pairs.size()), 0.15);
    result.metric("core.plan_sweep_ns_per_point.n" + std::to_string(n),
                  s / static_cast<double>(grid.size()) * 1e9, "ns");
    if (n == 4096) {
      std::size_t m = 0;
      const double ms = per_call_s(
          [&] {
            const std::size_t j = m++ % pairs.size();
            (void)planners[j].materialize(sweeps[j], m % grid.size(), channel);
          },
          4, 0.15);
      result.metric("core.materialize_us", ms * 1e6, "us");
    }
  }
  std::vector<std::array<double, 4>> lanes;
  for (const PlanKey& k : pairs) {
    const partition::ProfileCurve& c = curves.curve(k);
    for (std::size_t a = 0; a + 1 < c.size(); ++a)
      lanes.push_back({c.f(a), c.g(a), c.f(a + 1), c.g(a + 1)});
  }
  std::size_t l = 0;
  const double split_s = per_call_s(
      [&] {
        const auto& v = lanes[l++ % lanes.size()];
        (void)core::best_two_type_split(v[0], v[1], v[2], v[3], 4096);
      },
      16, 0.15);
  result.metric("core.best_two_type_split_ns.n4096", split_s * 1e9, "ns");

  // sched: the 2-stage recurrence on a 4096-job plan of the first pair.
  const core::ExecutionPlan big =
      core::Planner(curves.curve(pairs.front())).plan(pairs.front().strategy, 4096);
  const double fs = per_call_s(
      [&] { (void)sched::flowshop2_makespan(big.f_lane, big.g_lane); }, 16, 0.1);
  result.metric("sched.flowshop2_makespan_ns", fs * 1e9, "ns");
}

void probe_partition(const ProbeInputs& in, Curves& curves, Result& result) {
  const std::vector<PlanKey> keys = distinct_keys(in.keys, 64);
  std::size_t i = 0;
  const double build_s = per_call_s(
      [&] {
        const PlanKey& k = keys[i++ % keys.size()];
        (void)partition::ProfileCurve::build(
            curves.graph(k.model), curves.mobile(),
            net::Channel(serve::quantize_bandwidth(k.bandwidth_mbps, kBucketMbps)));
      },
      4, 0.2);
  result.metric("partition.curve_build_us", build_s * 1e6, "us");
  const net::Channel channel(5.85);
  std::size_t j = 0;
  const double rebase_s = per_call_s(
      [&] {
        const PlanKey& k = keys[j++ % keys.size()];
        (void)curves.curve(k).with_bandwidth(channel, k.bandwidth_mbps * 1.5);
      },
      16, 0.1);
  result.metric("partition.with_bandwidth_us", rebase_s * 1e6, "us");

  std::set<std::string> names;
  for (const PlanKey& k : keys) names.insert(k.model);
  std::vector<double> per_model;
  for (const std::string& m : names) {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) t.push_back(time_s([&] { (void)models::build(m); }));
    per_model.push_back(median(t) * 1e3);
  }
  result.metric("models.build_ms", mean(per_model), "ms");
}

}  // namespace

void run_layer_probes(const ProbeInputs& inputs, std::uint64_t seed, Result& result) {
  if (inputs.keys.empty()) throw std::invalid_argument("run_layer_probes: no keys");
  Curves curves;
  probe_serve_layers(inputs, result);
  probe_cache(inputs, curves, result);
  probe_planner(inputs, curves, seed, result);
  probe_partition(inputs, curves, result);
}

}  // namespace perfbench
