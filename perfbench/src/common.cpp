#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

#include "core/planner.h"
#include "models/registry.h"
#include "net/channel.h"
#include "partition/profile_curve.h"
#include "profile/device.h"
#include "profile/latency_model.h"
#include "serve/server.h"

namespace perfbench {

using namespace jps;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double time_s(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

double proc_status_kb(pid_t pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(pid_t pid) { return proc_status_kb(pid, "VmHWM") / 1024.0; }
double rss_kb(pid_t pid) { return proc_status_kb(pid, "VmRSS"); }

std::string strategy_cli_name(core::Strategy strategy) {
  switch (strategy) {
    case core::Strategy::kLocalOnly: return "lo";
    case core::Strategy::kCloudOnly: return "co";
    case core::Strategy::kPartitionOnly: return "po";
    case core::Strategy::kJPS: return "jps";
    case core::Strategy::kJPSTuned: return "jps*";
    case core::Strategy::kJPSHull: return "jps+";
    default: return core::strategy_name(strategy);
  }
}

serve::PlanRequest request_of(const PlanKey& key, const std::string& tenant) {
  serve::PlanRequest request;
  request.tenant = tenant;
  request.model = key.model;
  request.bandwidth_mbps = key.bandwidth_mbps;
  request.strategy = key.strategy;
  request.n_jobs = key.n_jobs;
  return request;
}

const std::vector<core::Strategy>& servable_strategies() {
  static const std::vector<core::Strategy> kAll = {
      core::Strategy::kLocalOnly, core::Strategy::kCloudOnly,
      core::Strategy::kPartitionOnly, core::Strategy::kJPS,
      core::Strategy::kJPSTuned, core::Strategy::kJPSHull};
  return kAll;
}

ExpectedReply ReplyOracle::expected(const PlanKey& key) {
  const double bucket = serve::quantize_bandwidth(key.bandwidth_mbps, kBucketMbps);
  const auto memo_key = std::make_tuple(
      key.model, static_cast<int>(key.strategy), key.n_jobs, bucket);
  const auto curve_key = std::make_pair(key.model, bucket);
  std::shared_ptr<const dnn::Graph> graph;
  std::shared_ptr<const partition::ProfileCurve> curve;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = memo_.find(memo_key); it != memo_.end()) return it->second;
    if (auto it = curves_.find(curve_key); it != curves_.end()) curve = it->second;
    if (auto it = graphs_.find(key.model); it != graphs_.end()) graph = it->second;
  }
  if (!curve) {
    if (!graph) {
      auto built = std::make_shared<const dnn::Graph>(models::build(key.model));
      std::lock_guard<std::mutex> lock(mutex_);
      graph = graphs_.emplace(key.model, std::move(built)).first->second;
    }
    // The device the daemon plans for under its shipped defaults.
    const profile::LatencyModel mobile(serve::ServerOptions{}.device);
    auto built = std::make_shared<const partition::ProfileCurve>(
        partition::ProfileCurve::build(*graph, mobile, net::Channel(bucket)));
    std::lock_guard<std::mutex> lock(mutex_);
    curve = curves_.emplace(curve_key, std::move(built)).first->second;
  }
  const core::ExecutionPlan plan = core::Planner(*curve).plan(key.strategy, key.n_jobs);
  ExpectedReply want;
  want.bucket_mbps = bucket;
  want.makespan_ms = plan.predicted_makespan;
  std::map<std::size_t, std::uint32_t> mix;
  for (const core::JobAssignment& job : plan.jobs) ++mix[job.cut_index];
  for (const auto& [cut, count] : mix)
    want.mix.push_back({static_cast<std::uint32_t>(cut), count});
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.emplace(memo_key, want);
  return want;
}

std::string ReplyOracle::check(const PlanKey& key,
                               const serve::PlanReply& reply) {
  if (reply.status != serve::Status::kOk)
    return std::string("status ") + serve::status_name(reply.status);
  const ExpectedReply want = expected(key);
  std::ostringstream why;
  why.precision(17);
  if (reply.bandwidth_bucket_mbps != want.bucket_mbps)
    why << "bucket " << reply.bandwidth_bucket_mbps << " != " << want.bucket_mbps;
  else if (reply.makespan_ms != want.makespan_ms)
    why << "makespan " << reply.makespan_ms << " != " << want.makespan_ms;
  else if (reply.mix != want.mix)
    why << "cut mix differs";
  if (why.str().empty()) return {};
  return key.model + "/" + strategy_cli_name(key.strategy) + "/n" +
         std::to_string(key.n_jobs) + "@" + std::to_string(key.bandwidth_mbps) +
         ": " + why.str();
}

void Result::problem(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

void Result::invalid(const std::string& what) {
  valid = false;
  if (problems.size() < 8) problems.push_back("invalid run: " + what);
}

util::Json Result::to_json() const {
  util::Json out = util::Json::object();
  out.set("correct", correct);
  out.set("valid", valid);
  out.set("attempted", static_cast<double>(attempted));
  out.set("succeeded", static_cast<double>(succeeded));
  out.set("failed", static_cast<double>(failed));
  out.set("refused", static_cast<double>(refused));
  util::Json list = util::Json::array();
  for (const std::string& p : problems) list.push_back(p);
  out.set("problems", std::move(list));
  util::Json m = util::Json::object();
  for (const Metric& metric : metrics) {
    util::Json entry = util::Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    entry.set("trials", static_cast<double>(std::max<std::size_t>(1, metric.trials.size())));
    if (!metric.trials.empty()) {
      // Interquartile range over the median, as the acceptance check uses.
      entry.set("spread", (quantile(metric.trials, 0.75) - quantile(metric.trials, 0.25)) /
                              median(metric.trials));
    }
    m.set(metric.name, std::move(entry));
  }
  out.set("metrics", std::move(m));
  out.set("record", record);
  return out;
}

bool inject_now(const Options& options, const std::string& what) {
  static std::set<std::string> fired;
  if (options.inject != what || fired.count(what) != 0) return false;
  fired.insert(what);
  return true;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
