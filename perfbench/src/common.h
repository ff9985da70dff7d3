// Shared pieces of the benchmark runner: clocks, order statistics, process
// memory, the per-run result record and the plan-key vocabulary the
// workloads and the per-layer probes share.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "dnn/graph.h"
#include "partition/profile_curve.h"
#include "serve/protocol.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (CLOCK_MONOTONIC).
[[nodiscard]] double now_s();

/// Wall time of `fn` in seconds.
[[nodiscard]] double time_s(const std::function<void()>& fn);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) and current resident set (VmRSS) of `pid`
/// (0 = this process), from /proc.  MiB and KiB respectively; 0 when
/// unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);
[[nodiscard]] double rss_kb(pid_t pid = 0);

/// A servable strategy's name as the jps_serve CLI spells it.
[[nodiscard]] std::string strategy_cli_name(jps::core::Strategy strategy);

/// The six strategies Planner::plan_sweep and the plan server accept.
[[nodiscard]] const std::vector<jps::core::Strategy>& servable_strategies();

/// One plan question: the planner's inputs, as a serve request carries them.
struct PlanKey {
  std::string model;
  jps::core::Strategy strategy = jps::core::Strategy::kJPS;
  int n_jobs = 1;
  double bandwidth_mbps = 1.0;
};

/// The serve request asking `key` for `tenant`.
[[nodiscard]] jps::serve::PlanRequest request_of(const PlanKey& key,
                                                 const std::string& tenant);

/// What the plan server must answer for `key`, computed directly:
/// Planner(ProfileCurve::build(graph, LatencyModel(device), Channel(bucket)))
/// .plan(strategy, n_jobs) collapsed to the reply's (cut -> count) mix.
struct ExpectedReply {
  double bucket_mbps = 0.0;
  double makespan_ms = 0.0;
  std::vector<jps::serve::CutMix> mix;
};

/// The server's quantisation step for the shipped daemon defaults.
inline constexpr double kBucketMbps = 0.25;

/// Computes and memoises ExpectedReply per (model, strategy, n, bucket).
/// Thread-safe: expected() and check() may run on several threads at once.
class ReplyOracle {
 public:
  [[nodiscard]] ExpectedReply expected(const PlanKey& key);

  /// Empty when `reply` is an OK reply bit-identical to the direct plan,
  /// else a description of the first difference.
  [[nodiscard]] std::string check(const PlanKey& key,
                                  const jps::serve::PlanReply& reply);

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const jps::dnn::Graph>> graphs_;
  /// Curves by (model, bucket), as the server caches them: the same build
  /// on the same inputs, so reuse changes no bit of the plan.
  std::map<std::pair<std::string, double>,
           std::shared_ptr<const jps::partition::ProfileCurve>>
      curves_;
  std::map<std::tuple<std::string, int, int, double>, ExpectedReply> memo_;
};

/// The outcome of one benchmark run, printed as one JSON object.
struct Result {
  bool correct = true;
  /// False when the open-loop generator fell behind its schedule.
  bool valid = true;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  /// Correctness / validity problems (first few kept).
  std::vector<std::string> problems;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// The within-run trials a median was taken over (empty: one reading).
    std::vector<double> trials;
  };
  std::vector<Metric> metrics;
  /// Free-form record of the generated inputs, rates and sub-results.
  jps::util::Json record = jps::util::Json::object();

  void metric(const std::string& name, double value, const std::string& unit,
              std::vector<double> trials = {}) {
    metrics.push_back({name, value, unit, std::move(trials)});
  }
  void problem(const std::string& what);
  void invalid(const std::string& what);
  [[nodiscard]] jps::util::Json to_json() const;
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the jps_serve binary the serve workloads spawn.
  std::string daemon;
  /// Self-test hook: corrupt one "reply", "point" or "output".
  std::string inject;
};

/// Self-test injection points: true exactly once per process for `what`
/// when Options::inject names it.
[[nodiscard]] bool inject_now(const Options& options, const std::string& what);

/// Stable 64-bit mix of the run seed with a per-purpose tag, so every
/// generator draws from its own stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t tag);

}  // namespace perfbench
