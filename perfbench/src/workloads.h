// The four workloads and the per-layer probes they share.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

[[nodiscard]] Result run_serve_hot(const Options& options);
[[nodiscard]] Result run_serve_cold(const Options& options);
[[nodiscard]] Result run_sweep(const Options& options);
[[nodiscard]] Result run_execute(const Options& options);

/// Inputs the in-process per-layer probes replay: the workload's own plan
/// questions in arrival order, and the keys it warms before timing.
struct ProbeInputs {
  std::vector<PlanKey> keys;
  std::vector<std::string> tenants;  // parallel to keys
  std::vector<PlanKey> warm;
};

/// In-process layer probes (protocol, server, admission, cache, planner,
/// partition, sched, models), each timed from outside through the layer's
/// public functions on `inputs`.  Adds per-layer metrics to `result`.
void run_layer_probes(const ProbeInputs& inputs, std::uint64_t seed,
                      Result& result);

/// Serve-side per-layer metrics for a stream of plan questions: spawns a
/// daemon with every trace retained, replays `keys` open-loop at `rate_rps`
/// for `seconds` while draining TRACE_DUMP, and reports span self times,
/// ping RTT and the daemon's counter ratios.  Replies are verified.
/// Returns the traced window's p50 latency (ms).
double run_span_probe(const Options& options, const std::vector<PlanKey>& keys,
                      const std::vector<std::string>& tenants, double rate_rps,
                      double seconds, ReplyOracle& oracle, Result& result);

/// The kernel-layer metrics (runtime.*, profile.*) from executing a JPS+
/// plan of the synthetic CNN for `seconds`; the execute workload reports the
/// same names from its own window.
void run_runtime_probe(const Options& options, double seconds, Result& result);

}  // namespace perfbench
