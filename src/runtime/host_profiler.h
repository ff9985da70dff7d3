// REAL profiling harness: time each layer's numeric kernel on THIS host and
// build the scheduler's lookup table from wall-clock medians — the full
// §6.1 deployment loop (profile -> lookup table -> plan) without any
// analytic model in the path.  The "mobile device" is simply this machine
// running the runtime's direct kernels (bit-identical to a scalar loop per
// output, see kernels.h); absolute numbers differ from a Pi, but the
// per-layer proportions are real measurements.
#pragma once

#include "dnn/graph.h"
#include "profile/lookup_table.h"
#include "runtime/graph_runner.h"

namespace jps::runtime {

struct HostProfilerOptions {
  /// Timed repetitions per layer (median taken).
  int trials = 3;
  /// Discarded warm-up repetitions per layer.
  int warmup = 1;
  std::uint64_t seed = 1;
};

/// Measure every layer of `graph` by running the real kernels on random
/// data and record the wall-clock medians.
[[nodiscard]] std::vector<profile::ProfileRecord> profile_on_host(
    const dnn::Graph& graph, const HostProfilerOptions& options = {});

/// profile_on_host + LookupTable assembly.
[[nodiscard]] profile::LookupTable build_host_lookup_table(
    const dnn::Graph& graph, const HostProfilerOptions& options = {});

}  // namespace jps::runtime
