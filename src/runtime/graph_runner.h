// Whole-graph numeric execution with deterministic random weights.
#pragma once

#include <optional>
#include <vector>

#include "dnn/graph.h"
#include "runtime/kernels.h"
#include "util/rng.h"

namespace jps::runtime {

/// Deterministic per-node weights for a graph: He-initialised random values
/// seeded from (seed, node id), so two runners with the same seed agree.
class WeightStore {
 public:
  explicit WeightStore(const dnn::Graph& graph, std::uint64_t seed = 1);

  [[nodiscard]] const LayerWeights& weights(dnn::NodeId id) const;

  /// Total parameters materialized (equals graph totals).
  [[nodiscard]] std::uint64_t total_parameters() const;

 private:
  std::vector<LayerWeights> store_;
};

/// Execute the whole graph on `input` and return every node's output.
/// Validates that each computed tensor matches the graph's inferred shape.
/// Throws std::invalid_argument when `input` does not match the graph's
/// input layer shape.
[[nodiscard]] std::vector<Tensor> run_graph(const dnn::Graph& graph,
                                            const Tensor& input,
                                            const WeightStore& weights);

/// Convenience: run and return only the sink's output.
[[nodiscard]] Tensor run_graph_output(const dnn::Graph& graph,
                                      const Tensor& input,
                                      const WeightStore& weights);

/// A random input tensor matching the graph's input layer (values ~ N(0,1)).
[[nodiscard]] Tensor random_input(const dnn::Graph& graph, util::Rng& rng);

}  // namespace jps::runtime
