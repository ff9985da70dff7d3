#include "runtime/graph_runner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jps::runtime {

namespace {

// He initialisation: weights ~ N(0, sqrt(2/fan_in)), where fan_in is the
// number of inputs one output reads — (cin/groups)*kh*kw for a conv,
// in_features for a dense layer; biases zero; batch-norm gamma 1, beta 0.
// Keeps activations near unit scale through deep ReLU nets, clear of the
// subnormal range.
LayerWeights make_weights(const dnn::Graph& graph, dnn::NodeId id,
                          util::Rng& rng) {
  LayerWeights w;
  std::vector<dnn::TensorShape> in_shapes;
  for (const dnn::NodeId p : graph.predecessors(id))
    in_shapes.push_back(graph.info(p).output_shape);
  const dnn::TensorShape& out = graph.info(id).output_shape;
  const dnn::Layer& layer = graph.layer(id);
  const WeightSizes sizes = weight_sizes(layer, in_shapes, out);
  if (sizes.weights == 0) return w;

  if (layer.kind() == dnn::LayerKind::kBatchNorm) {
    w.weights.assign(sizes.weights, 0.0f);
    std::fill_n(w.weights.begin(), sizes.weights / 2, 1.0f);  // gamma
    return w;
  }

  const std::uint64_t outputs =
      static_cast<std::uint64_t>(layer.kind() == dnn::LayerKind::kConv2d
                                     ? out.channels()
                                     : out.elements());
  const double fan_in = static_cast<double>(sizes.weights / outputs);
  const double scale = std::sqrt(2.0 / fan_in);
  w.weights.resize(sizes.weights);
  for (float& v : w.weights) v = static_cast<float>(rng.normal(0.0, scale));
  w.bias.assign(sizes.bias, 0.0f);
  return w;
}

}  // namespace

WeightStore::WeightStore(const dnn::Graph& graph, std::uint64_t seed) {
  if (!graph.inferred())
    throw std::invalid_argument("WeightStore: graph not inferred");
  store_.reserve(graph.size());
  for (dnn::NodeId id = 0; id < graph.size(); ++id) {
    util::Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (id + 1)));
    store_.push_back(make_weights(graph, id, rng));
  }
}

const LayerWeights& WeightStore::weights(dnn::NodeId id) const {
  if (id >= store_.size()) throw std::out_of_range("WeightStore::weights");
  return store_[id];
}

std::uint64_t WeightStore::total_parameters() const {
  std::uint64_t total = 0;
  for (const LayerWeights& w : store_)
    total += w.weights.size() + w.bias.size();
  return total;
}

std::vector<Tensor> run_graph(const dnn::Graph& graph, const Tensor& input,
                              const WeightStore& weights) {
  if (!graph.inferred())
    throw std::invalid_argument("run_graph: graph not inferred");
  if (!(input.shape() == graph.info(graph.source()).output_shape))
    throw std::invalid_argument("run_graph: input shape mismatch");

  std::vector<Tensor> outputs(graph.size());
  outputs[graph.source()] = input;
  for (dnn::NodeId id = 0; id < graph.size(); ++id) {
    if (id == graph.source()) continue;
    std::vector<Tensor> inputs;
    inputs.reserve(graph.predecessors(id).size());
    for (const dnn::NodeId p : graph.predecessors(id))
      inputs.push_back(outputs[p]);
    outputs[id] = run_layer(graph.layer(id), inputs, weights.weights(id));
    if (!(outputs[id].shape() == graph.info(id).output_shape)) {
      throw std::logic_error("run_graph: computed shape diverges from "
                             "inference at node " +
                             std::to_string(id));
    }
  }
  return outputs;
}

Tensor run_graph_output(const dnn::Graph& graph, const Tensor& input,
                        const WeightStore& weights) {
  return run_graph(graph, input, weights)[graph.sink()];
}

Tensor random_input(const dnn::Graph& graph, util::Rng& rng) {
  Tensor input(graph.info(graph.source()).output_shape);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return input;
}

}  // namespace jps::runtime
