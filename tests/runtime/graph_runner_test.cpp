#include "runtime/graph_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dnn/layer.h"
#include "models/registry.h"
#include "models/zoo.h"

namespace jps::runtime {
namespace {

using dnn::Graph;
using dnn::NodeId;
using dnn::TensorShape;

// A small but representative DAG: conv stem, residual add, two-branch
// concat, global pooling, dense head — every join kind exercised.
Graph make_test_net() {
  Graph g("runtime_test_net");
  NodeId x = g.add(dnn::input(TensorShape::chw(3, 16, 16)));
  x = g.add(dnn::conv2d(8, 3, 1, 1), {x});
  x = g.add(dnn::batch_norm(), {x});
  const NodeId trunk = g.add(dnn::activation(dnn::ActivationKind::kReLU), {x});
  // Residual block.
  NodeId y = g.add(dnn::conv2d(8, 3, 1, 1), {trunk});
  y = g.add(dnn::activation(dnn::ActivationKind::kReLU), {y});
  const NodeId res = g.add(dnn::add(), {trunk, y});
  // Two-branch module.
  const NodeId b1 = g.add(dnn::conv2d(4, 1), {res});
  NodeId b2 = g.add(dnn::pool2d(dnn::PoolKind::kMax, 3, 1, 1), {res});
  b2 = g.add(dnn::conv2d(4, 1), {b2});
  NodeId j = g.add(dnn::concat(), {b1, b2});
  j = g.add(dnn::lrn(), {j});
  j = g.add(dnn::global_avg_pool(), {j});
  j = g.add(dnn::flatten(), {j});
  j = g.add(dnn::dropout(), {j});
  j = g.add(dnn::dense(5), {j});
  (void)g.add(dnn::activation(dnn::ActivationKind::kSoftmax), {j});
  g.infer();
  return g;
}

TEST(GraphRunner, WeightStoreMatchesGraphTotals) {
  const Graph g = make_test_net();
  const WeightStore weights(g, 7);
  EXPECT_EQ(weights.total_parameters(), g.total_params());
}

TEST(GraphRunner, EveryNodeShapeMatchesInference) {
  const Graph g = make_test_net();
  const WeightStore weights(g, 7);
  util::Rng rng(3);
  const std::vector<Tensor> outputs = run_graph(g, random_input(g, rng), weights);
  ASSERT_EQ(outputs.size(), g.size());
  for (NodeId id = 0; id < g.size(); ++id) {
    EXPECT_EQ(outputs[id].shape(), g.info(id).output_shape) << "node " << id;
    for (std::size_t i = 0; i < outputs[id].size(); ++i) {
      ASSERT_TRUE(std::isfinite(outputs[id][i]))
          << "node " << id << " element " << i;
    }
  }
}

TEST(GraphRunner, SoftmaxOutputIsADistribution) {
  const Graph g = make_test_net();
  const WeightStore weights(g, 11);
  util::Rng rng(5);
  const Tensor out = run_graph_output(g, random_input(g, rng), weights);
  EXPECT_EQ(out.shape(), TensorShape::flat(5));
  float sum = 0.0f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0f);
    sum += out[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(GraphRunner, DeterministicForFixedSeeds) {
  const Graph g = make_test_net();
  const WeightStore w1(g, 42);
  const WeightStore w2(g, 42);
  util::Rng rng1(9);
  util::Rng rng2(9);
  const Tensor a = run_graph_output(g, random_input(g, rng1), w1);
  const Tensor b = run_graph_output(g, random_input(g, rng2), w2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(GraphRunner, DifferentSeedsDiffer) {
  const Graph g = make_test_net();
  const WeightStore w1(g, 1);
  const WeightStore w2(g, 2);
  util::Rng rng1(9);
  util::Rng rng2(9);
  const Tensor a = run_graph_output(g, random_input(g, rng1), w1);
  const Tensor b = run_graph_output(g, random_input(g, rng2), w2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i] != b[i];
  EXPECT_TRUE(any_diff);
}

TEST(GraphRunner, RunsAZooModelNumerically) {
  // SqueezeNet on a reduced input is too rigid (builders fix 224); use the
  // smallest real zoo-style network instead: a synthetic line DNN.
  models::SyntheticLineSpec spec;
  spec.blocks = 3;
  spec.input_size = 32;
  spec.base_channels = 8;
  spec.fc_sizes = {16, 4};
  dnn::Graph g = models::synthetic_line(spec);
  g.infer();
  const WeightStore weights(g, 3);
  util::Rng rng(1);
  const std::vector<Tensor> outputs = run_graph(g, random_input(g, rng), weights);
  for (NodeId id = 0; id < g.size(); ++id)
    EXPECT_EQ(outputs[id].shape(), g.info(id).output_shape);
}

TEST(GraphRunner, PaperModelsStayNormalAndDecisive) {
  // He-initialised weights keep every value a layer of the evaluated models
  // reads a normal, finite float (subnormal arithmetic would distort the
  // host profile), and the classifier output is a finite, non-flat
  // distribution.  The sink itself is read by nothing: a confident softmax
  // may round its smallest probabilities to subnormals.
  for (const std::string& name : models::paper_eval_names()) {
    const Graph g = models::build(name);
    const WeightStore weights(g, 1);
    util::Rng rng(2);
    const std::vector<Tensor> outputs =
        run_graph(g, random_input(g, rng), weights);
    for (NodeId id = 0; id < g.size(); ++id) {
      if (id == g.sink()) continue;
      for (std::size_t i = 0; i < outputs[id].size(); ++i) {
        const int kind = std::fpclassify(outputs[id][i]);
        ASSERT_TRUE(kind == FP_NORMAL || kind == FP_ZERO)
            << name << " node " << id << " element " << i << " = "
            << outputs[id][i];
      }
    }
    const Tensor& sink = outputs[g.sink()];
    for (std::size_t i = 0; i < sink.size(); ++i)
      ASSERT_TRUE(std::isfinite(sink[i])) << name << " element " << i;
    const float uniform = 1.0f / static_cast<float>(sink.size());
    EXPECT_GT(*std::max_element(sink.data(), sink.data() + sink.size()),
              2.0f * uniform)
        << name;
  }
}

TEST(GraphRunner, Validation) {
  const Graph g = make_test_net();
  const WeightStore weights(g, 7);
  Tensor wrong(TensorShape::chw(1, 2, 2));
  EXPECT_THROW((void)run_graph(g, wrong, weights), std::invalid_argument);
  EXPECT_THROW((void)weights.weights(999), std::out_of_range);
  dnn::Graph raw("raw");
  (void)raw.add(dnn::input(TensorShape::chw(1, 2, 2)));
  EXPECT_THROW(WeightStore(raw, 1), std::invalid_argument);
}

}  // namespace
}  // namespace jps::runtime
