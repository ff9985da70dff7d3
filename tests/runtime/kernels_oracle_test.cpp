// Differential test: the direct conv2d/pool2d kernels of run_layer against
// the original accessor-based kernels (reference_kernels.h).  Outputs are
// compared with memcmp: the direct kernels promise the same bits, not just
// close values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "dnn/layer_impl.h"
#include "models/registry.h"
#include "reference_kernels.h"
#include "runtime/kernels.h"
#include "util/rng.h"

namespace jps::runtime {
namespace {

using dnn::TensorShape;

Tensor random_tensor(const TensorShape& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    // A sprinkle of signed zeros exercises max pooling's tie order.
    t[i] = rng.chance(0.05) ? (rng.chance(0.5) ? -0.0f : 0.0f)
                            : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

std::vector<float> random_vector(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.5));
  return v;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string describe(const dnn::Layer& layer, const TensorShape& in) {
  return layer.describe() + " on " + in.str();
}

/// Run `conv` on a random input of `in_shape`; true when run_layer and the
/// reference agree bit for bit.
bool conv_matches(const dnn::detail::Conv2dLayer& conv,
                  const TensorShape& in_shape, bool bias, util::Rng& rng) {
  const Tensor in = random_tensor(in_shape, rng);
  const TensorShape out_shape = conv.infer({{in_shape}});
  const std::int64_t cin = in_shape.channels();
  const std::int64_t groups = conv.depthwise() ? cin : conv.groups();
  LayerWeights w;
  w.weights = random_vector(
      static_cast<std::size_t>(out_shape.channels() * (cin / groups) *
                               conv.kernel_h() * conv.kernel_w()),
      rng);
  if (bias)
    w.bias = random_vector(static_cast<std::size_t>(out_shape.channels()), rng);
  const Tensor got = run_layer(conv, {{in}}, w);
  const Tensor want = reference::conv2d(conv, in, w, out_shape);
  return same_bits(got, want);
}

bool pool_matches(const dnn::detail::Pool2dLayer& pool,
                  const TensorShape& in_shape, util::Rng& rng) {
  const Tensor in = random_tensor(in_shape, rng);
  const TensorShape out_shape = pool.infer({{in_shape}});
  const Tensor got = run_layer(pool, {{in}}, LayerWeights{});
  const Tensor want = reference::pool2d(pool, in, out_shape, pool.kernel(),
                                        pool.stride(), pool.padding());
  return same_bits(got, want);
}

/// A map extent that admits a window of `k` taps with padding `pad`; one
/// time in four it is 1, and often it is smaller than k + pad.
std::int64_t random_extent(std::int64_t k, std::int64_t pad, util::Rng& rng) {
  const std::int64_t min = std::max<std::int64_t>(1, k - 2 * pad);
  if (min == 1 && rng.chance(0.25)) return 1;
  return rng.uniform_int(min, min + 19);
}

TEST(KernelOracle, RandomConvConfigsMatchBitForBit) {
  util::Rng rng(0x0C0FFEE);
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t kh = rng.uniform_int(1, 5);
    const std::int64_t kw = rng.chance(0.5) ? kh : rng.uniform_int(1, 5);
    const std::int64_t stride = rng.uniform_int(1, 3);
    const std::int64_t ph = rng.uniform_int(0, 2);
    const std::int64_t pw = rng.chance(0.5) ? ph : rng.uniform_int(0, 2);
    const bool depthwise = rng.chance(0.2);
    const std::int64_t groups = depthwise ? 0 : rng.uniform_int(1, 3);
    const std::int64_t cin = (depthwise ? 1 : groups) * rng.uniform_int(1, 6);
    const std::int64_t cout = depthwise ? 0 : groups * rng.uniform_int(1, 9);
    const bool bias = rng.chance(0.5);
    const dnn::detail::Conv2dLayer conv(cout, kh, kw, stride, ph, pw, groups,
                                        bias);
    const TensorShape in_shape = TensorShape::chw(
        cin, random_extent(kh, ph, rng), random_extent(kw, pw, rng));
    if (!conv_matches(conv, in_shape, bias, rng)) {
      ++mismatches;
      ADD_FAILURE() << "conv mismatch: " << describe(conv, in_shape)
                    << (bias ? " +bias" : "");
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(KernelOracle, RandomPoolConfigsMatchBitForBit) {
  util::Rng rng(0xBEEF);
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto kind = rng.chance(0.5) ? dnn::PoolKind::kMax : dnn::PoolKind::kAvg;
    const std::int64_t kernel = rng.uniform_int(1, 5);
    const std::int64_t stride = rng.uniform_int(1, 3);
    const std::int64_t padding = rng.uniform_int(0, 2);
    const dnn::detail::Pool2dLayer pool(kind, kernel, stride, padding);
    const TensorShape in_shape =
        TensorShape::chw(rng.uniform_int(1, 5), random_extent(kernel, padding, rng),
                         random_extent(kernel, padding, rng));
    if (!pool_matches(pool, in_shape, rng)) {
      ++mismatches;
      ADD_FAILURE() << "pool mismatch: " << describe(pool, in_shape);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// An input extent, at most the model's, that gives about `outputs`
/// outputs: enough for the padded borders and, across a row, for one full
/// interior tile plus a shifted partial one.
std::int64_t reduced(std::int64_t extent, std::int64_t outputs, std::int64_t k,
                     std::int64_t stride, std::int64_t pad) {
  return std::clamp<std::int64_t>((outputs - 1) * stride + k - 2 * pad, 1,
                                  extent);
}

TEST(KernelOracle, EveryZooConvAndPoolMatchesBitForBit) {
  // Each distinct layer geometry of the zoo runs at its own channel counts,
  // except that a conv reads at most 8 input channels per group: the input
  // channel loop is the same code at any trip count, and it is what would
  // make the reference kernel slow.
  util::Rng rng(42);
  std::map<std::string, bool> seen;  // config -> matched
  for (const std::string& name : models::all_names()) {
    const dnn::Graph g = models::build(name);
    for (dnn::NodeId id = 0; id < g.size(); ++id) {
      const dnn::Layer& layer = g.layer(id);
      if (layer.kind() != dnn::LayerKind::kConv2d &&
          layer.kind() != dnn::LayerKind::kPool2d)
        continue;
      const TensorShape& full = g.info(g.predecessors(id)[0]).output_shape;
      if (layer.kind() == dnn::LayerKind::kConv2d) {
        const auto& conv = static_cast<const dnn::detail::Conv2dLayer&>(layer);
        const std::int64_t groups =
            conv.depthwise() ? full.channels() : conv.groups();
        const std::int64_t cin =
            groups * std::min<std::int64_t>(full.channels() / groups, 8);
        const TensorShape in_shape = TensorShape::chw(
            cin,
            reduced(full.height(), 4, conv.kernel_h(), conv.stride(),
                    conv.padding_h()),
            reduced(full.width(), 11, conv.kernel_w(), conv.stride(),
                    conv.padding_w()));
        const std::string key = describe(conv, in_shape) +
                                (conv.has_bias() ? " +bias" : "");
        if (seen.contains(key)) continue;
        seen[key] = conv_matches(conv, in_shape, conv.has_bias(), rng);
        EXPECT_TRUE(seen[key]) << name << " node " << id << ": " << key;
      } else {
        const auto& pool = static_cast<const dnn::detail::Pool2dLayer&>(layer);
        const TensorShape in_shape = TensorShape::chw(
            full.channels(),
            reduced(full.height(), 4, pool.kernel(), pool.stride(),
                    pool.padding()),
            reduced(full.width(), 11, pool.kernel(), pool.stride(),
                    pool.padding()));
        const std::string key = describe(pool, in_shape);
        if (seen.contains(key)) continue;
        seen[key] = pool_matches(pool, in_shape, rng);
        EXPECT_TRUE(seen[key]) << name << " node " << id << ": " << key;
      }
    }
  }
  EXPECT_GE(seen.size(), 50u);
}

}  // namespace
}  // namespace jps::runtime
