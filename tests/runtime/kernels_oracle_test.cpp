// Differential test: the direct conv2d/pool2d kernels of run_layer against
// the original accessor-based kernels (reference_kernels.h).  Outputs are
// compared with memcmp: the direct kernels promise the same bits, not just
// close values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

// The cases below aim at the paths of the vector tiles: one- and two-vector
// tiles and their partial last tiles, strides 2-4 with padding, kernels up
// to 11x11, grouped convs with fewer than four output channels per group,
// non-finite weights on taps that fall in the padding, -0 biases, and NaN
// and signed-zero inputs to pooling.

/// run_layer against the reference on the given input and weights.
bool conv_matches_exactly(const dnn::detail::Conv2dLayer& conv, const Tensor& in,
                          const LayerWeights& w) {
  const TensorShape out_shape = conv.infer({{in.shape()}});
  return same_bits(run_layer(conv, {{in}}, w),
                   reference::conv2d(conv, in, w, out_shape));
}

/// Random weights (and a bias when `bias`) for `conv` on `in_shape`.
LayerWeights random_weights(const dnn::detail::Conv2dLayer& conv,
                            const TensorShape& in_shape, bool bias,
                            util::Rng& rng) {
  const std::int64_t cin = in_shape.channels();
  const std::int64_t groups = conv.depthwise() ? cin : conv.groups();
  const std::int64_t cout = conv.depthwise() ? cin : conv.out_channels();
  LayerWeights w;
  w.weights = random_vector(static_cast<std::size_t>(
                                cout * (cin / groups) * conv.kernel_h() *
                                conv.kernel_w()),
                            rng);
  if (bias) w.bias = random_vector(static_cast<std::size_t>(cout), rng);
  return w;
}

/// An input extent that gives `out` outputs, plus up to stride - 1 columns
/// the last window does not reach; 0 when no extent does.
std::int64_t extent_for(std::int64_t out, std::int64_t k, std::int64_t stride,
                        std::int64_t pad, util::Rng& rng) {
  const std::int64_t in = (out - 1) * stride + k - 2 * pad;
  if (in < 1) return 0;
  return in + rng.uniform_int(0, stride - 1);
}

TEST(KernelOracle, EveryTileWidthAndPartialTileMatches) {
  // Output extents around the 4- and 8-lane tile widths, for convs and
  // both pool kinds, at every (height, width) pair.
  const std::int64_t extents[] = {1, 2, 4, 7, 8, 9, 17};
  struct Window {
    std::int64_t k, stride, pad;
  };
  const Window windows[] = {{3, 1, 1}, {1, 1, 0}, {5, 1, 2}, {3, 2, 1},
                            {2, 2, 0}, {3, 3, 1}, {4, 2, 3}};
  util::Rng rng(0x7115);
  int cases = 0;
  for (const std::int64_t oh : extents) {
    for (const std::int64_t ow : extents) {
      for (const Window& win : windows) {
        const std::int64_t ih = extent_for(oh, win.k, win.stride, win.pad, rng);
        const std::int64_t iw = extent_for(ow, win.k, win.stride, win.pad, rng);
        if (ih < 1 || iw < 1) continue;
        const std::int64_t cin = rng.uniform_int(1, 4);
        const std::int64_t cout = rng.uniform_int(1, 10);
        const bool bias = rng.chance(0.5);
        const dnn::detail::Conv2dLayer conv(cout, win.k, win.k, win.stride,
                                            win.pad, win.pad, 1, bias);
        const TensorShape in_shape = TensorShape::chw(cin, ih, iw);
        EXPECT_TRUE(conv_matches(conv, in_shape, bias, rng))
            << describe(conv, in_shape);
        for (const auto kind : {dnn::PoolKind::kMax, dnn::PoolKind::kAvg}) {
          const dnn::detail::Pool2dLayer pool(kind, win.k, win.stride, win.pad);
          EXPECT_TRUE(pool_matches(pool, in_shape, rng))
              << describe(pool, in_shape);
        }
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 250);
}

TEST(KernelOracle, LargeKernelsAndStridesWithPaddingMatch) {
  util::Rng rng(0x11A1);
  for (std::int64_t k = 1; k <= 11; ++k) {
    for (std::int64_t stride = 2; stride <= 4; ++stride) {
      for (const std::int64_t pad : {std::int64_t{1}, k / 2, k - 1, k + 1}) {
        const std::int64_t ih = extent_for(rng.uniform_int(1, 6), k, stride,
                                           pad, rng);
        const std::int64_t iw = extent_for(rng.uniform_int(1, 19), k, stride,
                                           pad, rng);
        if (ih < 1 || iw < 1) continue;
        const std::int64_t groups = rng.uniform_int(1, 2);
        const std::int64_t cin = groups * rng.uniform_int(1, 3);
        const std::int64_t cout = groups * rng.uniform_int(1, 6);
        const bool bias = rng.chance(0.5);
        const dnn::detail::Conv2dLayer conv(cout, k, k, stride, pad, pad,
                                            groups, bias);
        const TensorShape in_shape = TensorShape::chw(cin, ih, iw);
        EXPECT_TRUE(conv_matches(conv, in_shape, bias, rng))
            << describe(conv, in_shape);
        const dnn::detail::Pool2dLayer pool(
            rng.chance(0.5) ? dnn::PoolKind::kMax : dnn::PoolKind::kAvg, k,
            stride, pad);
        EXPECT_TRUE(pool_matches(pool, in_shape, rng))
            << describe(pool, in_shape);
      }
    }
  }
}

TEST(KernelOracle, GroupsOfFewerThanFourOutputChannelsMatch) {
  util::Rng rng(0x6409);
  for (int i = 0; i < 300; ++i) {
    const bool depthwise = i % 4 == 0;
    const std::int64_t groups = depthwise ? 0 : rng.uniform_int(2, 5);
    const std::int64_t cin =
        depthwise ? rng.uniform_int(1, 9) : groups * rng.uniform_int(1, 3);
    const std::int64_t cout = depthwise ? 0 : groups * rng.uniform_int(1, 3);
    const std::int64_t k = rng.uniform_int(1, 5);
    const std::int64_t stride = rng.uniform_int(1, 3);
    const std::int64_t pad = rng.uniform_int(0, 2);
    const bool bias = rng.chance(0.5);
    const dnn::detail::Conv2dLayer conv(cout, k, k, stride, pad, pad, groups,
                                        bias);
    const TensorShape in_shape =
        TensorShape::chw(cin, random_extent(k, pad, rng),
                         random_extent(k, pad, rng));
    EXPECT_TRUE(conv_matches(conv, in_shape, bias, rng))
        << describe(conv, in_shape);
  }
}

TEST(KernelOracle, NonFiniteWeightsOnPaddingTapsAreSkipped) {
  // The first row and column of every kernel hold +inf, -inf or NaN (one
  // kind per case, so every NaN in a sum has the same bits).  Those taps
  // fall in the padding for the top row and left column of outputs, where
  // multiplying by a padding zero would give NaN.
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  util::Rng rng(0x1AF);
  for (const float special : specials) {
    for (int i = 0; i < 40; ++i) {
      const std::int64_t k = rng.uniform_int(2, 5);
      const std::int64_t stride = rng.uniform_int(1, 3);
      const std::int64_t pad = rng.uniform_int(1, k - 1);
      const std::int64_t cin = rng.uniform_int(1, 3);
      const std::int64_t cout = rng.uniform_int(1, 9);
      const dnn::detail::Conv2dLayer conv(cout, k, k, stride, pad, pad, 1,
                                          true);
      const TensorShape in_shape = TensorShape::chw(
          cin, random_extent(k, pad, rng), random_extent(k, pad, rng));
      Tensor in(in_shape);
      for (std::size_t j = 0; j < in.size(); ++j)
        in[j] = static_cast<float>(rng.normal(0.0, 1.0));
      LayerWeights w = random_weights(conv, in_shape, true, rng);
      for (std::size_t j = 0; j < w.weights.size(); ++j) {
        const auto kx = static_cast<std::int64_t>(j) % k;
        const auto ky = static_cast<std::int64_t>(j) / k % k;
        if (kx == 0 || ky == 0) w.weights[j] = special;
      }
      EXPECT_TRUE(conv_matches_exactly(conv, in, w))
          << describe(conv, in_shape) << " with " << special;
      // Output (0, 0) of each channel reads every special tap in the padding.
      const Tensor out = run_layer(conv, {{in}}, w);
      for (std::int64_t c = 0; c < out.shape().channels(); ++c)
        EXPECT_TRUE(std::isfinite(out.at(c, 0, 0))) << describe(conv, in_shape);
    }
  }
}

TEST(KernelOracle, NegativeZeroBiasSurvivesPaddingTaps) {
  // Windows that lie wholly in the padding must return the bias bits, -0
  // included; adding a padding product of +0 would turn it into +0.
  util::Rng rng(0x2E0);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t k = rng.uniform_int(1, 3);
    const std::int64_t stride = rng.uniform_int(1, 3);
    const std::int64_t pad = rng.uniform_int(0, k + 1);
    const std::int64_t cout = rng.uniform_int(1, 9);
    const dnn::detail::Conv2dLayer conv(cout, k, k, stride, pad, pad, 1, true);
    const TensorShape in_shape = TensorShape::chw(
        rng.uniform_int(1, 3), random_extent(k, pad, rng),
        random_extent(k, pad, rng));
    Tensor in = random_tensor(in_shape, rng);
    if (i % 2 == 0) {  // all-zero inputs: every product is a signed zero
      for (std::size_t j = 0; j < in.size(); ++j)
        in[j] = rng.chance(0.5) ? 0.0f : -0.0f;
    }
    LayerWeights w = random_weights(conv, in_shape, true, rng);
    std::fill(w.bias.begin(), w.bias.end(), -0.0f);
    EXPECT_TRUE(conv_matches_exactly(conv, in, w)) << describe(conv, in_shape);
    if (pad >= k) {  // output (0, 0) sees no input at all
      const Tensor out = run_layer(conv, {{in}}, w);
      EXPECT_TRUE(out.at(0, 0, 0) == 0.0f && std::signbit(out.at(0, 0, 0)))
          << describe(conv, in_shape);
    }
  }
}

TEST(KernelOracle, PoolingKeepsNaNAndSignedZeroOrder) {
  // Max pooling keeps std::max's order (a NaN input never wins, the first
  // of two equal zeros stays); average pooling carries NaN through.  One
  // NaN bit pattern throughout, so the sums' NaNs compare equal.
  util::Rng rng(0x0DD);
  for (int i = 0; i < 400; ++i) {
    const auto kind = i % 2 == 0 ? dnn::PoolKind::kMax : dnn::PoolKind::kAvg;
    const std::int64_t kernel = rng.uniform_int(1, 4);
    const std::int64_t stride = rng.uniform_int(1, 3);
    const std::int64_t padding = rng.uniform_int(0, kernel);
    const dnn::detail::Pool2dLayer pool(kind, kernel, stride, padding);
    const TensorShape in_shape = TensorShape::chw(
        rng.uniform_int(1, 3), random_extent(kernel, padding, rng),
        random_extent(kernel, padding, rng));
    Tensor in(in_shape);
    for (std::size_t j = 0; j < in.size(); ++j) {
      const double u = rng.uniform(0.0, 1.0);
      in[j] = u < 0.2   ? std::numeric_limits<float>::quiet_NaN()
              : u < 0.45 ? 0.0f
              : u < 0.7  ? -0.0f
                         : static_cast<float>(rng.normal(0.0, 1.0));
    }
    const TensorShape out_shape = pool.infer({{in_shape}});
    EXPECT_TRUE(same_bits(run_layer(pool, {{in}}, LayerWeights{}),
                          reference::pool2d(pool, in, out_shape, pool.kernel(),
                                            pool.stride(), pool.padding())))
        << describe(pool, in_shape);
  }
}

}  // namespace
}  // namespace jps::runtime
