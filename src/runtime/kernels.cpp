#include "runtime/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dnn/layer_impl.h"  // internal: concrete layer parameter access
#include "util/thread_pool.h"

namespace jps::runtime {

namespace {

using dnn::TensorShape;

void expect_weights(const dnn::Layer& layer,
                    std::span<const TensorShape> inputs,
                    const TensorShape& out, const LayerWeights& weights) {
  const WeightSizes want = weight_sizes(layer, inputs, out);
  if (weights.weights.size() != want.weights ||
      weights.bias.size() != want.bias) {
    throw std::invalid_argument(
        "run_layer: " + layer.describe() + " expects " +
        std::to_string(want.weights) + " weights + " +
        std::to_string(want.bias) + " biases, got " +
        std::to_string(weights.weights.size()) + " + " +
        std::to_string(weights.bias.size()));
  }
}

// conv2d and pool2d keep the order contract in kernels.h: a tile only
// puts independent outputs side by side, and each output still visits its
// valid taps in (ic, ky, kx) order, so no sum is reassociated.

/// Half-open index range.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Taps of a `k`-tap window whose first tap sits at `origin` on an axis of
/// `extent` elements that land inside the axis (empty when lo >= hi).
Range taps_inside(std::int64_t origin, std::int64_t k, std::int64_t extent) {
  return {std::max<std::int64_t>(0, -origin), std::min(k, extent - origin)};
}

/// Output columns whose whole window lies inside the input row: the
/// window origin ox * stride - pad is >= 0 and ends at or before in_w.
Range interior_columns(std::int64_t in_w, std::int64_t out_w, std::int64_t k,
                       std::int64_t stride, std::int64_t pad) {
  const std::int64_t lo = std::min(out_w, (pad + stride - 1) / stride);
  const std::int64_t last_origin = in_w - k + pad;
  const std::int64_t hi =
      last_origin < 0 ? lo : std::clamp(last_origin / stride + 1, lo, out_w);
  return {lo, hi};
}

/// Call tile(ox0, n, interior) over one output row in tiles of at most
/// `width` columns: border tiles over the padded edges, full-width interior
/// tiles in between.  When the interior is not a multiple of `width` the
/// last interior tile is shifted left to overlap its neighbour; recomputing
/// an output yields the same bits.
template <typename Tile>
void for_each_tile(Range interior, std::int64_t out_w, std::int64_t width,
                   const Tile& tile) {
  const auto border = [&](std::int64_t from, std::int64_t to) {
    for (std::int64_t ox = from; ox < to; ox += width)
      tile(ox, std::min(width, to - ox), false);
  };
  border(0, interior.lo);
  if (interior.hi - interior.lo >= width) {
    for (std::int64_t ox = interior.lo; ox < interior.hi; ox += width)
      tile(std::min(ox, interior.hi - width), width, true);
  } else {
    border(interior.lo, interior.hi);
  }
  border(interior.hi, out_w);
}

constexpr std::int64_t kTileChannels = 4;  // output channels per conv tile
constexpr std::int64_t kTileColumns = 8;   // output columns per conv tile

/// Dimensions of one conv2d call, hoisted out of the loops.
struct ConvGeometry {
  std::int64_t in_h, in_w, out_h, out_w;
  std::int64_t kh, kw, stride, ph, pw;
  std::int64_t cin_per_group;
  std::int64_t weights_per_oc;  // cin_per_group * kh * kw
};

/// Accumulate one register tile of kC output channels x kTileColumns
/// columns of an output row whose windows all lie inside the input row.
/// `in` is the group's first input channel, `w` the tile's first output
/// channel's weights, `iy0` the window's top row (ky taps valid in `ky`).
template <int kC, bool kUnitStride>
void conv_interior_tile(const ConvGeometry& g, const float* in,
                        const float* w, std::int64_t iy0, Range ky,
                        std::int64_t ox0, float (&acc)[kC][kTileColumns]) {
  const std::int64_t stride = kUnitStride ? 1 : g.stride;
  const std::int64_t plane = g.in_h * g.in_w;
  for (std::int64_t ic = 0; ic < g.cin_per_group; ++ic) {
    for (std::int64_t y = ky.lo; y < ky.hi; ++y) {
      const float* x =
          in + ic * plane + (iy0 + y) * g.in_w + ox0 * stride - g.pw;
      const float* wrow = w + (ic * g.kh + y) * g.kw;
      for (std::int64_t kx = 0; kx < g.kw; ++kx) {
        float wk[kC];
        for (int c = 0; c < kC; ++c) wk[c] = wrow[c * g.weights_per_oc + kx];
        for (int c = 0; c < kC; ++c)
          for (int j = 0; j < kTileColumns; ++j)
            acc[c][j] += x[j * stride + kx] * wk[c];
      }
    }
  }
}

/// The same for `n` <= kTileColumns columns anywhere in the row: each
/// column skips the kx taps that fall in the padding.
template <int kC>
void conv_border_tile(const ConvGeometry& g, const float* in, const float* w,
                      std::int64_t iy0, Range ky, std::int64_t ox0,
                      std::int64_t n, float (&acc)[kC][kTileColumns]) {
  const std::int64_t plane = g.in_h * g.in_w;
  Range kx[kTileColumns];
  for (std::int64_t j = 0; j < n; ++j)
    kx[j] = taps_inside((ox0 + j) * g.stride - g.pw, g.kw, g.in_w);
  for (std::int64_t ic = 0; ic < g.cin_per_group; ++ic) {
    for (std::int64_t y = ky.lo; y < ky.hi; ++y) {
      const float* row = in + ic * plane + (iy0 + y) * g.in_w;
      const float* wrow = w + (ic * g.kh + y) * g.kw;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t ix0 = (ox0 + j) * g.stride - g.pw;
        for (std::int64_t t = kx[j].lo; t < kx[j].hi; ++t)
          for (int c = 0; c < kC; ++c)
            acc[c][j] += row[ix0 + t] * wrow[c * g.weights_per_oc + t];
      }
    }
  }
}

/// All outputs of kC consecutive output channels of one group.  `bias` is
/// null for bias-free layers; `out` is the first channel's output plane.
template <int kC, bool kUnitStride>
void conv_block(const ConvGeometry& g, const float* in, const float* w,
                const float* bias, float* out) {
  const std::int64_t out_plane = g.out_h * g.out_w;
  const Range interior =
      interior_columns(g.in_w, g.out_w, g.kw, g.stride, g.pw);
  for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride - g.ph;
    const Range ky = taps_inside(iy0, g.kh, g.in_h);
    float* out_row = out + oy * g.out_w;
    for_each_tile(interior, g.out_w, kTileColumns,
                  [&](std::int64_t ox0, std::int64_t n, bool inside) {
                    float acc[kC][kTileColumns];
                    for (int c = 0; c < kC; ++c)
                      for (int j = 0; j < kTileColumns; ++j)
                        acc[c][j] = bias != nullptr ? bias[c] : 0.0f;
                    if (inside) {
                      conv_interior_tile<kC, kUnitStride>(g, in, w, iy0, ky,
                                                          ox0, acc);
                    } else {
                      conv_border_tile<kC>(g, in, w, iy0, ky, ox0, n, acc);
                    }
                    for (int c = 0; c < kC; ++c)
                      std::copy_n(acc[c], n, out_row + c * out_plane + ox0);
                  });
  }
}

template <bool kUnitStride>
void conv_block(int channels, const ConvGeometry& g, const float* in,
                const float* w, const float* bias, float* out) {
  if (channels == kTileChannels) {
    conv_block<kTileChannels, kUnitStride>(g, in, w, bias, out);
  } else {
    conv_block<1, kUnitStride>(g, in, w, bias, out);
  }
}

Tensor conv2d(const dnn::detail::Conv2dLayer& conv, const Tensor& in,
              const LayerWeights& weights, const TensorShape& out_shape) {
  Tensor out(out_shape);
  const std::int64_t cin = in.shape().channels();
  const std::int64_t cout = out_shape.channels();
  const std::int64_t groups = conv.depthwise() ? cin : conv.groups();
  const std::int64_t cin_per_group = cin / groups;
  const std::int64_t cout_per_group = cout / groups;
  const ConvGeometry g{
      .in_h = in.shape().height(),
      .in_w = in.shape().width(),
      .out_h = out_shape.height(),
      .out_w = out_shape.width(),
      .kh = conv.kernel_h(),
      .kw = conv.kernel_w(),
      .stride = conv.stride(),
      .ph = conv.padding_h(),
      .pw = conv.padding_w(),
      .cin_per_group = cin_per_group,
      .weights_per_oc = cin_per_group * conv.kernel_h() * conv.kernel_w()};
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = g.out_h * g.out_w;
  const bool has_bias = !weights.bias.empty();

  // Work items are blocks of kTileChannels output channels of one group,
  // then the group's leftover channels one by one.
  const std::int64_t full_blocks = cout_per_group / kTileChannels;
  const std::int64_t blocks_per_group =
      full_blocks + cout_per_group % kTileChannels;
  util::parallel_for(
      static_cast<std::size_t>(groups * blocks_per_group),
      [&](std::size_t b) {
        const auto block = static_cast<std::int64_t>(b);
        const std::int64_t group = block / blocks_per_group;
        const std::int64_t r = block % blocks_per_group;
        const bool full = r < full_blocks;
        const std::int64_t oc =
            group * cout_per_group +
            (full ? r * kTileChannels : full_blocks * kTileChannels +
                                            (r - full_blocks));
        const int channels = full ? static_cast<int>(kTileChannels) : 1;
        const float* group_in =
            in.data() + group * cin_per_group * in_plane;
        const float* w = weights.weights.data() + oc * g.weights_per_oc;
        const float* bias = has_bias ? weights.bias.data() + oc : nullptr;
        float* dst = out.data() + oc * out_plane;
        if (g.stride == 1) {
          conv_block<true>(channels, g, group_in, w, bias, dst);
        } else {
          conv_block<false>(channels, g, group_in, w, bias, dst);
        }
      });
  return out;
}

/// One channel of a pooling layer; windows are square.
template <bool kMax>
void pool_plane(const float* in, float* out, std::int64_t in_h,
                std::int64_t in_w, std::int64_t out_h, std::int64_t out_w,
                std::int64_t kernel, std::int64_t stride,
                std::int64_t padding) {
  const Range interior = interior_columns(in_w, out_w, kernel, stride, padding);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * stride - padding;
    const Range ky = taps_inside(iy0, kernel, in_h);
    const std::int64_t rows = std::max<std::int64_t>(0, ky.hi - ky.lo);
    const auto window = [&](std::int64_t ox, Range kx) {
      const std::int64_t ix0 = ox * stride - padding;
      float acc = kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
      for (std::int64_t y = ky.lo; y < ky.hi; ++y) {
        const float* row = in + (iy0 + y) * in_w;
        for (std::int64_t t = kx.lo; t < kx.hi; ++t) {
          if constexpr (kMax) {
            acc = std::max(acc, row[ix0 + t]);
          } else {
            acc += row[ix0 + t];
          }
        }
      }
      if constexpr (kMax) {
        out[oy * out_w + ox] = acc;
      } else {
        const std::int64_t count =
            rows * std::max<std::int64_t>(0, kx.hi - kx.lo);
        out[oy * out_w + ox] =
            count > 0 ? acc / static_cast<float>(count) : 0.0f;
      }
    };
    for_each_tile(interior, out_w, 1,
                  [&](std::int64_t ox, std::int64_t, bool inside) {
                    window(ox, inside ? Range{0, kernel}
                                      : taps_inside(ox * stride - padding,
                                                    kernel, in_w));
                  });
  }
}

Tensor pool2d(const dnn::detail::Pool2dLayer& pool, const Tensor& in,
              const TensorShape& out_shape, std::int64_t kernel,
              std::int64_t stride, std::int64_t padding) {
  Tensor out(out_shape);
  const bool is_max = pool.pool_kind() == dnn::PoolKind::kMax;
  const std::int64_t in_h = in.shape().height();
  const std::int64_t in_w = in.shape().width();
  const std::int64_t out_h = out_shape.height();
  const std::int64_t out_w = out_shape.width();
  util::parallel_for(
      static_cast<std::size_t>(out_shape.channels()), [&](std::size_t c) {
        const float* src = in.data() + c * static_cast<std::size_t>(in_h * in_w);
        float* dst = out.data() + c * static_cast<std::size_t>(out_h * out_w);
        if (is_max) {
          pool_plane<true>(src, dst, in_h, in_w, out_h, out_w, kernel, stride,
                           padding);
        } else {
          pool_plane<false>(src, dst, in_h, in_w, out_h, out_w, kernel, stride,
                            padding);
        }
      });
  return out;
}

Tensor dense(const Tensor& in, const LayerWeights& weights,
             const TensorShape& out_shape) {
  Tensor out(out_shape);
  const auto in_features = static_cast<std::size_t>(in.shape().elements());
  const auto out_features = static_cast<std::size_t>(out_shape.elements());
  const bool has_bias = !weights.bias.empty();
  util::parallel_for(out_features, [&](std::size_t o) {
    float acc = has_bias ? weights.bias[o] : 0.0f;
    const float* w = weights.weights.data() + o * in_features;
    for (std::size_t i = 0; i < in_features; ++i) acc += w[i] * in[i];
    out[o] = acc;
  });
  return out;
}

// std::max(0.0f, x) as a select: NaN and -0 map to +0.
constexpr auto relu = [](float x) { return x > 0.0f ? x : 0.0f; };

// std::clamp(x, 0.0f, 6.0f) as two selects: NaN and -0 pass through.
constexpr auto relu6 = [](float x) {
  const float lo = x < 0.0f ? 0.0f : x;
  return 6.0f < lo ? 6.0f : lo;
};

// out[i] = op(in[i]) four at a time.  Written as compare-selects over
// four loads, the body becomes one SIMD compare and mask per group; the
// std::max / std::clamp loop compiled to a compare-and-branch per element,
// which mispredicts on conv outputs (about half negative).
template <class Op>
void map_4wide(const float* in, float* out, std::size_t n, Op op) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float a = in[i];
    const float b = in[i + 1];
    const float c = in[i + 2];
    const float d = in[i + 3];
    out[i] = op(a);
    out[i + 1] = op(b);
    out[i + 2] = op(c);
    out[i + 3] = op(d);
  }
  for (; i < n; ++i) out[i] = op(in[i]);
}

Tensor activation(const dnn::detail::ActivationLayer& act, const Tensor& in) {
  Tensor out(in.shape());
  switch (act.activation_kind()) {
    case dnn::ActivationKind::kReLU:
      map_4wide(in.data(), out.data(), in.size(), relu);
      break;
    case dnn::ActivationKind::kReLU6:
      map_4wide(in.data(), out.data(), in.size(), relu6);
      break;
    case dnn::ActivationKind::kSigmoid:
      for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = 1.0f / (1.0f + std::exp(-in[i]));
      break;
    case dnn::ActivationKind::kTanh:
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
      break;
    case dnn::ActivationKind::kSoftmax: {
      // Numerically stable softmax over the whole tensor (used on the flat
      // classifier output).
      float max_v = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < in.size(); ++i) max_v = std::max(max_v, in[i]);
      double sum = 0.0;
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = std::exp(in[i] - max_v);
        sum += out[i];
      }
      for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = static_cast<float>(out[i] / sum);
      break;
    }
  }
  return out;
}

Tensor batch_norm(const Tensor& in, const LayerWeights& weights) {
  Tensor out(in.shape());
  const std::int64_t channels =
      in.shape().rank() == 3 ? in.shape().channels() : in.shape().elements();
  const std::size_t per_channel = in.size() / static_cast<std::size_t>(channels);
  for (std::int64_t c = 0; c < channels; ++c) {
    const float gamma = weights.weights[static_cast<std::size_t>(c)];
    const float beta = weights.weights[static_cast<std::size_t>(channels + c)];
    const std::size_t base = static_cast<std::size_t>(c) * per_channel;
    for (std::size_t i = 0; i < per_channel; ++i)
      out[base + i] = gamma * in[base + i] + beta;
  }
  return out;
}

Tensor lrn(const Tensor& in, std::int64_t size) {
  // Classic AlexNet LRN across channels: alpha=1e-4, beta=0.75, k=2.
  constexpr float kAlpha = 1e-4f;
  constexpr float kBeta = 0.75f;
  constexpr float kK = 2.0f;
  Tensor out(in.shape());
  const std::int64_t channels = in.shape().channels();
  const std::int64_t half = size / 2;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < in.shape().height(); ++y) {
      for (std::int64_t x = 0; x < in.shape().width(); ++x) {
        float sum_sq = 0.0f;
        for (std::int64_t j = std::max<std::int64_t>(0, c - half);
             j <= std::min(channels - 1, c + half); ++j) {
          const float v = in.at(j, y, x);
          sum_sq += v * v;
        }
        out.at(c, y, x) =
            in.at(c, y, x) /
            std::pow(kK + kAlpha * sum_sq, kBeta);
      }
    }
  }
  return out;
}

Tensor concat(std::span<const Tensor> inputs, const TensorShape& out_shape) {
  Tensor out(out_shape);
  std::size_t offset = 0;
  for (const Tensor& t : inputs) {
    std::copy(t.data(), t.data() + t.size(), out.data() + offset);
    offset += t.size();
  }
  return out;
}

}  // namespace

WeightSizes weight_sizes(const dnn::Layer& layer,
                         std::span<const TensorShape> inputs,
                         const TensorShape& output) {
  const std::uint64_t total = layer.param_count(inputs, output);
  std::uint64_t bias = 0;
  if (layer.kind() == dnn::LayerKind::kConv2d &&
      static_cast<const dnn::detail::Conv2dLayer&>(layer).has_bias()) {
    bias = static_cast<std::uint64_t>(output.channels());
  } else if (layer.kind() == dnn::LayerKind::kDense &&
             static_cast<const dnn::detail::DenseLayer&>(layer).has_bias()) {
    bias = static_cast<std::uint64_t>(output.elements());
  }
  return {total - bias, bias};
}

Tensor run_layer(const dnn::Layer& layer, std::span<const Tensor> inputs,
                 const LayerWeights& weights) {
  std::vector<TensorShape> shapes;
  shapes.reserve(inputs.size());
  for (const Tensor& t : inputs) shapes.push_back(t.shape());
  const TensorShape out_shape = layer.infer(shapes);
  expect_weights(layer, shapes, out_shape, weights);

  switch (layer.kind()) {
    case dnn::LayerKind::kInput:
      throw std::invalid_argument("run_layer: input nodes carry the data");
    case dnn::LayerKind::kConv2d:
      return conv2d(static_cast<const dnn::detail::Conv2dLayer&>(layer),
                    inputs[0], weights, out_shape);
    case dnn::LayerKind::kPool2d: {
      const auto& pool = static_cast<const dnn::detail::Pool2dLayer&>(layer);
      return pool2d(pool, inputs[0], out_shape, pool.kernel(), pool.stride(),
                    pool.padding());
    }
    case dnn::LayerKind::kGlobalAvgPool: {
      Tensor out(out_shape);
      const std::int64_t channels = inputs[0].shape().channels();
      const auto spatial = static_cast<std::size_t>(
          inputs[0].shape().height() * inputs[0].shape().width());
      for (std::int64_t c = 0; c < channels; ++c) {
        double sum = 0.0;
        const std::size_t base = static_cast<std::size_t>(c) * spatial;
        for (std::size_t i = 0; i < spatial; ++i) sum += inputs[0][base + i];
        out[static_cast<std::size_t>(c)] =
            static_cast<float>(sum / static_cast<double>(spatial));
      }
      return out;
    }
    case dnn::LayerKind::kDense:
      return dense(inputs[0], weights, out_shape);
    case dnn::LayerKind::kActivation:
      return activation(static_cast<const dnn::detail::ActivationLayer&>(layer),
                        inputs[0]);
    case dnn::LayerKind::kBatchNorm:
      return batch_norm(inputs[0], weights);
    case dnn::LayerKind::kLRN:
      return lrn(inputs[0],
                 static_cast<const dnn::detail::LRNLayer&>(layer).window_size());
    case dnn::LayerKind::kDropout: {
      Tensor out(out_shape);
      std::copy(inputs[0].data(), inputs[0].data() + inputs[0].size(),
                out.data());
      return out;
    }
    case dnn::LayerKind::kFlatten: {
      Tensor out(out_shape);
      std::copy(inputs[0].data(), inputs[0].data() + inputs[0].size(),
                out.data());
      return out;
    }
    case dnn::LayerKind::kConcat:
      return concat(inputs, out_shape);
    case dnn::LayerKind::kAdd: {
      Tensor out(out_shape);
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = inputs[0][i] + inputs[1][i];
      return out;
    }
  }
  throw std::invalid_argument("run_layer: unknown layer kind");
}

}  // namespace jps::runtime
