#include "runtime/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
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

// conv2d and pool2d keep the order contract in kernels.h.  Both run on one
// tile routine, visit_taps: a tile is consecutive outputs of one output
// row, held as kV 4-wide vectors per output channel, and each lane visits
// its valid taps in (ic, ky, kx) order, so only independent outputs share
// an instruction and no sum is reassociated.  A tap that falls in the
// padding is selected away lane by lane, never added as a product with a
// padding zero: acc = valid ? acc + x * w : acc keeps acc's bits exactly
// (-0 + +0 would be +0), inf and NaN weights included.

/// Four floats, and four lane masks (all ones or all zeros), as GCC/Clang
/// vector extensions: plain SSE on baseline x86-64.  The arithmetic is a
/// separate multiply and add; the build never contracts it to an FMA.
typedef float Vec __attribute__((vector_size(16)));
typedef std::int32_t Mask __attribute__((vector_size(16)));

constexpr std::int64_t kLanes = 4;
/// Accumulators per conv tile: 4 output channels x 2 vectors (8 columns),
/// or 8 channels x 1 vector on rows of at most kLanes outputs.
constexpr int kTileVectors = 8;
constexpr int kMaxVectors = 2;  // vectors per channel
/// The row routines start on a cache line, so their loops sit at the same
/// offsets within a line however the code linked before them grows.
constexpr int kCodeAlign = 64;

Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

Vec splat(float x) { return Vec{x, x, x, x}; }

/// valid ? a : b, lane by lane.
Vec select(Mask valid, Vec a, Vec b) {
  return (Vec)(((Mask)a & valid) | ((Mask)b & ~valid));
}

/// Half-open index range.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// ceil(a / b) for b > 0 and any a.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? (a + b - 1) / b : -(-a / b);
}

/// One spatial axis of a conv or pool window.
struct Axis {
  std::int64_t in, out, k, stride, pad;

  /// Taps of output `o`'s window that land inside the input (empty when
  /// lo >= hi).
  [[nodiscard]] Range taps(std::int64_t o) const {
    const std::int64_t origin = o * stride - pad;
    return {std::max<std::int64_t>(0, -origin), std::min(k, in - origin)};
  }
};

/// Vectors per channel in a tile of an output row of `out` columns.
int tile_vectors(std::int64_t out) { return out <= kLanes ? 1 : kMaxVectors; }

/// How one output row is computed: `tiles` tiles of `width` columns, each
/// reading padded input rows of `phases` x `len` floats.  Phase r of a
/// padded row holds padded columns r, r + stride, r + 2 stride, ..., where
/// padded column p is input column p - pad, zero outside the row.  Tap kx
/// of output column ox reads phase kx % stride at ox + kx / stride, so the
/// columns of a tile read consecutive floats at any stride.  `len` covers
/// every tile in full; the lanes past the row's end are never stored.
struct RowPlan {
  std::int64_t width, tiles, phases, len;
  /// Per phase, the indices that hold input columns.
  std::vector<Range> inside;
  /// Per kx, where in a padded row the tile at output column 0 reads.
  std::vector<std::int64_t> tap_offset;

  RowPlan(const Axis& x, int vectors)
      : width(vectors * kLanes),
        tiles(ceil_div(x.out, width)),
        phases(x.stride),
        len(tiles * width + (x.k - 1) / x.stride) {
    // Phase index q of phase r reads input column q * stride + r - pad.
    for (std::int64_t r = 0; r < phases; ++r) {
      const std::int64_t lo =
          std::clamp<std::int64_t>(ceil_div(x.pad - r, x.stride), 0, len);
      inside.push_back({lo, std::clamp<std::int64_t>(
                                ceil_div(x.in + x.pad - r, x.stride), lo, len)});
    }
    for (std::int64_t kx = 0; kx < x.k; ++kx)
      tap_offset.push_back(kx % x.stride * len + kx / x.stride);
  }
  [[nodiscard]] std::int64_t floats() const { return phases * len; }
};

void pad_row(const float* src, const Axis& x, const RowPlan& row,
             float* dst) {
  for (std::int64_t r = 0; r < row.phases; ++r) {
    float* phase = dst + r * row.len;
    const Range in = row.inside[static_cast<std::size_t>(r)];
    std::fill(phase, phase + in.lo, 0.0f);
    for (std::int64_t q = in.lo; q < in.hi; ++q)
      phase[q] = src[q * x.stride + r - x.pad];
    std::fill(phase + in.hi, phase + row.len, 0.0f);
  }
}

/// Which lanes of a tile read an input column, not padding, at one kx.
struct TapMask {
  Mask lane[kMaxVectors];
  bool all[kMaxVectors];  // every lane of the vector: the select is the add
};

/// masks[t * k + kx] for tile t and tap kx.  Lanes past the row's end
/// count as valid: their results are never stored.
std::vector<TapMask> tap_masks(const Axis& x, const RowPlan& row) {
  std::vector<TapMask> masks(static_cast<std::size_t>(row.tiles * x.k));
  for (std::int64_t t = 0; t < row.tiles; ++t) {
    for (std::int64_t kx = 0; kx < x.k; ++kx) {
      TapMask& m = masks[static_cast<std::size_t>(t * x.k + kx)];
      for (std::int64_t j = 0; j < kMaxVectors * kLanes; ++j) {
        const std::int64_t ox = t * row.width + j;
        const std::int64_t ix = ox * x.stride - x.pad + kx;
        const bool valid = ox >= x.out || (ix >= 0 && ix < x.in);
        m.lane[j / kLanes][j % kLanes] = valid ? -1 : 0;
        m.all[j / kLanes] = (j % kLanes == 0 || m.all[j / kLanes]) && valid;
      }
    }
  }
  return masks;
}

/// Padded input rows in this thread's scratch band: for each of `channels`
/// input channels, input rows first + t for t in `fill`, padded row t of
/// channel c at (c * rows + t) * row.floats().  The band is reused and grown
/// to the largest one the thread has held, so it adds no memory per call or
/// per job.
const float* pad_band(const float* in, std::int64_t channels,
                      std::int64_t rows, std::int64_t first, Range fill,
                      const Axis& y, const Axis& x, const RowPlan& row) {
  thread_local std::vector<float> band;
  band.resize(static_cast<std::size_t>(channels * rows * row.floats()));
  for (std::int64_t c = 0; c < channels; ++c)
    for (std::int64_t t = fill.lo; t < fill.hi; ++t)
      pad_row(in + (c * y.in + first + t) * x.in, x, row,
              band.data() + (c * rows + t) * row.floats());
  return band.data();
}

/// f(i) for i = 0, ..., kN - 1 as compile-time constants: the unrolled
/// loops that let a tile's accumulators live in registers.
template <int kN, class F>
void unrolled(F&& f) {
  [&]<int... i>(std::integer_sequence<int, i...>) {
    (f(std::integral_constant<int, i>{}), ...);
  }(std::make_integer_sequence<int, kN>{});
}

/// The tile routine: calls tap(i, x, mask) for every tap of the tile at
/// output column ox0, in (ic, ky, kx) order.  Window row ky of input
/// channel ic is padded row ic * rows + row0 + ky of `band`.
/// i = (ic * kh + ky) * kw + kx indexes one output channel's weights; x
/// holds the input values of the tile's kV lane vectors; `masks` are the
/// tile's, one per kx.
template <int kV, class Tap>
void visit_taps(const float* band, std::int64_t channels, std::int64_t rows,
                std::int64_t row0, const Axis& y, Range ky, const Axis& x,
                const RowPlan& row, std::int64_t ox0, const TapMask* masks,
                Tap&& tap) {
  for (std::int64_t ic = 0; ic < channels; ++ic) {
    for (std::int64_t t = ky.lo; t < ky.hi; ++t) {
      const float* tile = band + (ic * rows + row0 + t) * row.floats() + ox0;
      const std::int64_t i0 = (ic * y.k + t) * x.k;
      for (std::int64_t kx = 0; kx < x.k; ++kx) {
        const float* p = tile + row.tap_offset[static_cast<std::size_t>(kx)];
        Vec in[kV];
        unrolled<kV>([&](auto v) { in[v] = load(p + v * kLanes); });
        tap(i0 + kx, in, masks[kx]);
      }
    }
  }
}

/// Store lanes [0, n) of a tile's kV vectors at `dst`.
template <int kV>
void store_lanes(const Vec (&v)[kV], std::int64_t n, float* dst) {
  float lanes[kV * kLanes];
  std::memcpy(lanes, v, sizeof lanes);
  std::copy_n(lanes, n, dst);
}

/// One output row of kC consecutive output channels of one group, in
/// tiles of kV vectors per channel.  `w` is the first channel's weights,
/// `bias` null for bias-free layers, `out` the first channel's output row.
template <int kC, int kV>
[[gnu::aligned(kCodeAlign)]] void conv_row(
    const float* band, std::int64_t cin_per_group, const Axis& y, Range ky,
    const Axis& x, const RowPlan& row, const TapMask* masks, const float* w,
    std::int64_t weights_per_oc, const float* bias, std::int64_t out_plane,
    float* out) {
  for (std::int64_t t = 0; t < row.tiles; ++t) {
    const std::int64_t ox0 = t * row.width;
    Vec acc[kC][kV];
    unrolled<kC>([&](auto c) {
      unrolled<kV>([&](auto v) {
        acc[c][v] = splat(bias != nullptr ? bias[c] : 0.0f);
      });
    });
    visit_taps<kV>(
        band, cin_per_group, y.k, 0, y, ky, x, row, ox0, masks + t * x.k,
        [&](std::int64_t i, const Vec (&in)[kV], const TapMask& m) {
          unrolled<kC>([&](auto c) {
            const Vec wc = splat(w[c * weights_per_oc + i]);
            unrolled<kV>([&](auto v) {
              const Vec sum = acc[c][v] + in[v] * wc;
              acc[c][v] = m.all[v] ? sum : select(m.lane[v], sum, acc[c][v]);
            });
          });
        });
    const std::int64_t n = std::min(row.width, x.out - ox0);
    unrolled<kC>([&](auto c) {
      store_lanes<kV>(acc[c], n, out + c * out_plane + ox0);
    });
  }
}

using ConvRow = decltype(&conv_row<1, 1>);

/// conv_row<kC, kV> for kC = 1, ..., kTileVectors / kV.
template <int kV>
constexpr auto conv_rows() {
  return []<int... c>(std::integer_sequence<int, c...>) {
    return std::array<ConvRow, sizeof...(c)>{conv_row<c + 1, kV>...};
  }(std::make_integer_sequence<int, kTileVectors / kV>{});
}

Tensor conv2d(const dnn::detail::Conv2dLayer& conv, const Tensor& in,
              const LayerWeights& weights, const TensorShape& out_shape) {
  Tensor out(out_shape);
  const std::int64_t cin = in.shape().channels();
  const std::int64_t cout = out_shape.channels();
  const std::int64_t groups = conv.depthwise() ? cin : conv.groups();
  const std::int64_t cin_per_group = cin / groups;
  const std::int64_t cout_per_group = cout / groups;
  const Axis y{in.shape().height(), out_shape.height(), conv.kernel_h(),
               conv.stride(), conv.padding_h()};
  const Axis x{in.shape().width(), out_shape.width(), conv.kernel_w(),
               conv.stride(), conv.padding_w()};
  const int vectors = tile_vectors(x.out);
  const RowPlan row(x, vectors);
  const std::vector<TapMask> masks = tap_masks(x, row);
  static constexpr auto kRows1 = conv_rows<1>();
  static constexpr auto kRows2 = conv_rows<2>();
  const std::span<const ConvRow> rows =
      vectors == 1 ? std::span<const ConvRow>(kRows1) : kRows2;
  const auto tile_channels = static_cast<std::int64_t>(rows.size());
  const std::int64_t weights_per_oc = cin_per_group * y.k * x.k;
  const std::int64_t out_plane = y.out * x.out;
  const bool has_bias = !weights.bias.empty();

  // Work items are (group, output row): the band of padded input rows is
  // built once per item and read by every output channel of the group, in
  // tiles of tile_channels channels and then one tile of the rest.
  util::parallel_for(
      static_cast<std::size_t>(groups * y.out), [&](std::size_t item) {
        const auto group = static_cast<std::int64_t>(item) / y.out;
        const auto oy = static_cast<std::int64_t>(item) % y.out;
        const Range ky = y.taps(oy);
        const float* band =
            pad_band(in.data() + group * cin_per_group * y.in * x.in,
                     cin_per_group, y.k, oy * y.stride - y.pad, ky, y, x, row);
        for (std::int64_t c0 = 0; c0 < cout_per_group; c0 += tile_channels) {
          const std::int64_t oc = group * cout_per_group + c0;
          const std::int64_t channels =
              std::min(tile_channels, cout_per_group - c0);
          rows[static_cast<std::size_t>(channels - 1)](
              band, cin_per_group, y, ky, x, row, masks.data(),
              weights.weights.data() + oc * weights_per_oc, weights_per_oc,
              has_bias ? weights.bias.data() + oc : nullptr, out_plane,
              out.data() + oc * out_plane + oy * x.out);
        }
      });
  return out;
}

/// Output row oy of one pooling channel whose padded input rows are all in
/// `band`; windows are square.
template <bool kMax, int kV>
[[gnu::aligned(kCodeAlign)]] void pool_row(const float* band, const Axis& y,
                                           std::int64_t oy, const Axis& x,
                                           const RowPlan& row,
                                           const TapMask* masks, float* out) {
  const Range ky = y.taps(oy);
  // The first value of std::max's or the sum's fold.
  const float init = kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
  const std::int64_t rows = std::max<std::int64_t>(0, ky.hi - ky.lo);
  for (std::int64_t t = 0; t < row.tiles; ++t) {
    const std::int64_t ox0 = t * row.width;
    Vec acc[kV];
    unrolled<kV>([&](auto v) { acc[v] = splat(init); });
    visit_taps<kV>(band, 1, y.in, oy * y.stride - y.pad, y, ky, x, row, ox0,
                   masks + t * x.k,
                   [&](std::int64_t, const Vec (&in)[kV], const TapMask& m) {
                     unrolled<kV>([&](auto v) {
                       if constexpr (kMax) {
                         // std::max(acc, x) is acc < x ? x : acc.
                         acc[v] = select(m.lane[v] & (acc[v] < in[v]), in[v],
                                         acc[v]);
                       } else {
                         acc[v] = select(m.lane[v], acc[v] + in[v], acc[v]);
                       }
                     });
                   });
    const std::int64_t n = std::min(row.width, x.out - ox0);
    if constexpr (kMax) {
      store_lanes<kV>(acc, n, out + ox0);
    } else {
      float sums[kV * kLanes];
      std::memcpy(sums, acc, sizeof sums);
      for (std::int64_t j = 0; j < n; ++j) {
        const Range kx = x.taps(ox0 + j);
        const std::int64_t count =
            rows * std::max<std::int64_t>(0, kx.hi - kx.lo);
        out[ox0 + j] = count > 0 ? sums[j] / static_cast<float>(count) : 0.0f;
      }
    }
  }
}

Tensor pool2d(const dnn::detail::Pool2dLayer& pool, const Tensor& in,
              const TensorShape& out_shape, std::int64_t kernel,
              std::int64_t stride, std::int64_t padding) {
  Tensor out(out_shape);
  const Axis y{in.shape().height(), out_shape.height(), kernel, stride,
               padding};
  const Axis x{in.shape().width(), out_shape.width(), kernel, stride,
               padding};
  const int vectors = tile_vectors(x.out);
  const RowPlan row(x, vectors);
  const std::vector<TapMask> masks = tap_masks(x, row);
  const bool is_max = pool.pool_kind() == dnn::PoolKind::kMax;
  const auto pool_rows = is_max ? (vectors == 1 ? pool_row<true, 1>
                                                : pool_row<true, 2>)
                                : (vectors == 1 ? pool_row<false, 1>
                                                : pool_row<false, 2>);
  // Work items are channels; each pads its input rows once, for all of
  // its output rows.
  util::parallel_for(
      static_cast<std::size_t>(out_shape.channels()), [&](std::size_t item) {
        const auto c = static_cast<std::int64_t>(item);
        const float* band = pad_band(in.data() + c * y.in * x.in, 1, y.in, 0,
                                     {0, y.in}, y, x, row);
        for (std::int64_t oy = 0; oy < y.out; ++oy)
          pool_rows(band, y, oy, x, row, masks.data(),
                    out.data() + (c * y.out + oy) * x.out);
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
