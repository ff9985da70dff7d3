#include "reference_kernels.h"

#include <algorithm>
#include <limits>

#include "util/thread_pool.h"

namespace jps::runtime::reference {

using dnn::TensorShape;

Tensor conv2d(const dnn::detail::Conv2dLayer& conv, const Tensor& in,
              const LayerWeights& weights, const TensorShape& out_shape) {
  Tensor out(out_shape);
  const std::int64_t cin = in.shape().channels();
  const std::int64_t cout = out_shape.channels();
  const std::int64_t groups = conv.depthwise() ? cin : conv.groups();
  const std::int64_t cin_per_group = cin / groups;
  const std::int64_t cout_per_group = cout / groups;
  const std::int64_t kh = conv.kernel_h();
  const std::int64_t kw = conv.kernel_w();
  const std::int64_t stride = conv.stride();
  const std::int64_t ph = conv.padding_h();
  const std::int64_t pw = conv.padding_w();
  const bool has_bias = !weights.bias.empty();

  util::parallel_for(static_cast<std::size_t>(cout), [&](std::size_t oc_raw) {
    const auto oc = static_cast<std::int64_t>(oc_raw);
    const std::int64_t group = oc / cout_per_group;
    const float* w = weights.weights.data() +
                     oc * cin_per_group * kh * kw;  // [cin/g][kh][kw]
    for (std::int64_t oy = 0; oy < out_shape.height(); ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.width(); ++ox) {
        float acc = has_bias ? weights.bias[static_cast<std::size_t>(oc)] : 0.0f;
        for (std::int64_t ic = 0; ic < cin_per_group; ++ic) {
          const std::int64_t in_c = group * cin_per_group + ic;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = oy * stride - ph + ky;
            if (iy < 0 || iy >= in.shape().height()) continue;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ox * stride - pw + kx;
              if (ix < 0 || ix >= in.shape().width()) continue;
              acc += in.at(in_c, iy, ix) *
                     w[(ic * kh + ky) * kw + kx];
            }
          }
        }
        out.at(oc, oy, ox) = acc;
      }
    }
  });
  return out;
}

Tensor pool2d(const dnn::detail::Pool2dLayer& pool, const Tensor& in,
              const TensorShape& out_shape, std::int64_t kernel,
              std::int64_t stride, std::int64_t padding) {
  Tensor out(out_shape);
  const bool is_max = pool.pool_kind() == dnn::PoolKind::kMax;
  util::parallel_for(
      static_cast<std::size_t>(out_shape.channels()), [&](std::size_t c_raw) {
        const auto c = static_cast<std::int64_t>(c_raw);
        for (std::int64_t oy = 0; oy < out_shape.height(); ++oy) {
          for (std::int64_t ox = 0; ox < out_shape.width(); ++ox) {
            float acc = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
            int count = 0;
            for (std::int64_t ky = 0; ky < kernel; ++ky) {
              const std::int64_t iy = oy * stride - padding + ky;
              if (iy < 0 || iy >= in.shape().height()) continue;
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                const std::int64_t ix = ox * stride - padding + kx;
                if (ix < 0 || ix >= in.shape().width()) continue;
                const float v = in.at(c, iy, ix);
                if (is_max) {
                  acc = std::max(acc, v);
                } else {
                  acc += v;
                }
                ++count;
              }
            }
            out.at(c, oy, ox) = is_max ? acc
                                       : (count > 0 ? acc / static_cast<float>(
                                                                count)
                                                    : 0.0f);
          }
        }
      });
  return out;
}

}  // namespace jps::runtime::reference
