// Reference conv2d/pool2d: the original accessor-based kernels, kept
// verbatim as the oracle that the direct kernels in src/runtime/kernels.cpp
// must match bit for bit.
#pragma once

#include <cstdint>

#include "dnn/layer_impl.h"
#include "runtime/kernels.h"

namespace jps::runtime::reference {

[[nodiscard]] Tensor conv2d(const dnn::detail::Conv2dLayer& conv,
                            const Tensor& in, const LayerWeights& weights,
                            const dnn::TensorShape& out_shape);

[[nodiscard]] Tensor pool2d(const dnn::detail::Pool2dLayer& pool,
                            const Tensor& in, const dnn::TensorShape& out_shape,
                            std::int64_t kernel, std::int64_t stride,
                            std::int64_t padding);

}  // namespace jps::runtime::reference
