// Threaded fp32 kernels for every layer kind in the zoo.  They run the
// graphs for real — validating shape inference with live data and feeding
// the host profiler, whose timings the planner consumes.
//
// conv2d and pool2d are direct kernels over raw rows: dimensions hoisted,
// each output row split into its interior and padded borders (out-of-range
// taps are skipped, never multiplied by zero), stride 1 specialised, and a
// register tile of 4 output channels x 8 columns accumulated at once.  They
// use no scratch memory beyond the output.  Every output is reduced in the
// order of a scalar loop over its window — bias (or 0), then in * w over
// (ic, ky, kx) lexicographically — and only independent outputs share a
// tile, so results are bit-identical to that loop at any thread count;
// tests/runtime/kernels_oracle_test.cpp checks it with memcmp.
#pragma once

#include <cstdint>
#include <span>

#include "dnn/layer.h"
#include "runtime/tensor.h"

namespace jps::runtime {

/// Per-layer learned parameters (flat fp32 blobs in the layer's own layout).
struct LayerWeights {
  /// Main weight blob: conv [cout][cin/g][kh][kw], dense [out][in],
  /// batch-norm [2*C] (gamma then beta).  Empty for parameter-free layers.
  std::vector<float> weights;
  /// Bias [cout]/[out]; empty when the layer has none.
  std::vector<float> bias;
};

/// Sizes of the two blobs `layer` reads: conv cout*(cin/g)*kh*kw weights,
/// dense out*in, batch-norm 2*C; bias cout/out when the layer declares one,
/// else 0.  weights + bias == layer.param_count.
struct WeightSizes {
  std::uint64_t weights = 0;
  std::uint64_t bias = 0;
};
[[nodiscard]] WeightSizes weight_sizes(const dnn::Layer& layer,
                                       std::span<const dnn::TensorShape> inputs,
                                       const dnn::TensorShape& output);

/// Execute one layer on already-computed inputs.
/// `layer` must be a zoo layer kind; each blob must have exactly the size
/// weight_sizes gives (validated).  Throws std::invalid_argument on
/// mismatches.  Threaded over output channels/rows via util::parallel_for
/// for the heavy kernels.
[[nodiscard]] Tensor run_layer(const dnn::Layer& layer,
                               std::span<const Tensor> inputs,
                               const LayerWeights& weights);

}  // namespace jps::runtime
