// Threaded fp32 kernels for every layer kind in the zoo.  They run the
// graphs for real — validating shape inference with live data and feeding
// the host profiler, whose timings the planner consumes.
//
// conv2d and pool2d share one vector tile routine.  A tile is 8
// register-resident 4-wide accumulators: 4 output channels x 8 columns of
// one output row, or 8 channels x 4 columns on rows of at most 4 outputs.
// Each output row of a conv group, and each pooling channel, first copies
// the input rows it reads into a horizontally padded scratch band, split
// into `stride` phases so that the columns of a tile read consecutive
// floats at any stride.  The band is per-thread scratch, reused and grown
// to the largest band the thread has needed, so a call allocates nothing
// that grows with its work beyond its output and a few per-call tables
// (lane masks, tap offsets).  A tap that falls in the padding is selected
// away lane by lane (acc = valid ? acc + x * w : acc), never added as a
// product with a padding zero, so -0, inf and NaN come out as if the tap
// were skipped.  Every output is reduced in the order of a scalar loop over
// its window — bias (or 0), then in * w over the valid (ic, ky, kx)
// lexicographically, each a separate multiply and add (no FMA) — and only
// independent outputs share a tile, so results are bit-identical to that
// loop at any thread count; tests/runtime/kernels_oracle_test.cpp checks it
// with memcmp.
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
