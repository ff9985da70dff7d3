#include "runtime/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "dnn/layer.h"

namespace jps::runtime {
namespace {

using dnn::TensorShape;

Tensor make_tensor(const TensorShape& shape, std::initializer_list<float> v) {
  Tensor t(shape);
  std::size_t i = 0;
  for (const float x : v) t[i++] = x;
  EXPECT_EQ(i, t.size());
  return t;
}

TEST(Kernels, Conv1x1IdentityCopiesChannel) {
  // One input channel, one output channel, 1x1 kernel with weight 1.
  const auto layer = dnn::conv2d(1, 1, 1, 0, 1, /*bias=*/false);
  const Tensor in = make_tensor(TensorShape::chw(1, 2, 2), {1, 2, 3, 4});
  LayerWeights w;
  w.weights = {1.0f};
  const Tensor out = run_layer(*layer, {{in}}, w);
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Kernels, Conv3x3HandComputed) {
  // 1 channel 3x3 input, 3x3 kernel of ones, padding 1: center output equals
  // the sum of all 9 elements; corner output the sum of its 2x2 block.
  const auto layer = dnn::conv2d(1, 3, 1, 1, 1, /*bias=*/false);
  const Tensor in =
      make_tensor(TensorShape::chw(1, 3, 3), {1, 2, 3, 4, 5, 6, 7, 8, 9});
  LayerWeights w;
  w.weights.assign(9, 1.0f);
  const Tensor out = run_layer(*layer, {{in}}, w);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 45.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out.at(0, 2, 2), 5 + 6 + 8 + 9);
}

TEST(Kernels, ConvBiasAndStride) {
  // 2x2 stride-2 kernel of ones + bias 10 over a 4x4 ramp.
  const auto layer = dnn::conv2d(1, 2, 2, 0, 1, /*bias=*/true);
  Tensor in(TensorShape::chw(1, 4, 4));
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  LayerWeights w;
  w.weights.assign(4, 1.0f);
  w.bias = {10.0f};
  const Tensor out = run_layer(*layer, {{in}}, w);
  EXPECT_EQ(out.shape(), TensorShape::chw(1, 2, 2));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0 + 1 + 4 + 5 + 10);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 10 + 11 + 14 + 15 + 10);
}

TEST(Kernels, DepthwiseConvKeepsChannelsSeparate) {
  const auto layer = dnn::depthwise_conv2d(1, 1, 0);  // 1x1 depthwise
  const Tensor in = make_tensor(TensorShape::chw(2, 1, 2), {1, 2, 10, 20});
  LayerWeights w;
  w.weights = {3.0f, 5.0f};  // one weight per channel
  const Tensor out = run_layer(*layer, {{in}}, w);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 6.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 50.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 1), 100.0f);
}

TEST(Kernels, RectConv1x3) {
  const auto layer = dnn::conv2d_rect(1, 1, 3, 0, 1, /*bias=*/false);
  const Tensor in = make_tensor(TensorShape::chw(1, 1, 3), {1, 2, 3});
  LayerWeights w;
  w.weights = {1.0f, 1.0f, 1.0f};
  const Tensor out = run_layer(*layer, {{in}}, w);
  EXPECT_EQ(out.shape(), TensorShape::chw(1, 1, 3));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);   // 0-pad + 1 + 2
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 6.0f);   // 1 + 2 + 3
  EXPECT_FLOAT_EQ(out.at(0, 0, 2), 5.0f);   // 2 + 3 + 0-pad
}

TEST(Kernels, MaxAndAvgPool) {
  const Tensor in =
      make_tensor(TensorShape::chw(1, 2, 2), {1, 2, 3, 4});
  const LayerWeights none;
  const auto max_pool = dnn::pool2d(dnn::PoolKind::kMax, 2, 2);
  EXPECT_FLOAT_EQ(run_layer(*max_pool, {{in}}, none)[0], 4.0f);
  const auto avg_pool = dnn::pool2d(dnn::PoolKind::kAvg, 2, 2);
  EXPECT_FLOAT_EQ(run_layer(*avg_pool, {{in}}, none)[0], 2.5f);
}

TEST(Kernels, AvgPoolPaddingDividesByWindowCount) {
  // 3x3/1 p1 average at the corner sees only 4 valid elements.
  const Tensor in =
      make_tensor(TensorShape::chw(1, 2, 2), {1, 2, 3, 4});
  const auto pool = dnn::pool2d(dnn::PoolKind::kAvg, 3, 1, 1);
  const LayerWeights none;
  const Tensor out = run_layer(*pool, {{in}}, none);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), (1 + 2 + 3 + 4) / 4.0f);
}

TEST(Kernels, GlobalAvgPool) {
  const Tensor in =
      make_tensor(TensorShape::chw(2, 1, 2), {1, 3, 10, 30});
  const auto gap = dnn::global_avg_pool();
  const LayerWeights none;
  const Tensor out = run_layer(*gap, {{in}}, none);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 20.0f);
}

TEST(Kernels, DenseMatVec) {
  const auto layer = dnn::dense(2, /*bias=*/true);
  const Tensor in = make_tensor(TensorShape::flat(3), {1, 2, 3});
  LayerWeights w;
  w.weights = {1, 0, 0, /*row 2:*/ 1, 1, 1};
  w.bias = {100, 200};
  const Tensor out = run_layer(*layer, {{in}}, w);
  EXPECT_FLOAT_EQ(out[0], 101.0f);
  EXPECT_FLOAT_EQ(out[1], 206.0f);
}

TEST(Kernels, Activations) {
  const LayerWeights none;
  const Tensor in = make_tensor(TensorShape::flat(3), {-1, 3, 9});
  const auto relu = dnn::activation(dnn::ActivationKind::kReLU);
  const Tensor r = run_layer(*relu, {{in}}, none);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[2], 9.0f);
  const auto relu6 = dnn::activation(dnn::ActivationKind::kReLU6);
  EXPECT_FLOAT_EQ(run_layer(*relu6, {{in}}, none)[2], 6.0f);
  const auto softmax = dnn::activation(dnn::ActivationKind::kSoftmax);
  const Tensor s = run_layer(*softmax, {{in}}, none);
  float sum = 0.0f;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GT(s[i], 0.0f);
    sum += s[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(Kernels, ReluAndRelu6KeepStdMaxAndClampBits) {
  // ReLU is std::max(0.0f, x): NaN and -0 become +0.  ReLU6 is
  // std::clamp(x, 0.0f, 6.0f): NaN and -0 pass through.  Eleven inputs
  // cover both the four-wide body and the scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float above_six = std::nextafter(6.0f, inf);
  const float below_six = std::nextafter(6.0f, 0.0f);
  const Tensor in = make_tensor(
      TensorShape::flat(11), {0.0f, -0.0f, inf, -inf, nan, 6.0f, above_six,
                              below_six, -2.5f, 1e-45f, -1e-45f});
  const LayerWeights none;
  const Tensor relu =
      run_layer(*dnn::activation(dnn::ActivationKind::kReLU), {{in}}, none);
  const Tensor relu6 =
      run_layer(*dnn::activation(dnn::ActivationKind::kReLU6), {{in}}, none);
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits(relu[i]), bits(std::max(0.0f, in[i]))) << "input " << i;
    EXPECT_EQ(bits(relu6[i]), bits(std::clamp(in[i], 0.0f, 6.0f)))
        << "input " << i;
  }
  // The pinned values themselves, so the expectations above cannot drift.
  EXPECT_EQ(bits(relu[1]), bits(0.0f));   // -0 -> +0
  EXPECT_EQ(bits(relu[4]), bits(0.0f));   // NaN -> +0
  EXPECT_EQ(relu[2], inf);
  EXPECT_EQ(bits(relu[3]), bits(0.0f));
  EXPECT_EQ(relu[6], above_six);
  EXPECT_EQ(bits(relu6[1]), bits(-0.0f));  // -0 kept
  EXPECT_TRUE(std::isnan(relu6[4]));       // NaN kept
  EXPECT_EQ(relu6[2], 6.0f);
  EXPECT_EQ(bits(relu6[3]), bits(0.0f));
  EXPECT_EQ(relu6[5], 6.0f);
  EXPECT_EQ(relu6[6], 6.0f);
  EXPECT_EQ(relu6[7], below_six);
  EXPECT_EQ(relu6[9], 1e-45f);
  EXPECT_EQ(bits(relu6[10]), bits(0.0f));
}

TEST(Kernels, BatchNormAffine) {
  const auto bn = dnn::batch_norm();
  const Tensor in = make_tensor(TensorShape::chw(2, 1, 1), {3, 5});
  LayerWeights w;
  w.weights = {2.0f, 10.0f, /*beta:*/ 1.0f, -1.0f};
  const Tensor out = run_layer(*bn, {{in}}, w);
  EXPECT_FLOAT_EQ(out[0], 7.0f);    // 2*3 + 1
  EXPECT_FLOAT_EQ(out[1], 49.0f);   // 10*5 - 1
}

TEST(Kernels, AddAndConcat) {
  const LayerWeights none;
  const Tensor a = make_tensor(TensorShape::chw(1, 1, 2), {1, 2});
  const Tensor b = make_tensor(TensorShape::chw(1, 1, 2), {10, 20});
  const auto add = dnn::add();
  const Tensor sum = run_layer(*add, {{a, b}}, none);
  EXPECT_FLOAT_EQ(sum[0], 11.0f);
  const auto cat = dnn::concat();
  const Tensor joined = run_layer(*cat, {{a, b}}, none);
  EXPECT_EQ(joined.shape(), TensorShape::chw(2, 1, 2));
  EXPECT_FLOAT_EQ(joined[0], 1.0f);
  EXPECT_FLOAT_EQ(joined[2], 10.0f);
}

TEST(Kernels, WeightCountValidated) {
  const auto layer = dnn::conv2d(1, 1, 1, 0, 1, /*bias=*/false);
  const Tensor in(TensorShape::chw(1, 2, 2));
  LayerWeights wrong;  // missing the single weight
  EXPECT_THROW((void)run_layer(*layer, {{in}}, wrong), std::invalid_argument);
}

TEST(Kernels, MisSplitConvBlobsRejected) {
  // 2 weights + 2 biases; a 3 + 1 split has the right total but would read
  // bias[1] past the end.
  const auto layer = dnn::conv2d(2, 1, 1, 0, 1, /*bias=*/true);
  const Tensor in(TensorShape::chw(1, 2, 2));
  LayerWeights w;
  w.weights = {1.0f, 2.0f, 3.0f};
  w.bias = {0.5f};
  EXPECT_THROW((void)run_layer(*layer, {{in}}, w), std::invalid_argument);
  w.weights = {1.0f, 2.0f};
  w.bias = {0.5f, 0.25f};
  EXPECT_NO_THROW((void)run_layer(*layer, {{in}}, w));
}

TEST(Kernels, BiasOnBiasFreeLayerRejected) {
  // conv2d without bias over 2 channels: 4 weights, 0 biases.
  const auto conv = dnn::conv2d(2, 1, 1, 0, 1, /*bias=*/false);
  const Tensor in(TensorShape::chw(2, 2, 2));
  LayerWeights w;
  w.weights = {1.0f, 2.0f};
  w.bias = {0.0f, 0.0f};
  EXPECT_THROW((void)run_layer(*conv, {{in}}, w), std::invalid_argument);
  const auto dense = dnn::dense(2, /*bias=*/false);
  const Tensor flat(TensorShape::flat(3));
  w.weights = {1, 2, 3, 4};
  w.bias = {0.0f, 0.0f};
  EXPECT_THROW((void)run_layer(*dense, {{flat}}, w), std::invalid_argument);
}

TEST(Kernels, MisSplitDenseBlobsRejected) {
  const auto layer = dnn::dense(2, /*bias=*/true);
  const Tensor in(TensorShape::flat(3));
  LayerWeights w;
  w.weights = {1, 2, 3, 4, 5, 6, 7};
  w.bias = {0.5f};
  EXPECT_THROW((void)run_layer(*layer, {{in}}, w), std::invalid_argument);
}

TEST(Kernels, BatchNormTakesNoBiasBlob) {
  // gamma and beta both live in `weights`; a C + C split would read beta
  // past the end of the weight blob.
  const auto bn = dnn::batch_norm();
  const Tensor in(TensorShape::chw(2, 1, 1));
  LayerWeights w;
  w.weights = {1.0f, 1.0f};
  w.bias = {0.0f, 0.0f};
  EXPECT_THROW((void)run_layer(*bn, {{in}}, w), std::invalid_argument);
}

TEST(Kernels, WeightSizesSplitParamCount) {
  const auto conv = dnn::conv2d(6, 3, 1, 1, /*groups=*/2, /*bias=*/true);
  const TensorShape in = TensorShape::chw(4, 5, 5);
  const TensorShape out = conv->infer({{in}});
  const WeightSizes sizes = weight_sizes(*conv, {{in}}, out);
  EXPECT_EQ(sizes.weights, 6u * 2u * 9u);
  EXPECT_EQ(sizes.bias, 6u);
  EXPECT_EQ(sizes.weights + sizes.bias, conv->param_count({{in}}, out));
}

TEST(Kernels, InputNodesRejected) {
  const auto layer = dnn::input(TensorShape::chw(1, 1, 1));
  EXPECT_THROW((void)run_layer(*layer, {}, LayerWeights{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace jps::runtime
