// Internal: concrete layer classes behind the factory functions in layer.h.
// Not part of the public API — include only from dnn/*.cpp and tests that
// need white-box access.
#pragma once

#include <cstdint>

#include "dnn/layer.h"

namespace jps::dnn::detail {

/// Throws std::invalid_argument unless `inputs` has exactly `n` entries.
void expect_arity(std::span<const TensorShape> inputs, std::size_t n,
                  const char* layer_name);

/// Throws std::invalid_argument unless the shape has rank 3 (CHW).
void expect_chw(const TensorShape& s, const char* layer_name);

/// floor((in + 2*pad - kernel)/stride) + 1, validated to be >= 1.
[[nodiscard]] std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                                        std::int64_t stride, std::int64_t pad,
                                        const char* layer_name);

class InputLayer final : public Layer {
 public:
  explicit InputLayer(TensorShape shape) : shape_(std::move(shape)) {}
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kInput; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape>, const TensorShape&) const override { return 0.0; }
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
  [[nodiscard]] const TensorShape& shape() const { return shape_; }

 private:
  TensorShape shape_;
};

class Conv2dLayer final : public Layer {
 public:
  Conv2dLayer(std::int64_t out_channels, std::int64_t kernel_h,
              std::int64_t kernel_w, std::int64_t stride, std::int64_t pad_h,
              std::int64_t pad_w, std::int64_t groups, bool bias);
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kConv2d; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape> inputs, const TensorShape& output) const override;

  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] std::int64_t kernel_h() const { return kernel_h_; }
  [[nodiscard]] std::int64_t kernel_w() const { return kernel_w_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] std::int64_t padding_h() const { return pad_h_; }
  [[nodiscard]] std::int64_t padding_w() const { return pad_w_; }
  /// groups == 0 encodes "depthwise": bind groups to in_channels at infer time.
  [[nodiscard]] std::int64_t groups() const { return groups_; }
  [[nodiscard]] bool depthwise() const { return groups_ == 0; }
  [[nodiscard]] bool has_bias() const { return bias_; }

 private:
  [[nodiscard]] std::int64_t effective_groups(std::int64_t in_channels) const;

  std::int64_t out_channels_;
  std::int64_t kernel_h_;
  std::int64_t kernel_w_;
  std::int64_t stride_;
  std::int64_t pad_h_;
  std::int64_t pad_w_;
  std::int64_t groups_;
  bool bias_;
};

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::int64_t out_features, bool bias)
      : out_features_(out_features), bias_(bias) {}
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kDense; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::int64_t out_features() const { return out_features_; }
  [[nodiscard]] bool has_bias() const { return bias_; }

 private:
  std::int64_t out_features_;
  bool bias_;
};

class Pool2dLayer final : public Layer {
 public:
  Pool2dLayer(PoolKind pool_kind, std::int64_t kernel, std::int64_t stride,
              std::int64_t padding);
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kPool2d; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
  [[nodiscard]] PoolKind pool_kind() const { return pool_kind_; }
  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] std::int64_t padding() const { return padding_; }

 private:
  PoolKind pool_kind_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t padding_;
};

class GlobalAvgPoolLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kGlobalAvgPool; }
  [[nodiscard]] std::string describe() const override { return "global_avg_pool"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
};

class FlattenLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kFlatten; }
  [[nodiscard]] std::string describe() const override { return "flatten"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape>, const TensorShape&) const override { return 0.0; }
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
};

class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(ActivationKind a) : act_(a) {}
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kActivation; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
  [[nodiscard]] ActivationKind activation_kind() const { return act_; }

 private:
  ActivationKind act_;
};

class BatchNormLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kBatchNorm; }
  [[nodiscard]] std::string describe() const override { return "batch_norm"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape> inputs, const TensorShape& output) const override;
};

class LRNLayer final : public Layer {
 public:
  explicit LRNLayer(std::int64_t size) : size_(size) {}
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kLRN; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
  [[nodiscard]] std::int64_t window_size() const { return size_; }

 private:
  std::int64_t size_;
};

class DropoutLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kDropout; }
  [[nodiscard]] std::string describe() const override { return "dropout"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape>, const TensorShape&) const override { return 0.0; }
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
};

class ConcatLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kConcat; }
  [[nodiscard]] std::string describe() const override { return "concat"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape>, const TensorShape&) const override { return 0.0; }
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
};

class AddLayer final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const override { return LayerKind::kAdd; }
  [[nodiscard]] std::string describe() const override { return "add"; }
  [[nodiscard]] TensorShape infer(std::span<const TensorShape> inputs) const override;
  [[nodiscard]] double flops(std::span<const TensorShape> inputs, const TensorShape& output) const override;
  [[nodiscard]] std::uint64_t param_count(std::span<const TensorShape>, const TensorShape&) const override { return 0; }
};

}  // namespace jps::dnn::detail
