// A minimal fp32 tensor for the numeric inference runtime.
//
// The scheduling research only needs layer *timings*, but a reproduction
// should be able to actually run the networks it models: the runtime
// executes every zoo graph numerically, which (a) cross-checks the shape
// inference against real data flow and (b) powers a REAL profiling harness
// (wall-clock per layer on this host) as an alternative to the analytic
// latency model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "dnn/tensor_shape.h"

namespace jps::runtime {

/// Dense row-major fp32 tensor.  CHW for images, {F} for vectors.  24 bytes
/// plus one heap block of exactly size() floats: the element count comes
/// from the (inline) shape, so plan executions that keep thousands of small
/// outputs pay no per-tensor capacity word or shape allocation.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of `shape`.
  explicit Tensor(dnn::TensorShape shape)
      : shape_(shape), data_(std::make_unique<float[]>(size())) {}

  Tensor(const Tensor& other)
      : shape_(other.shape_),
        data_(std::make_unique_for_overwrite<float[]>(other.size())) {
    std::copy_n(other.data(), other.size(), data());
  }
  Tensor& operator=(const Tensor& other) {
    if (this != &other) *this = Tensor(other);
    return *this;
  }
  /// A moved-from tensor is empty.
  Tensor(Tensor&& other) noexcept
      : shape_(std::exchange(other.shape_, {})), data_(std::move(other.data_)) {}
  Tensor& operator=(Tensor&& other) noexcept {
    shape_ = std::exchange(other.shape_, {});
    data_ = std::move(other.data_);
    return *this;
  }
  ~Tensor() = default;

  [[nodiscard]] const dnn::TensorShape& shape() const { return shape_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(shape_.elements());
  }
  [[nodiscard]] float* data() { return data_.get(); }
  [[nodiscard]] const float* data() const { return data_.get(); }
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// CHW element access (rank-3 tensors).
  [[nodiscard]] float& at(std::int64_t c, std::int64_t y, std::int64_t x) {
    return data_[idx(c, y, x)];
  }
  [[nodiscard]] float at(std::int64_t c, std::int64_t y, std::int64_t x) const {
    return data_[idx(c, y, x)];
  }

 private:
  [[nodiscard]] std::size_t idx(std::int64_t c, std::int64_t y,
                                std::int64_t x) const {
    return static_cast<std::size_t>(
        (c * shape_.height() + y) * shape_.width() + x);
  }

  dnn::TensorShape shape_;
  std::unique_ptr<float[]> data_;
};

}  // namespace jps::runtime
