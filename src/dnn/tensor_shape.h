// Tensor shapes for layer-level DNN modeling.
//
// The partition algorithms only ever need two things from a tensor: its
// element count (for FLOP and memory-traffic accounting) and its byte size
// (for the offloading communication volume g).  Shapes model a single
// inference sample (no batch dimension) in CHW layout for images and {F} for
// flattened feature vectors, matching the paper's per-frame jobs.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace jps::dnn {

/// Bytes per element for the data types the zoo uses.
enum class DType : std::uint8_t {
  kFloat32,
  kFloat16,
  kInt8,
};

/// Size of one element of `t` in bytes.
[[nodiscard]] constexpr std::uint64_t dtype_size(DType t) {
  switch (t) {
    case DType::kFloat32: return 4;
    case DType::kFloat16: return 2;
    case DType::kInt8: return 1;
  }
  return 4;
}

/// Human-readable dtype name ("f32", ...).
[[nodiscard]] const char* dtype_name(DType t);

/// Immutable-ish dimension vector with CHW convenience accessors.  The
/// dims are stored inline in 16 bytes, so creating or copying a shape —
/// done for every inferred node and every runtime tensor — costs no heap
/// allocation.
class TensorShape {
 public:
  /// Largest rank: one sample in CHW layout.
  static constexpr std::size_t kMaxRank = 3;

  TensorShape() = default;

  /// Shape of rank <= kMaxRank; every dim must be in [1, 2^31) (validated).
  TensorShape(std::initializer_list<std::int64_t> dims);

  /// CHW image shape.
  static TensorShape chw(std::int64_t c, std::int64_t h, std::int64_t w);

  /// Flat feature vector of `f` features.
  static TensorShape flat(std::int64_t f);

  /// Number of dimensions (0 for a default-constructed empty shape).
  [[nodiscard]] std::size_t rank() const {
    return static_cast<std::size_t>(rank_);
  }

  /// True when no dims have been set; used as "shape not inferred yet".
  [[nodiscard]] bool empty() const { return rank_ == 0; }

  /// Dimension i (bounds-checked).
  [[nodiscard]] std::int64_t dim(std::size_t i) const;

  /// Channels / height / width of a rank-3 CHW shape (asserts rank 3).
  [[nodiscard]] std::int64_t channels() const;
  [[nodiscard]] std::int64_t height() const;
  [[nodiscard]] std::int64_t width() const;

  /// Product of all dims; 0 for an empty shape.
  [[nodiscard]] std::int64_t elements() const {
    static_assert(kMaxRank == 3);
    return empty() ? 0
                   : std::int64_t{dims_[0]} * std::int64_t{dims_[1]} *
                         std::int64_t{dims_[2]};
  }

  /// elements() * dtype_size(t).
  [[nodiscard]] std::uint64_t bytes(DType t = DType::kFloat32) const;

  /// "24x56x56" style rendering.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const TensorShape& a, const TensorShape& b) = default;

 private:
  // Entries past rank_ stay 1, so elements() is a plain product.
  std::array<std::int32_t, kMaxRank> dims_{1, 1, 1};
  std::int32_t rank_ = 0;
};

}  // namespace jps::dnn
