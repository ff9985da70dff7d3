#include "dnn/tensor_shape.h"

#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace jps::dnn {

const char* dtype_name(DType t) {
  switch (t) {
    case DType::kFloat32: return "f32";
    case DType::kFloat16: return "f16";
    case DType::kInt8: return "i8";
  }
  return "?";
}

TensorShape::TensorShape(std::initializer_list<std::int64_t> dims) {
  if (dims.size() > kMaxRank)
    throw std::invalid_argument("TensorShape: rank above " +
                                std::to_string(kMaxRank));
  for (const std::int64_t d : dims) {
    if (d < 1 || d > std::numeric_limits<std::int32_t>::max())
      throw std::invalid_argument("TensorShape: dims must be in [1, 2^31)");
    dims_[rank_++] = static_cast<std::int32_t>(d);
  }
}

TensorShape TensorShape::chw(std::int64_t c, std::int64_t h, std::int64_t w) {
  return TensorShape{c, h, w};
}

TensorShape TensorShape::flat(std::int64_t f) { return TensorShape{f}; }

std::int64_t TensorShape::dim(std::size_t i) const {
  if (i >= rank()) throw std::out_of_range("TensorShape::dim");
  return dims_[i];
}

std::int64_t TensorShape::channels() const {
  assert(rank() == 3);
  return dims_[0];
}

std::int64_t TensorShape::height() const {
  assert(rank() == 3);
  return dims_[1];
}

std::int64_t TensorShape::width() const {
  assert(rank() == 3);
  return dims_[2];
}

std::uint64_t TensorShape::bytes(DType t) const {
  return static_cast<std::uint64_t>(elements()) * dtype_size(t);
}

std::string TensorShape::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rank(); ++i) {
    if (i) os << 'x';
    os << dims_[i];
  }
  return os.str();
}

}  // namespace jps::dnn
