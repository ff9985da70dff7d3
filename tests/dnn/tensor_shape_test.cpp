#include "dnn/tensor_shape.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace jps::dnn {
namespace {

TEST(TensorShape, ChwAccessors) {
  const TensorShape s = TensorShape::chw(3, 224, 224);
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.channels(), 3);
  EXPECT_EQ(s.height(), 224);
  EXPECT_EQ(s.width(), 224);
  EXPECT_EQ(s.elements(), 3 * 224 * 224);
}

TEST(TensorShape, BytesPerDtype) {
  const TensorShape s = TensorShape::flat(1000);
  EXPECT_EQ(s.bytes(DType::kFloat32), 4000u);
  EXPECT_EQ(s.bytes(DType::kFloat16), 2000u);
  EXPECT_EQ(s.bytes(DType::kInt8), 1000u);
}

TEST(TensorShape, EmptyShape) {
  const TensorShape s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.elements(), 0);
  EXPECT_EQ(s.bytes(), 0u);
}

TEST(TensorShape, RejectsNonPositiveDims) {
  EXPECT_THROW(TensorShape({3, 0, 5}), std::invalid_argument);
  EXPECT_THROW(TensorShape({-1}), std::invalid_argument);
}

TEST(TensorShape, RejectsRankAboveMaxAndHugeDims) {
  EXPECT_THROW(TensorShape({1, 2, 3, 4}), std::invalid_argument);
  EXPECT_EQ(TensorShape({1, 2, 3}).rank(), TensorShape::kMaxRank);
  EXPECT_THROW(TensorShape({std::int64_t{1} << 31}), std::invalid_argument);
  EXPECT_EQ(TensorShape::flat((std::int64_t{1} << 31) - 1).elements(),
            (std::int64_t{1} << 31) - 1);
  EXPECT_EQ(TensorShape::chw(65536, 65536, 2).elements(), std::int64_t{1} << 33);
}

TEST(TensorShape, DimBoundsChecked) {
  const TensorShape s = TensorShape::flat(10);
  EXPECT_EQ(s.dim(0), 10);
  EXPECT_THROW((void)s.dim(1), std::out_of_range);
}

TEST(TensorShape, Equality) {
  EXPECT_EQ(TensorShape::chw(1, 2, 3), TensorShape({1, 2, 3}));
  EXPECT_FALSE(TensorShape::chw(1, 2, 3) == TensorShape::chw(3, 2, 1));
}

TEST(TensorShape, Str) {
  EXPECT_EQ(TensorShape::chw(24, 56, 56).str(), "24x56x56");
  EXPECT_EQ(TensorShape::flat(4096).str(), "4096");
}

TEST(DTypeNames, AllNamed) {
  EXPECT_STREQ(dtype_name(DType::kFloat32), "f32");
  EXPECT_STREQ(dtype_name(DType::kFloat16), "f16");
  EXPECT_STREQ(dtype_name(DType::kInt8), "i8");
}

}  // namespace
}  // namespace jps::dnn
