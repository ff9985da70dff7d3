#include "profile/comm_regression.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "util/units.h"

namespace jps::profile {
namespace {

TEST(CommRegression, RecoversNoiselessChannel) {
  const net::Channel channel(5.85, /*setup_latency_ms=*/8.0);
  util::Rng rng(1);
  const CommRegression model = CommRegression::train_on_channel(
      channel, 1024, 8u * 1024 * 1024, 32, /*noise_sigma=*/0.0, rng);
  // w0 must recover the setup latency; predictions must match the channel.
  EXPECT_NEAR(model.w0(), 8.0, 0.5);
  EXPECT_GT(model.r2(), 0.999);
  for (const std::uint64_t bytes : {4096ull, 100'000ull, 1'000'000ull}) {
    EXPECT_NEAR(model.predict_ms(bytes, 5.85), channel.time_ms(bytes),
                0.01 * channel.time_ms(bytes) + 0.5);
  }
}

TEST(CommRegression, GeneralizesAcrossBandwidths) {
  // Trained at one bandwidth, the w0 + w1*(s/b) form extrapolates to others
  // because the regressor is the ratio (the paper's deployment mode).
  const net::Channel train_channel(10.0, 8.0);
  util::Rng rng(2);
  const CommRegression model = CommRegression::train_on_channel(
      train_channel, 1024, 4u * 1024 * 1024, 24, 0.0, rng);
  const net::Channel other(2.0, 8.0);
  const std::uint64_t bytes = 500'000;
  EXPECT_NEAR(model.predict_ms(bytes, 2.0), other.time_ms(bytes),
              0.02 * other.time_ms(bytes) + 1.0);
}

TEST(CommRegression, NoisyTrainingStillClose) {
  const net::Channel channel(18.88, 8.0);
  util::Rng rng(3);
  const CommRegression model = CommRegression::train_on_channel(
      channel, 1024, 8u * 1024 * 1024, 200, /*noise_sigma=*/0.1, rng);
  const std::uint64_t bytes = 2'000'000;
  EXPECT_NEAR(model.predict_ms(bytes, 18.88), channel.time_ms(bytes),
              0.1 * channel.time_ms(bytes));
}

TEST(CommRegression, ZeroBytesIsFree) {
  const net::Channel channel(10.0, 8.0);
  util::Rng rng(4);
  const CommRegression model =
      CommRegression::train_on_channel(channel, 1024, 1'000'000, 16, 0.0, rng);
  EXPECT_DOUBLE_EQ(model.predict_ms(0, 10.0), 0.0);
}

TEST(CommRegression, FitValidation) {
  EXPECT_THROW(CommRegression::fit({}), std::invalid_argument);
  EXPECT_THROW(CommRegression::fit({{100, 1.0, 5.0}}), std::invalid_argument);
  EXPECT_THROW(CommRegression::fit({{100, 0.0, 5.0}, {200, 1.0, 6.0}}),
               std::invalid_argument);
}

TEST(CommRegression, PredictValidation) {
  // Regression: predict_ms divided by the bandwidth unchecked, so 0 gave
  // +inf, a negative rate gave a negative latency, and NaN/inf wandered
  // straight into the planner's comparisons.  Now it refuses.
  const net::Channel channel(10.0, 8.0);
  util::Rng rng(7);
  const CommRegression model = CommRegression::train_on_channel(
      channel, 1024, 4u * 1024 * 1024, 24, 0.0, rng);
  EXPECT_THROW((void)model.predict_ms(1000, 0.0), std::invalid_argument);
  EXPECT_THROW((void)model.predict_ms(1000, -1.0), std::invalid_argument);
  EXPECT_THROW((void)model.predict_ms(1000, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)model.predict_ms(1000, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // A valid rate still predicts.
  EXPECT_GT(model.predict_ms(1000, 10.0), 0.0);
}

TEST(CommRegression, FitRejectsNonFiniteBandwidth) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CommRegression::fit({{100, nan, 5.0}, {200, 1.0, 6.0}}),
               std::invalid_argument);
}

TEST(CommRegression, TrainValidation) {
  const net::Channel channel(10.0);
  util::Rng rng(5);
  EXPECT_THROW(
      CommRegression::train_on_channel(channel, 1024, 2048, 1, 0.0, rng),
      std::invalid_argument);
  EXPECT_THROW(
      CommRegression::train_on_channel(channel, 0, 2048, 8, 0.0, rng),
      std::invalid_argument);
  EXPECT_THROW(
      CommRegression::train_on_channel(channel, 4096, 2048, 8, 0.0, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace jps::profile
