#include "grid/image.hpp"

#include <gtest/gtest.h>

namespace das::grid {
namespace {

TEST(ImageTest, DimensionsAndDeterminism) {
  ImageOptions opt;
  opt.width = 33;
  opt.height = 17;
  const Grid<float> a = generate_image(opt);
  EXPECT_EQ(a.width(), 33U);
  EXPECT_EQ(a.height(), 17U);
  EXPECT_EQ(a, generate_image(opt));
}

TEST(ImageTest, BlobsRaiseIntensityAboveBackground) {
  ImageOptions opt;
  opt.noise_stddev = 0.0;
  const Grid<float> img = generate_image(opt);
  float hi = img[0];
  for (std::size_t i = 0; i < img.size(); ++i) hi = std::max(hi, img[i]);
  EXPECT_GT(hi, static_cast<float>(opt.background) * 2);
}

TEST(ImageTest, NoiselessBlobFreeImageIsFlat) {
  ImageOptions opt;
  opt.num_blobs = 0;
  opt.noise_stddev = 0.0;
  const Grid<float> img = generate_image(opt);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_FLOAT_EQ(img[i], static_cast<float>(opt.background));
  }
}

TEST(ImpulseNoiseTest, RateIsApproximate) {
  const Grid<float> img =
      generate_impulse_noise(200, 200, 10.0F, 255.0F, 0.05, 7);
  std::size_t impulses = 0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    ASSERT_TRUE(img[i] == 10.0F || img[i] == 255.0F);
    if (img[i] == 255.0F) ++impulses;
  }
  const double rate =
      static_cast<double>(impulses) / static_cast<double>(img.size());
  EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(ImpulseNoiseTest, ZeroRateIsClean) {
  const Grid<float> img = generate_impulse_noise(10, 10, 1.0F, 9.0F, 0.0, 1);
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_FLOAT_EQ(img[i], 1.0F);
}

}  // namespace
}  // namespace das::grid
