// Bit-identity of the input generators against the whole-square reference
// implementations (reference_generators.hpp): the banded diamond-square and
// the culled blob sum must reproduce every output float, for every shape,
// seed and option set below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "grid/dem.hpp"
#include "grid/image.hpp"
#include "reference_generators.hpp"

namespace das::grid {
namespace {

struct Shape {
  std::uint32_t width;
  std::uint32_t height;
};

// Every reference side stays <= 2049 (a 32 MiB covering square), so the
// whole table runs in seconds even under sanitizers.
const std::vector<Shape> kShapes = {
    {2, 2},     {3, 2},     {2, 3},      {37, 21},   {21, 37},   {256, 256},
    {257, 256}, {256, 257}, {1024, 3},   {3, 1024},  {2048, 16}, {16, 2048},
    {1000, 999}, {513, 513}, {2048, 64}, {64, 2048}, {16, 1},    {1, 16},
};

const std::vector<std::uint64_t> kSeeds = {1, 42, 99};

::testing::AssertionResult same_bits(const Grid<float>& got,
                                     const Grid<float>& want) {
  if (got.width() != want.width() || got.height() != want.height()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (std::uint32_t y = 0; y < want.height(); ++y) {
    if (std::memcmp(got.row(y), want.row(y), want.width() * sizeof(float)) !=
        0) {
      for (std::uint32_t x = 0; x < want.width(); ++x) {
        if (std::memcmp(&got.row(y)[x], &want.row(y)[x], sizeof(float)) !=
            0) {
          return ::testing::AssertionFailure()
                 << "first difference at (" << x << ", " << y << "): got "
                 << got.at(x, y) << ", want " << want.at(x, y);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  return std::to_string(info.param.width) + "x" +
         std::to_string(info.param.height);
}

class GeneratorReferenceTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GeneratorReferenceTest, DemMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DemOptions opt;
    opt.width = GetParam().width;
    opt.height = GetParam().height;
    opt.seed = seed;
    EXPECT_TRUE(same_bits(generate_dem(opt), reference::generate_dem(opt)));
  }
}

TEST_P(GeneratorReferenceTest, ImageMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ImageOptions opt;
    opt.width = GetParam().width;
    opt.height = GetParam().height;
    opt.seed = seed;
    EXPECT_TRUE(
        same_bits(generate_image(opt), reference::generate_image(opt)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeneratorReferenceTest,
                         ::testing::ValuesIn(kShapes), shape_name);

// Option sets on either side of the culling guard (background > 0 and
// blob_intensity > 0), with and without noise and blobs.
//
// A case carries its name as an index into kImageCaseNames, not as a
// string: gtest prints a case as its raw bytes and ctest puts them in the
// test's name, and a string's address moves with every build.
enum ImageCaseName : std::size_t {
  kNoNoise,
  kTinyBackground,
  kTinyBackgroundNoNoise,
  kZeroBackground,
  kNegativeBackground,
  kBrightBlobs,
  kBrightBlobsNoNoise,
  kDarkBlobs,
  kNegativeBlobs,
  kNoBlobs,
  kOneBlob,
  kManyBlobs,
  kManyBlobsNegativeBackground,
};

const char* const kImageCaseNames[] = {
    "NoNoise",
    "TinyBackground",
    "TinyBackgroundNoNoise",
    "ZeroBackground",
    "NegativeBackground",
    "BrightBlobs",
    "BrightBlobsNoNoise",
    "DarkBlobs",
    "NegativeBlobs",
    "NoBlobs",
    "OneBlob",
    "ManyBlobs",
    "ManyBlobsNegativeBackground",
};

struct ImageCase {
  ImageCaseName name;
  double background;
  double blob_intensity;
  double noise_stddev;
  std::uint32_t num_blobs;
};

const std::vector<ImageCase> kImageCases = {
    {kNoNoise, 100.0, 800.0, 0.0, 12},
    {kTinyBackground, 1e-6, 800.0, 25.0, 12},
    {kTinyBackgroundNoNoise, 1e-6, 800.0, 0.0, 12},
    {kZeroBackground, 0.0, 800.0, 25.0, 12},
    {kNegativeBackground, -50.0, 800.0, 25.0, 12},
    {kBrightBlobs, 100.0, 1e6, 25.0, 12},
    {kBrightBlobsNoNoise, 1e-6, 1e6, 0.0, 12},
    {kDarkBlobs, 100.0, 0.0, 25.0, 12},
    {kNegativeBlobs, 100.0, -800.0, 0.0, 12},
    {kNoBlobs, 100.0, 800.0, 25.0, 0},
    {kOneBlob, 100.0, 800.0, 0.0, 1},
    {kManyBlobs, 100.0, 800.0, 25.0, 64},
    {kManyBlobsNegativeBackground, -50.0, 800.0, 0.0, 64},
};

class ImageOptionsReferenceTest : public ::testing::TestWithParam<ImageCase> {
};

TEST_P(ImageOptionsReferenceTest, MatchesReference) {
  const ImageCase& c = GetParam();
  for (const Shape shape : {Shape{37, 21}, Shape{257, 256}, Shape{2048, 16},
                            Shape{16, 1}}) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::to_string(shape.width) + "x" +
                   std::to_string(shape.height) + " seed " +
                   std::to_string(seed));
      ImageOptions opt;
      opt.width = shape.width;
      opt.height = shape.height;
      opt.seed = seed;
      opt.background = c.background;
      opt.blob_intensity = c.blob_intensity;
      opt.noise_stddev = c.noise_stddev;
      opt.num_blobs = c.num_blobs;
      EXPECT_TRUE(
          same_bits(generate_image(opt), reference::generate_image(opt)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Options, ImageOptionsReferenceTest,
                         ::testing::ValuesIn(kImageCases),
                         [](const auto& test) {
                           return std::string(
                               kImageCaseNames[test.param.name]);
                         });

// The band is exact because the DEM's top-left corner never depends on the
// requested shape, only on the covering square: any two shapes that share
// a covering side agree wherever both are defined.
TEST(DemCropTest, ShapesSharingACoveringSideAgreeWhereTheyOverlap) {
  const std::vector<std::pair<Shape, Shape>> pairs = {
      {{2048, 64}, {2048, 2048}}, {{64, 2048}, {2048, 2048}},
      {{1, 16}, {16, 16}},        {{16, 1}, {9, 16}},
      {{1000, 999}, {1025, 3}},
  };
  for (const auto& [small, large] : pairs) {
    SCOPED_TRACE(std::to_string(small.width) + "x" +
                 std::to_string(small.height) + " in " +
                 std::to_string(large.width) + "x" +
                 std::to_string(large.height));
    DemOptions opt;
    opt.seed = 42;
    opt.width = small.width;
    opt.height = small.height;
    const Grid<float> part = generate_dem(opt);
    opt.width = large.width;
    opt.height = large.height;
    const Grid<float> whole = generate_dem(opt);
    for (std::uint32_t y = 0; y < std::min(part.height(), whole.height());
         ++y) {
      const std::uint32_t cols = std::min(part.width(), whole.width());
      ASSERT_EQ(std::memcmp(part.row(y), whole.row(y), cols * sizeof(float)),
                0)
          << "row " << y;
    }
  }
}

}  // namespace
}  // namespace das::grid
