// Property suite for the tile-execution contract: for every tile-exact
// kernel, running row slabs with a halo and stitching the outputs must
// reproduce the sequential reference bit for bit — this is the correctness
// foundation of the whole active-storage execution model.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "grid/dem.hpp"
#include "grid/image.hpp"
#include "kernels/flow_routing.hpp"
#include "kernels/gaussian.hpp"
#include "kernels/registry.hpp"

namespace das::kernels {
namespace {

grid::Grid<float> input_for(const ProcessingKernel& kernel,
                            std::uint32_t width, std::uint32_t height) {
  if (kernel.name() == "flow-routing") {
    grid::DemOptions opt;
    opt.width = width;
    opt.height = height;
    return grid::generate_dem(opt);
  }
  if (kernel.name() == "flow-accumulation") {
    grid::DemOptions opt;
    opt.width = width;
    opt.height = height;
    return FlowRoutingKernel{}.run_reference(grid::generate_dem(opt));
  }
  grid::ImageOptions opt;
  opt.width = width;
  opt.height = height;
  return grid::generate_image(opt);
}

using TilingCase = std::tuple<std::string, std::uint32_t, std::uint32_t>;
// (kernel, number of slabs, grid height)

class TilingTest : public ::testing::TestWithParam<TilingCase> {};

TEST_P(TilingTest, StitchedSlabsMatchReference) {
  const auto& [name, slabs, height] = GetParam();
  const KernelRegistry registry = standard_registry();
  const KernelPtr kernel = registry.create(name);
  ASSERT_TRUE(kernel->tile_exact());

  const std::uint32_t width = 24;
  const grid::Grid<float> input = input_for(*kernel, width, height);
  const grid::Grid<float> reference = kernel->run_reference(input);

  grid::Grid<float> stitched(width, height);
  const std::uint32_t halo = kernel->halo_rows();
  for (std::uint32_t i = 0; i < slabs; ++i) {
    const std::uint32_t row0 = i * height / slabs;
    const std::uint32_t row1 = (i + 1) * height / slabs;
    if (row0 == row1) continue;
    const std::uint32_t buf0 = row0 >= halo ? row0 - halo : 0;
    const std::uint32_t buf1 = std::min(height, row1 + halo);
    const grid::Grid<float> buffer = input.slice_rows(buf0, buf1);
    grid::Grid<float> out(width, row1 - row0);
    kernel->run_tile(buffer, buf0, height, row0, row1, out);
    stitched.paste_rows(row0, out);
  }
  EXPECT_EQ(stitched, reference);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPartitions, TilingTest,
    ::testing::Combine(
        ::testing::Values("flow-routing", "gaussian-2d", "median-3x3",
                          "surface-slope", "laplacian-4"),
        ::testing::Values(1U, 2U, 3U, 5U, 8U, 16U),
        ::testing::Values(16U, 33U, 64U)),
    [](const auto& test) {
      std::string name = std::get<0>(test.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(test.param)) + "_h" +
             std::to_string(std::get<2>(test.param));
    });

TEST(TilingContractTest, OversizedBufferIsAccepted) {
  const GaussianKernel kernel;
  const grid::Grid<float> input = input_for(kernel, 8, 16);
  grid::Grid<float> out(8, 4);
  // Buffer covers the whole grid; output rows [4, 8).
  kernel.run_tile(input, 0, 16, 4, 8, out);
  const auto ref = kernel.run_reference(input);
  EXPECT_EQ(out, ref.slice_rows(4, 8));
}

TEST(TilingContractDeathTest, MissingHaloAborts) {
  const GaussianKernel kernel;
  const grid::Grid<float> input = input_for(kernel, 8, 16);
  const grid::Grid<float> buffer = input.slice_rows(4, 8);
  grid::Grid<float> out(8, 4);
  // Rows [4, 8) need rows 3 and 8 as halo; the buffer lacks both.
  EXPECT_DEATH(kernel.run_tile(buffer, 4, 16, 4, 8, out), "DAS_REQUIRE");
}

TEST(TilingContractDeathTest, WrongOutputShapeAborts) {
  const GaussianKernel kernel;
  const grid::Grid<float> input = input_for(kernel, 8, 16);
  grid::Grid<float> out(8, 3);  // should be 4 rows
  EXPECT_DEATH(kernel.run_tile(input, 0, 16, 4, 8, out), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::kernels
