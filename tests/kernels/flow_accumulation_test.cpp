#include "kernels/flow_accumulation.hpp"

#include <gtest/gtest.h>

#include "grid/dem.hpp"
#include "kernels/flow_routing.hpp"

namespace das::kernels {
namespace {

grid::Grid<float> route(const grid::Grid<float>& dem) {
  return FlowRoutingKernel{}.run_reference(dem);
}

TEST(FlowAccumulationTest, RampHasClosedFormAnswer) {
  // On the SE-draining ramp, interior flow is a pure diagonal chain:
  // acc(x, y) counts the diagonal ancestors, min(x, y).
  const auto dirs = route(grid::generate_ramp(8, 8));
  const auto acc = FlowAccumulationKernel{}.run_reference(dirs);
  for (std::uint32_t y = 1; y + 1 < 8; ++y) {
    for (std::uint32_t x = 1; x + 1 < 8; ++x) {
      EXPECT_EQ(acc.at(x, y), static_cast<float>(std::min(x, y)))
          << "at (" << x << "," << y << ")";
    }
  }
  EXPECT_EQ(acc.at(0, 0), 0.0F);  // ridge cell: nothing drains into it
}

TEST(FlowAccumulationTest, MassConservation) {
  // Every cell contributes exactly once to each sink's basin:
  // sum over sinks of (acc + 1) == number of cells.
  const auto dem = grid::generate_dem(grid::DemOptions{});
  const auto dirs = route(dem);
  const auto acc = FlowAccumulationKernel{}.run_reference(dirs);
  double basin_total = 0.0;
  for (std::uint32_t y = 0; y < dirs.height(); ++y) {
    for (std::uint32_t x = 0; x < dirs.width(); ++x) {
      const auto code = static_cast<std::uint32_t>(dirs.at(x, y));
      bool is_sink = code == 0;
      if (!is_sink) {
        const D8Step s = d8_step(static_cast<D8>(code));
        is_sink = !dirs.in_bounds(static_cast<std::int64_t>(x) + s.dx,
                                  static_cast<std::int64_t>(y) + s.dy);
      }
      if (is_sink) basin_total += acc.at(x, y) + 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(basin_total, static_cast<double>(dirs.size()));
}

TEST(FlowAccumulationTest, AccumulationNeverDecreasesDownstream) {
  const auto dirs = route(grid::generate_dem(grid::DemOptions{}));
  const auto acc = FlowAccumulationKernel{}.run_reference(dirs);
  for (std::uint32_t y = 0; y < dirs.height(); ++y) {
    for (std::uint32_t x = 0; x < dirs.width(); ++x) {
      const auto code = static_cast<std::uint32_t>(dirs.at(x, y));
      if (code == 0) continue;
      const D8Step s = d8_step(static_cast<D8>(code));
      const std::int64_t nx = static_cast<std::int64_t>(x) + s.dx;
      const std::int64_t ny = static_cast<std::int64_t>(y) + s.dy;
      if (!dirs.in_bounds(nx, ny)) continue;
      EXPECT_GE(acc.at(static_cast<std::uint32_t>(nx),
                       static_cast<std::uint32_t>(ny)),
                acc.at(x, y) + 1.0F);
    }
  }
}

TEST(FlowAccumulationTest, AllPitsMeansZeroEverywhere) {
  const grid::Grid<float> dirs(6, 6, 0.0F);  // every cell a pit
  const auto acc = FlowAccumulationKernel{}.run_reference(dirs);
  for (std::size_t i = 0; i < acc.size(); ++i) EXPECT_EQ(acc[i], 0.0F);
}

TEST(FlowAccumulationTest, RunTileIsTheLocalPass) {
  // A single slab covering the whole grid must equal the reference.
  const auto dirs = route(grid::generate_ramp(8, 8));
  const FlowAccumulationKernel kernel;
  const auto ref = kernel.run_reference(dirs);
  grid::Grid<float> out(8, 8);
  kernel.run_tile(dirs, 0, 8, 0, 8, out);
  EXPECT_EQ(out, ref);
}

TEST(FlowAccumulationTest, NotTileExact) {
  EXPECT_FALSE(FlowAccumulationKernel{}.tile_exact());
}

// The distributed algorithm must be exact for any slab partition.
class DistributedAccumulationTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(DistributedAccumulationTest, MatchesReferenceOnFractalTerrain) {
  grid::DemOptions opt;
  opt.width = 48;
  opt.height = 48;
  const auto dirs = route(grid::generate_dem(opt));
  const auto ref = FlowAccumulationKernel{}.run_reference(dirs);
  const auto result = distributed_flow_accumulation(dirs, GetParam());
  EXPECT_EQ(result.accumulation, ref);
  EXPECT_GE(result.rounds, 1U);
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, DistributedAccumulationTest,
    ::testing::Values(std::vector<std::uint32_t>{0},
                      std::vector<std::uint32_t>{0, 24},
                      std::vector<std::uint32_t>{0, 16, 32},
                      std::vector<std::uint32_t>{0, 12, 24, 36},
                      std::vector<std::uint32_t>{0, 1, 2, 3, 4, 40},
                      std::vector<std::uint32_t>{0,  6,  12, 18, 24,
                                                 30, 36, 42}),
    [](const auto& test) {
      return "slabs" + std::to_string(test.param.size());
    });

TEST(DistributedAccumulationTest, SingleSlabConvergesInOneRound) {
  const auto dirs = route(grid::generate_ramp(8, 8));
  const auto result = distributed_flow_accumulation(dirs, {0});
  EXPECT_EQ(result.rounds, 1U);
}

TEST(DistributedAccumulationTest, CrossSlabFlowNeedsMoreRounds) {
  // Diagonal chains cross every slab boundary, so a 2-slab split cannot
  // converge in a single round.
  const auto dirs = route(grid::generate_ramp(16, 16));
  const auto result = distributed_flow_accumulation(dirs, {0, 8});
  EXPECT_GT(result.rounds, 1U);
  const auto ref = FlowAccumulationKernel{}.run_reference(dirs);
  EXPECT_EQ(result.accumulation, ref);
}

TEST(DistributedAccumulationDeathTest, BadPartitionAborts) {
  const grid::Grid<float> dirs(8, 8, 0.0F);
  EXPECT_DEATH(distributed_flow_accumulation(dirs, {}), "DAS_REQUIRE");
  EXPECT_DEATH(distributed_flow_accumulation(dirs, {1}), "DAS_REQUIRE");
  EXPECT_DEATH(distributed_flow_accumulation(dirs, {0, 8}), "DAS_REQUIRE");
  EXPECT_DEATH(distributed_flow_accumulation(dirs, {0, 4, 4}),
               "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::kernels
