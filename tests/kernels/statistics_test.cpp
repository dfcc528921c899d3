#include "kernels/statistics.hpp"

#include <gtest/gtest.h>

#include "grid/dem.hpp"
#include "grid/image.hpp"

namespace das::kernels {
namespace {

grid::Grid<float> counting_grid(std::uint32_t w, std::uint32_t h) {
  grid::Grid<float> g(w, h);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(i);
  }
  return g;
}

TEST(RasterSummaryTest, KnownGrid) {
  const auto g = counting_grid(4, 2);  // values 0..7
  const RasterSummary s = RasterSummary::of(g);
  EXPECT_EQ(s.count, 8U);
  EXPECT_FLOAT_EQ(s.min, 0.0F);
  EXPECT_FLOAT_EQ(s.max, 7.0F);
  EXPECT_DOUBLE_EQ(s.sum, 28.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), (140.0 / 8.0) - 3.5 * 3.5);
}

TEST(RasterSummaryTest, RowPartitionsMergeExactly) {
  // Integer-valued cells keep the double sums exact, so any row partition
  // must merge to exactly the whole-grid summary.
  const auto g = counting_grid(16, 32);
  const RasterSummary whole = RasterSummary::of(g);
  for (const std::uint32_t cut : {1U, 7U, 16U, 31U}) {
    RasterSummary merged = RasterSummary::of_rows(g, 0, cut);
    merged.merge(RasterSummary::of_rows(g, cut, 32));
    EXPECT_EQ(merged, whole) << "cut at row " << cut;
  }
}

TEST(RasterSummaryTest, MergeIsCommutative) {
  const auto g = counting_grid(8, 8);
  RasterSummary ab = RasterSummary::of_rows(g, 0, 4);
  ab.merge(RasterSummary::of_rows(g, 4, 8));
  RasterSummary ba = RasterSummary::of_rows(g, 4, 8);
  ba.merge(RasterSummary::of_rows(g, 0, 4));
  EXPECT_EQ(ab, ba);
}

TEST(RasterSummaryTest, EmptyRangeIsNeutral) {
  const auto g = counting_grid(4, 4);
  RasterSummary s = RasterSummary::of_rows(g, 2, 2);
  EXPECT_EQ(s.count, 0U);
  s.merge(RasterSummary::of(g));
  EXPECT_EQ(s, RasterSummary::of(g));
}

TEST(RasterSummaryTest, ConstantFieldHasZeroVariance) {
  const grid::Grid<float> g(10, 10, 4.5F);
  const RasterSummary s = RasterSummary::of(g);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatisticsKernelTest, ReferenceOutputEncodesTheSummary) {
  const auto g = counting_grid(4, 2);
  const auto out = StatisticsKernel{}.run_reference(g);
  EXPECT_EQ(out.width(), 5U);
  EXPECT_EQ(out.height(), 1U);
  EXPECT_FLOAT_EQ(out.at(0, 0), 8.0F);   // count
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0F);   // min
  EXPECT_FLOAT_EQ(out.at(2, 0), 7.0F);   // max
  EXPECT_FLOAT_EQ(out.at(3, 0), 3.5F);   // mean
}

TEST(StatisticsKernelTest, ReductionMetadata) {
  const StatisticsKernel kernel;
  EXPECT_TRUE(kernel.is_reduction());
  EXPECT_FALSE(kernel.tile_exact());
  EXPECT_TRUE(kernel.features().dependence.empty());
  EXPECT_EQ(kernel.halo_rows(), 0U);
  EXPECT_EQ(kernel.output_bytes(24ULL << 30), sizeof(RasterSummary));
}

TEST(StatisticsKernelDeathTest, RunTileIsForbidden) {
  const StatisticsKernel kernel;
  const grid::Grid<float> g(4, 4);
  grid::Grid<float> out(4, 4);
  EXPECT_DEATH(kernel.run_tile(g, 0, 4, 0, 4, out), "DAS_REQUIRE");
}

TEST(RasterSummaryDeathTest, StatsOfNothingAbort) {
  const RasterSummary s;
  EXPECT_DEATH((void)s.mean(), "DAS_REQUIRE");
  EXPECT_DEATH((void)s.variance(), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::kernels
