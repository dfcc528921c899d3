#include "grid/grid.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace das::grid {
namespace {

TEST(GridTest, ConstructionAndFillValue) {
  const Grid<float> g(4, 3, 2.5F);
  EXPECT_EQ(g.width(), 4U);
  EXPECT_EQ(g.height(), 3U);
  EXPECT_EQ(g.size(), 12U);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], 2.5F);
}

TEST(GridTest, RowMajorAddressing) {
  Grid<int> g(3, 2);
  g.at(2, 1) = 42;
  EXPECT_EQ(g[1 * 3 + 2], 42);
  EXPECT_EQ(g.row(1)[2], 42);
}

TEST(GridTest, InBounds) {
  const Grid<int> g(3, 2);
  EXPECT_TRUE(g.in_bounds(0, 0));
  EXPECT_TRUE(g.in_bounds(2, 1));
  EXPECT_FALSE(g.in_bounds(3, 0));
  EXPECT_FALSE(g.in_bounds(0, 2));
  EXPECT_FALSE(g.in_bounds(-1, 0));
}

TEST(GridTest, FillOverwritesEverything) {
  Grid<int> g(2, 2, 1);
  g.fill(9);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], 9);
}

TEST(GridTest, SliceRowsCopiesTheRange) {
  Grid<int> g(2, 4);
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 0; x < 2; ++x) g.at(x, y) = static_cast<int>(y);
  }
  const Grid<int> s = g.slice_rows(1, 3);
  EXPECT_EQ(s.height(), 2U);
  EXPECT_EQ(s.at(0, 0), 1);
  EXPECT_EQ(s.at(1, 1), 2);
}

TEST(GridTest, PasteRowsWritesBack) {
  Grid<int> g(2, 4, 0);
  Grid<int> patch(2, 2, 7);
  g.paste_rows(1, patch);
  EXPECT_EQ(g.at(0, 0), 0);
  EXPECT_EQ(g.at(0, 1), 7);
  EXPECT_EQ(g.at(1, 2), 7);
  EXPECT_EQ(g.at(0, 3), 0);
}

TEST(GridTest, SlicePasteRoundTrip) {
  Grid<int> g(3, 5);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<int>(i);
  Grid<int> copy = g;
  copy.paste_rows(2, g.slice_rows(2, 4));
  EXPECT_EQ(copy, g);
}

TEST(GridTest, EqualityComparesShapeAndContent) {
  Grid<int> a(2, 2, 1), b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.at(1, 1) = 2;
  EXPECT_FALSE(a == b);
  const Grid<int> c(4, 1, 1);
  EXPECT_FALSE(a == c);
}

TEST(GridTest, MaxAbsDiff) {
  Grid<float> a(2, 2, 0.0F), b(2, 2, 0.0F);
  b.at(0, 1) = -3.5F;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
}

// Widths around the SIMD lane boundaries: degenerate (1, 2), one short of /
// exactly / one past a 16-float (64-byte) lane group, and odd in-between
// sizes. Every allocation must start on a kGridAlignment boundary.
constexpr std::uint32_t kAlignmentWidths[] = {1,  2,  3,  7,  8,
                                              15, 16, 17, 31, 33};

TEST(GridAlignmentTest, StorageIs64ByteAligned) {
  for (const std::uint32_t width : kAlignmentWidths) {
    Grid<float> g(width, 3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.data()) % kGridAlignment, 0U)
        << "width " << width;
  }
}

TEST(GridAlignmentDeathTest, ZeroDimensionAborts) {
  EXPECT_DEATH(Grid<float>(0, 3), "DAS_REQUIRE");
  EXPECT_DEATH(Grid<float>(3, 0), "DAS_REQUIRE");
}

TEST(GridDeathTest, BadSliceRangeAborts) {
  const Grid<int> g(2, 2);
  EXPECT_DEATH(g.slice_rows(1, 1), "DAS_REQUIRE");
  EXPECT_DEATH(g.slice_rows(0, 3), "DAS_REQUIRE");
}

TEST(GridDeathTest, PasteOutOfRangeAborts) {
  Grid<int> g(2, 2);
  const Grid<int> patch(2, 2);
  EXPECT_DEATH(g.paste_rows(1, patch), "DAS_REQUIRE");
}

TEST(GridDeathTest, ShapeMismatchDiffAborts) {
  const Grid<float> a(2, 2), b(3, 2);
  EXPECT_DEATH(max_abs_diff(a, b), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::grid
