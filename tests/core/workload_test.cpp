#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "kernels/registry.hpp"

namespace das::core {
namespace {

TEST(WorkloadTest, DefaultWidthIsOneStripOfElements) {
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.data_bytes = 64 * 1024;
  EXPECT_EQ(spec.width(), 256U);
  EXPECT_EQ(spec.height(), 64U);
}

TEST(WorkloadTest, ExplicitWidthOverrides) {
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.raster_width = 128;
  spec.data_bytes = 64 * 1024;
  EXPECT_EQ(spec.width(), 128U);
  EXPECT_EQ(spec.height(), 128U);
}

TEST(WorkloadTest, GeometryAlignment) {
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.data_bytes = 64 * 1024;
  EXPECT_TRUE(spec.geometry_aligned());  // row bytes == strip size

  spec.raster_width = 512;  // two strips per row
  EXPECT_TRUE(spec.geometry_aligned());

  spec.raster_width = 128;  // two rows per strip
  EXPECT_TRUE(spec.geometry_aligned());

  spec.raster_width = 300;  // 1200 B rows vs 1024 B strips: misaligned
  EXPECT_FALSE(spec.geometry_aligned());
}

TEST(WorkloadTest, MakeMetaCarriesRasterGeometry) {
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.data_bytes = 64 * 1024;
  const pfs::FileMeta meta = spec.make_meta("terrain");
  EXPECT_EQ(meta.name, "terrain");
  EXPECT_EQ(meta.size_bytes, 64U * 1024);
  EXPECT_EQ(meta.strip_size, 1024U);
  EXPECT_EQ(meta.raster_width, 256U);
  EXPECT_EQ(meta.raster_height, 64U);
  EXPECT_EQ(meta.num_strips(), 64U);
}

TEST(WorkloadTest, InputKindsMatchTheKernels) {
  const auto registry = kernels::standard_registry();
  WorkloadSpec spec;
  spec.strip_size = 64;
  spec.element_size = 4;
  spec.data_bytes = 64 * 64;
  spec.with_data = true;

  // Flow-accumulation input must be a valid D8 direction raster.
  spec.kernel_name = "flow-accumulation";
  const auto dirs =
      make_input(spec, *registry.create("flow-accumulation"));
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    const auto code = static_cast<std::uint32_t>(dirs[i]);
    EXPECT_TRUE(code == 0 || (code & (code - 1)) == 0);  // power of two
    EXPECT_LE(code, 128U);
  }

  // Terrain kernels get terrain; imaging kernels get images — different
  // generators, so the rasters differ.
  const auto dem = make_input(spec, *registry.create("flow-routing"));
  const auto img = make_input(spec, *registry.create("gaussian-2d"));
  EXPECT_GT(grid::max_abs_diff(dem, img), 0.0);
}

TEST(WorkloadTest, SeedControlsTheData) {
  const auto registry = kernels::standard_registry();
  WorkloadSpec spec;
  spec.strip_size = 64;
  spec.element_size = 4;
  spec.data_bytes = 64 * 64;
  spec.with_data = true;
  const auto kernel = registry.create("flow-routing");
  const auto a = make_input(spec, *kernel);
  const auto b = make_input(spec, *kernel);
  spec.seed = 777;
  const auto c = make_input(spec, *kernel);
  EXPECT_EQ(a, b);
  EXPECT_GT(grid::max_abs_diff(a, c), 0.0);
}

TEST(WorkloadTest, MisalignedRowStripGeometryThrowsWithNumbers) {
  const auto registry = kernels::standard_registry();
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.raster_width = 300;  // 1200 B rows: whole rows, but not vs 1024 strips
  spec.data_bytes = 300 * 4 * 10;
  try {
    (void)make_input(spec, *registry.create("gaussian-2d"));
    FAIL() << "misaligned row/strip geometry was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row length 1200"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("strip_size 1024"),
              std::string::npos)
        << e.what();
  }
}

TEST(WorkloadTest, PartialTrailingRowThrowsWithRemainder) {
  const auto registry = kernels::standard_registry();
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.data_bytes = 64 * 1024 + 100;  // 100 B past the last whole row
  try {
    (void)make_input(spec, *registry.create("gaussian-2d"));
    FAIL() << "partial trailing row was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("remainder 100"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadTest, RequireAlignedAcceptsAlignedGeometry) {
  WorkloadSpec spec;
  spec.strip_size = 1024;
  spec.element_size = 4;
  spec.data_bytes = 64 * 1024;
  EXPECT_NO_THROW(spec.require_aligned());
}

}  // namespace
}  // namespace das::core
