// Property suite for the vectorized kernel engine: every ISA the CPU can
// run must reproduce the scalar sweep BIT FOR BIT on every kernel — this is
// what keeps scheme CSVs and traces byte-identical whatever hardware the
// simulator runs on.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "grid/image.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "kernels/statistics.hpp"

namespace das::kernels {
namespace {

/// Pins the ISA for one test body, restoring on exit so test order never
/// leaks state.
class EngineGuard {
 public:
  explicit EngineGuard(simd::Isa isa) : saved_override_(simd::isa_override()) {
    simd::set_isa_override(isa);
  }
  ~EngineGuard() { simd::set_isa_override(saved_override_); }
  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

 private:
  std::optional<simd::Isa> saved_override_;
};

std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() >= simd::Isa::kSse2) {
    isas.push_back(simd::Isa::kSse2);
  }
  if (simd::detected_isa() >= simd::Isa::kAvx2) {
    isas.push_back(simd::Isa::kAvx2);
  }
  return isas;
}

grid::Grid<float> image(std::uint32_t width, std::uint32_t height) {
  grid::ImageOptions opt;
  opt.width = width;
  opt.height = height;
  return grid::generate_image(opt);
}

/// Bit-level equality (operator== on Grid is value equality, which would
/// also pass for -0.0 vs +0.0; the engine promises stronger).
void expect_bits_equal(const grid::Grid<float>& a, const grid::Grid<float>& b,
                       const std::string& label) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (std::uint32_t y = 0; y < a.height(); ++y) {
    ASSERT_EQ(0, std::memcmp(a.row(y), b.row(y),
                             sizeof(float) * a.width()))
        << label << ": row " << y << " differs";
  }
}

// Widths crossing every vector-boundary case: degenerate (1, 2), below one
// SSE lane-group, straddling 4- and 8-lane boundaries, and wide enough for
// several full vectors plus a tail.
constexpr std::uint32_t kWidths[] = {1, 2, 3, 5, 8, 9, 15, 16, 17, 31, 33, 67};

using SimdCase = std::tuple<std::string, std::uint32_t>;  // kernel, height

class SimdBitIdenticalTest : public ::testing::TestWithParam<SimdCase> {};

// The name is kept from when sweeps also varied a column-block width, so the
// test ids stay stable.
TEST_P(SimdBitIdenticalTest, AllIsasAndBlockingsMatchScalar) {
  const auto& [name, height] = GetParam();
  const KernelRegistry registry = standard_registry();
  const KernelPtr kernel = registry.create(name);

  for (const std::uint32_t width : kWidths) {
    const grid::Grid<float> input = image(width, height);

    grid::Grid<float> reference(width, height);
    {
      EngineGuard guard(simd::Isa::kScalar);
      reference = kernel->run_reference(input);
    }

    for (const simd::Isa isa : runnable_isas()) {
      EngineGuard guard(isa);
      const grid::Grid<float> out = kernel->run_reference(input);
      expect_bits_equal(out, reference,
                        name + " w" + std::to_string(width) + " isa=" +
                            simd::to_string(isa));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SimdBitIdenticalTest,
    ::testing::Combine(::testing::Values("laplacian-4", "gaussian-2d",
                                         "surface-slope", "median-3x3",
                                         "flow-routing"),
                       ::testing::Values(3U, 16U, 33U)),
    [](const auto& test) {
      std::string name = std::get<0>(test.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_h" + std::to_string(std::get<1>(test.param));
    });

// Tile splits: dispatched sweeps must stitch bit-identically too (the
// executors run kernels per-slab, not whole-grid).
TEST(SimdTilingTest, TiledSweepsMatchScalarWholeGrid) {
  const KernelRegistry registry = standard_registry();
  const std::uint32_t width = 37;
  const std::uint32_t height = 41;
  const grid::Grid<float> input = image(width, height);

  for (const char* name : {"laplacian-4", "gaussian-2d", "surface-slope",
                           "median-3x3", "flow-routing"}) {
    const KernelPtr kernel = registry.create(name);
    grid::Grid<float> reference(width, height);
    {
      EngineGuard guard(simd::Isa::kScalar);
      reference = kernel->run_reference(input);
    }
    const std::uint32_t halo = kernel->halo_rows();
    for (const simd::Isa isa : runnable_isas()) {
      EngineGuard guard(isa);
      for (const std::uint32_t slabs : {2U, 5U}) {
        grid::Grid<float> stitched(width, height);
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
        expect_bits_equal(stitched, reference,
                          std::string(name) + " isa=" + simd::to_string(isa) +
                              " slabs=" + std::to_string(slabs));
      }
    }
  }
}

// The statistics reduction folds through a different signature; compare the
// whole summary field by field (sum/sum_squares are exact-sequence doubles).
TEST(SimdStatisticsTest, SummaryBitIdenticalAcrossIsas) {
  for (const std::uint32_t width : kWidths) {
    const grid::Grid<float> input = image(width, 19);
    RasterSummary reference;
    {
      EngineGuard guard(simd::Isa::kScalar);
      reference = RasterSummary::of(input);
    }
    for (const simd::Isa isa : runnable_isas()) {
      EngineGuard guard(isa);
      const RasterSummary s = RasterSummary::of(input);
      EXPECT_EQ(s.count, reference.count) << "w" << width;
      EXPECT_EQ(0, std::memcmp(&s.min, &reference.min, sizeof(float)));
      EXPECT_EQ(0, std::memcmp(&s.max, &reference.max, sizeof(float)));
      EXPECT_EQ(0, std::memcmp(&s.sum, &reference.sum, sizeof(double)));
      EXPECT_EQ(0, std::memcmp(&s.sum_squares, &reference.sum_squares,
                               sizeof(double)));
    }
  }
}

TEST(SimdDispatchTest, IsaNamesRoundTrip) {
  EXPECT_EQ(simd::isa_from_string("scalar"), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_from_string("sse2"), simd::Isa::kSse2);
  EXPECT_EQ(simd::isa_from_string("avx2"), simd::Isa::kAvx2);
  EXPECT_EQ(simd::isa_from_string("avx512"), std::nullopt);
  EXPECT_EQ(simd::isa_from_string(""), std::nullopt);
  for (const simd::Isa isa : runnable_isas()) {
    EXPECT_EQ(simd::isa_from_string(simd::to_string(isa)), isa);
  }
}

TEST(SimdDispatchTest, OverrideClampsAndRestores) {
  const std::optional<simd::Isa> saved = simd::isa_override();
  simd::set_isa_override(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_override(), simd::Isa::kScalar);
  simd::set_isa_override(std::nullopt);
  EXPECT_EQ(simd::active_isa(), simd::detected_isa());
  EXPECT_EQ(simd::isa_override(), std::nullopt);
  simd::set_isa_override(saved);
}

TEST(SimdDispatchTest, UnsupportedIsaThrows) {
  if (simd::detected_isa() == simd::Isa::kAvx2) {
    GTEST_SKIP() << "CPU supports every ISA the engine dispatches";
  }
  EXPECT_THROW(simd::set_isa_override(simd::Isa::kAvx2),
               std::invalid_argument);
  EXPECT_EQ(simd::isa_override(), std::nullopt) << "failed set must not stick";
}

TEST(SimdDispatchTest, EveryIsaHasRowFunctions) {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    const simd::RowKernels& rows = simd::row_kernels(isa);
    EXPECT_NE(rows.laplacian, nullptr);
    EXPECT_NE(rows.gaussian, nullptr);
    EXPECT_NE(rows.median, nullptr);
    EXPECT_NE(rows.flow_routing, nullptr);
    EXPECT_NE(rows.slope, nullptr);
    EXPECT_NE(rows.statistics, nullptr);
  }
}

// Flow routing's argmax is tie-heavy on flat terrain; the vector path must
// reproduce the scalar first-wins rule exactly, not just on smooth images.
TEST(SimdFlowRoutingTest, TieBreaksMatchScalarOnPlateausAndSteps) {
  const KernelRegistry registry = standard_registry();
  const KernelPtr kernel = registry.create("flow-routing");
  const std::uint32_t width = 35;
  const std::uint32_t height = 23;

  // Plateau (all ties -> every cell a pit), a single sink, and a two-level
  // step where an entire column ties at the lower level.
  std::vector<grid::Grid<float>> inputs;
  inputs.emplace_back(width, height, 5.0F);
  inputs.emplace_back(width, height, 5.0F);
  inputs.back().at(17, 11) = 1.0F;
  inputs.emplace_back(width, height, 5.0F);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = width / 2; x < width; ++x) {
      inputs.back().at(x, y) = 2.0F;
    }
  }

  for (const grid::Grid<float>& input : inputs) {
    grid::Grid<float> reference(width, height);
    {
      EngineGuard guard(simd::Isa::kScalar);
      reference = kernel->run_reference(input);
    }
    EXPECT_EQ(reference.at(17, 11), 0.0F) << "a pit routes nowhere";
    for (const simd::Isa isa : runnable_isas()) {
      EngineGuard guard(isa);
      const grid::Grid<float> out = kernel->run_reference(input);
      expect_bits_equal(out, reference,
                        std::string("flow-routing ties isa=") +
                            simd::to_string(isa));
    }
  }
}

}  // namespace
}  // namespace das::kernels
