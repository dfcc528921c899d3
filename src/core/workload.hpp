// Workload specification: what data a run processes and with which kernel.
//
// The paper's rasters have rows whose byte length equals the strip size by
// default — the worst case for round-robin striping, because every cell's
// vertical neighbours then live in adjacent strips on adjacent servers.
// Timing runs use paper-scale sizes (24-60 GB) with length-only strips;
// correctness runs use small rasters with real bytes.
#pragma once

#include <cstdint>
#include <string>

#include "grid/grid.hpp"
#include "kernels/kernel.hpp"
#include "pfs/file.hpp"

namespace das::core {

struct WorkloadSpec {
  std::string kernel_name = "flow-routing";
  std::uint64_t data_bytes = 24ULL << 30;
  std::uint64_t strip_size = 1ULL << 20;
  std::uint32_t element_size = 4;
  /// Raster width in elements; 0 derives strip_size / element_size (one row
  /// per strip, the paper's geometry).
  std::uint32_t raster_width = 0;
  /// Generate and carry real bytes (correctness mode; small sizes only).
  bool with_data = false;
  std::uint64_t seed = 42;

  [[nodiscard]] std::uint32_t width() const {
    return raster_width != 0
               ? raster_width
               : static_cast<std::uint32_t>(strip_size / element_size);
  }

  [[nodiscard]] std::uint32_t height() const {
    const std::uint64_t row_bytes =
        static_cast<std::uint64_t>(width()) * element_size;
    return static_cast<std::uint32_t>(data_bytes / row_bytes);
  }

  /// True when data_bytes is a whole number of rows and rows align with
  /// strips (required for correctness mode).
  [[nodiscard]] bool geometry_aligned() const;

  /// Throw std::invalid_argument with the offending numbers when the
  /// geometry is misaligned. Correctness-mode entry points call this so a
  /// bad size fails loudly instead of height() silently dropping the
  /// trailing partial row. (Timing-only runs never call it: paper-scale
  /// sweeps legitimately truncate.)
  void require_aligned() const;

  [[nodiscard]] pfs::FileMeta make_meta(std::string name) const;
};

/// Generate the input raster for `kernel` under `spec`: a synthetic DEM for
/// flow-routing, the routed direction raster for flow-accumulation, and a
/// synthetic image for the filters.
[[nodiscard]] grid::Grid<float> make_input(
    const WorkloadSpec& spec, const kernels::ProcessingKernel& kernel);

}  // namespace das::core
