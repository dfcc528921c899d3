// Vectorized kernel engine: runtime ISA dispatch + the stencil tile sweep.
//
// The five stencil kernels (laplacian, gaussian, slope, median, statistics)
// formulate their hot loop as a *row-segment function*: compute output cells
// x in [x0, x1) of one interior row, given raw pointers to the three input
// rows. Per ISA (AVX2 -> SSE2 -> scalar) there is one table of such
// functions; the widest ISA the CPU supports is selected once at startup via
// CPUID and can be narrowed with set_isa_override (the das_sim --kernel-isa
// flag). Every vector lane evaluates the *same arithmetic expression in the
// same operand order* as the scalar path for its own cell — lanes are
// independent output cells, never partial sums — so SIMD, SSE2 and scalar
// outputs are bit-identical, and with them every scheme CSV and trace.
//
// sweep_tile drives a tile: boundary rows and the two edge columns go
// through the kernel's clamped per-cell path; every interior row is swept
// whole by the dispatched row function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>

#include "grid/grid.hpp"
#include "kernels/kernel.hpp"

namespace das::kernels::simd {

/// Instruction sets the engine dispatches between, narrowest first.
enum class Isa : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] const char* to_string(Isa isa);
/// Parse "scalar" / "sse2" / "avx2"; nullopt for anything else.
[[nodiscard]] std::optional<Isa> isa_from_string(std::string_view name);

/// Widest ISA the CPU supports (CPUID, probed once).
[[nodiscard]] Isa detected_isa();

/// ISA the kernels actually run: min(detected, override).
[[nodiscard]] Isa active_isa();

/// Pin the engine to at most `isa` (nullopt restores auto-detection).
/// Requesting an ISA the CPU lacks throws std::invalid_argument.
void set_isa_override(std::optional<Isa> isa);
[[nodiscard]] std::optional<Isa> isa_override();

// ---------------------------------------------------------------------------
// Row-segment functions. `up` / `mid` / `down` point at logical rows
// y-1 / y / y+1 (never clamped: callers only invoke these on interior rows),
// `dst` at the output row. [x0, x1) is an interior column range (x0 >= 1,
// x1 <= width - 1).

using Stencil3RowFn = void (*)(const float* up, const float* mid,
                               const float* down, float* dst,
                               std::uint32_t x0, std::uint32_t x1);

/// Slope needs the Horn denominator 8 * cell_size (double, like the scalar
/// path's internal arithmetic).
using SlopeRowFn = void (*)(const float* up, const float* mid,
                            const float* down, float* dst, std::uint32_t x0,
                            std::uint32_t x1, double denom);

/// Statistics row scan: folds row[0, n) into the running reduction state.
/// min/max fold vectorizes; sum / sum_squares keep the scalar path's exact
/// left-to-right double accumulation order (reordering would change bits).
using StatsRowFn = void (*)(const float* row, std::uint32_t n,
                            std::uint64_t& count, float& min, float& max,
                            double& sum, double& sum_squares);

/// One ISA's row functions.
struct RowKernels {
  Stencil3RowFn laplacian;
  Stencil3RowFn gaussian;
  Stencil3RowFn median;
  /// D8 flow routing: 8-way strict-less argmax with first-wins tie-breaking
  /// (E, SE, S, SW, W, NW, N, NE scan order preserved lane-wise).
  Stencil3RowFn flow_routing;
  SlopeRowFn slope;
  StatsRowFn statistics;
};

/// The row functions of `isa`. Every ISA has a full table; on a target
/// without the instruction set its table is the scalar one.
[[nodiscard]] const RowKernels& row_kernels(Isa isa);

// ---------------------------------------------------------------------------
// Tile driver.

/// Shared run_tile driver for the 3x3/5-point stencils.
///
/// `edge_cell(x, y)` is the kernel's clamped per-cell path (identical to the
/// seed implementation); `row_segment(up, mid, down, dst, x0, x1)` its
/// dispatched interior row function. Boundary rows, narrow grids
/// (width <= 2) and the first/last column take edge_cell; every interior
/// row is covered exactly once by one row_segment call over [1, width - 1).
template <typename EdgeFn, typename RowFn>
void sweep_tile(const TileView& view, std::uint32_t grid_height,
                std::uint32_t out_row_begin, std::uint32_t out_row_end,
                grid::Grid<float>& out, EdgeFn&& edge_cell,
                RowFn&& row_segment) {
  const std::uint32_t width = view.width();
  const std::uint32_t interior_lo = std::max(out_row_begin, 1U);
  const std::uint32_t interior_hi = std::min(out_row_end, grid_height - 1);

  const auto edge_row = [&](std::uint32_t y) {
    for (std::uint32_t x = 0; x < width; ++x) edge_cell(x, y);
  };
  if (width <= 2 || interior_lo >= interior_hi) {
    for (std::uint32_t y = out_row_begin; y < out_row_end; ++y) edge_row(y);
    return;
  }
  for (std::uint32_t y = out_row_begin; y < interior_lo; ++y) edge_row(y);
  for (std::uint32_t y = interior_hi; y < out_row_end; ++y) edge_row(y);

  for (std::uint32_t y = interior_lo; y < interior_hi; ++y) {
    edge_cell(0, y);
    edge_cell(width - 1, y);
  }
  for (std::uint32_t y = interior_lo; y < interior_hi; ++y) {
    row_segment(view.row(y - 1), view.row(y), view.row(y + 1),
                out.row(y - out_row_begin), 1, width - 1);
  }
}

}  // namespace das::kernels::simd
