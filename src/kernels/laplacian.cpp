#include "kernels/laplacian.hpp"

#include <algorithm>

#include "kernels/simd.hpp"

namespace das::kernels {

std::string LaplacianKernel::description() const {
  return "Edge detection / curvature (imaging and GIS): 5-point discrete "
         "Laplacian over the 4-neighbourhood";
}

KernelFeatures LaplacianKernel::features() const {
  return four_neighbor_pattern(name());
}

grid::Grid<float> LaplacianKernel::run_reference(
    const grid::Grid<float>& input) const {
  grid::Grid<float> out(input.width(), input.height());
  run_tile(input, 0, input.height(), 0, input.height(), out);
  return out;
}

void LaplacianKernel::run_tile(const grid::Grid<float>& buffer,
                               std::uint32_t buffer_row0,
                               std::uint32_t grid_height,
                               std::uint32_t out_row_begin,
                               std::uint32_t out_row_end,
                               grid::Grid<float>& out) const {
  check_tile_args(buffer, buffer_row0, grid_height, out_row_begin,
                  out_row_end, out);
  const TileView view(buffer, buffer_row0, grid_height);

  const auto edge_cell = [&](std::uint32_t x, std::uint32_t y) {
    const auto ix = static_cast<std::int64_t>(x);
    const auto iy = static_cast<std::int64_t>(y);
    const float centre = view.at(ix, iy);
    out.at(x, y - out_row_begin) =
        view.at_clamped(ix - 1, iy) + view.at_clamped(ix + 1, iy) +
        view.at_clamped(ix, iy - 1) + view.at_clamped(ix, iy + 1) -
        4.0F * centre;
  };

  // Interior cells go through the dispatched row-segment sweep (AVX2 ->
  // SSE2 -> scalar), which sums in the same left, right, up, down order as
  // the clamped path on every ISA, so outputs are bit-identical.
  simd::sweep_tile(view, grid_height, out_row_begin, out_row_end, out,
                   edge_cell, simd::row_kernels(simd::active_isa()).laplacian);
}

}  // namespace das::kernels
