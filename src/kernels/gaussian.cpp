#include "kernels/gaussian.hpp"

#include <algorithm>

#include "kernels/simd.hpp"

namespace das::kernels {

std::string GaussianKernel::description() const {
  return "Basic operation of signal and medical image processing: 3x3 "
         "binomial Gaussian smoothing of the raw data";
}

KernelFeatures GaussianKernel::features() const {
  return eight_neighbor_pattern(name());
}

grid::Grid<float> GaussianKernel::run_reference(
    const grid::Grid<float>& input) const {
  grid::Grid<float> out(input.width(), input.height());
  run_tile(input, 0, input.height(), 0, input.height(), out);
  return out;
}

void GaussianKernel::run_tile(const grid::Grid<float>& buffer,
                              std::uint32_t buffer_row0,
                              std::uint32_t grid_height,
                              std::uint32_t out_row_begin,
                              std::uint32_t out_row_end,
                              grid::Grid<float>& out) const {
  check_tile_args(buffer, buffer_row0, grid_height, out_row_begin,
                  out_row_end, out);
  const TileView view(buffer, buffer_row0, grid_height);
  constexpr float kWeights[3][3] = {
      {1.0F, 2.0F, 1.0F}, {2.0F, 4.0F, 2.0F}, {1.0F, 2.0F, 1.0F}};

  // Clamped per-cell path, needed only where the 3x3 window leaves the grid.
  const auto edge_cell = [&](std::uint32_t x, std::uint32_t y) {
    float sum = 0.0F;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        sum += kWeights[dy + 1][dx + 1] *
               view.at_clamped(static_cast<std::int64_t>(x) + dx,
                               static_cast<std::int64_t>(y) + dy);
      }
    }
    out.at(x, y - out_row_begin) = sum / 16.0F;
  };

  // Cells whose full window is in the grid take the dispatched branch-free
  // sweep, which accumulates in the same (dy, dx) order as the clamped path
  // on every ISA, so outputs are bit-identical.
  simd::sweep_tile(view, grid_height, out_row_begin, out_row_end, out,
                   edge_cell, simd::row_kernels(simd::active_isa()).gaussian);
}

}  // namespace das::kernels
