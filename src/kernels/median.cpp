#include "kernels/median.hpp"

#include <algorithm>
#include <array>

#include "kernels/simd.hpp"

namespace das::kernels {

std::string MedianKernel::description() const {
  return "Impulse-noise removal for medical images: each cell becomes the "
         "median of its in-bounds 3x3 neighbourhood";
}

KernelFeatures MedianKernel::features() const {
  return eight_neighbor_pattern(name());
}

grid::Grid<float> MedianKernel::run_reference(
    const grid::Grid<float>& input) const {
  grid::Grid<float> out(input.width(), input.height());
  run_tile(input, 0, input.height(), 0, input.height(), out);
  return out;
}

void MedianKernel::run_tile(const grid::Grid<float>& buffer,
                            std::uint32_t buffer_row0,
                            std::uint32_t grid_height,
                            std::uint32_t out_row_begin,
                            std::uint32_t out_row_end,
                            grid::Grid<float>& out) const {
  check_tile_args(buffer, buffer_row0, grid_height, out_row_begin,
                  out_row_end, out);
  const TileView view(buffer, buffer_row0, grid_height);

  const auto edge_cell = [&](std::uint32_t x, std::uint32_t y) {
    std::array<float, 9> window{};
    std::size_t n = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const std::int64_t nx = static_cast<std::int64_t>(x) + dx;
        const std::int64_t ny = static_cast<std::int64_t>(y) + dy;
        if (view.in_grid(nx, ny)) window[n++] = view.at(nx, ny);
      }
    }
    const auto mid = static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(window.begin(), window.begin() + mid,
                     window.begin() + static_cast<std::ptrdiff_t>(n));
    out.at(x, y - out_row_begin) = window[static_cast<std::size_t>(mid)];
  };

  // Interior cells always have the full 9-cell window. The dispatched sweep
  // selects the median with a fixed min/max sorting network, which yields
  // the same value as nth_element for any 9-element multiset, so outputs
  // are bit-identical.
  simd::sweep_tile(view, grid_height, out_row_begin, out_row_end, out,
                   edge_cell, simd::row_kernels(simd::active_isa()).median);
}

}  // namespace das::kernels
