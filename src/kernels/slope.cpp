#include "kernels/slope.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/simd.hpp"

namespace das::kernels {

std::string SlopeKernel::description() const {
  return "Terrain analysis (GIS): per-cell slope magnitude via Horn's "
         "3x3 weighted central differences";
}

KernelFeatures SlopeKernel::features() const {
  return eight_neighbor_pattern(name());
}

grid::Grid<float> SlopeKernel::run_reference(
    const grid::Grid<float>& input) const {
  grid::Grid<float> out(input.width(), input.height());
  run_tile(input, 0, input.height(), 0, input.height(), out);
  return out;
}

void SlopeKernel::run_tile(const grid::Grid<float>& buffer,
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
    // Horn 1981: weighted central differences over the 3x3 window with
    // clamp-to-edge sampling.
    const double a = view.at_clamped(ix - 1, iy - 1);
    const double b = view.at_clamped(ix, iy - 1);
    const double c = view.at_clamped(ix + 1, iy - 1);
    const double d = view.at_clamped(ix - 1, iy);
    const double f = view.at_clamped(ix + 1, iy);
    const double g = view.at_clamped(ix - 1, iy + 1);
    const double h = view.at_clamped(ix, iy + 1);
    const double i = view.at_clamped(ix + 1, iy + 1);

    const double dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) /
                        (8.0 * cell_size_);
    const double dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) /
                        (8.0 * cell_size_);
    out.at(x, y - out_row_begin) =
        static_cast<float>(std::sqrt(dzdx * dzdx + dzdy * dzdy));
  };

  // Interior sweep: same reads, same expressions, no clamping — outputs
  // are bit-identical to the clamped path on every ISA (the dispatched row
  // functions evaluate Horn's expression per lane in scalar operand order,
  // with correctly-rounded divide and sqrt).
  const simd::SlopeRowFn row_fn = simd::row_kernels(simd::active_isa()).slope;
  const double denom = 8.0 * cell_size_;
  simd::sweep_tile(
      view, grid_height, out_row_begin, out_row_end, out, edge_cell,
      [row_fn, denom](const float* up, const float* mid, const float* down,
                      float* dst, std::uint32_t x0, std::uint32_t x1) {
        row_fn(up, mid, down, dst, x0, x1, denom);
      });
}

}  // namespace das::kernels
