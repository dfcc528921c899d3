#include "kernels/flow_routing.hpp"

#include <algorithm>

#include "kernels/simd.hpp"

namespace das::kernels {
namespace {

// Neighbour scan order fixes tie-breaking: E, SE, S, SW, W, NW, N, NE.
constexpr D8Step kSteps[8] = {{1, 0},  {1, 1},   {0, 1},  {-1, 1},
                              {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
constexpr std::uint32_t kCodes[8] = {1, 2, 4, 8, 16, 32, 64, 128};

float route_cell(const TileView& view, std::int64_t x, std::int64_t y) {
  const float centre = view.at(x, y);
  float best = centre;
  std::uint32_t code = 0;
  for (int k = 0; k < 8; ++k) {
    const std::int64_t nx = x + kSteps[k].dx;
    const std::int64_t ny = y + kSteps[k].dy;
    if (!view.in_grid(nx, ny)) continue;
    const float v = view.at(nx, ny);
    if (v < best) {
      best = v;
      code = kCodes[k];
    }
  }
  return static_cast<float>(code);
}

}  // namespace

D8Step d8_step(D8 code) {
  for (int k = 0; k < 8; ++k) {
    if (kCodes[k] == static_cast<std::uint32_t>(code)) return kSteps[k];
  }
  DAS_REQUIRE(false && "d8_step on kPit or invalid code");
  return {0, 0};
}

std::string FlowRoutingKernel::description() const {
  return "Basic operation of terrain analysis (GIS): routes flow from each "
         "cell to its lowest 8-neighbour";
}

KernelFeatures FlowRoutingKernel::features() const {
  return eight_neighbor_pattern(name());
}

grid::Grid<float> FlowRoutingKernel::run_reference(
    const grid::Grid<float>& input) const {
  grid::Grid<float> out(input.width(), input.height());
  run_tile(input, 0, input.height(), 0, input.height(), out);
  return out;
}

void FlowRoutingKernel::run_tile(const grid::Grid<float>& buffer,
                                 std::uint32_t buffer_row0,
                                 std::uint32_t grid_height,
                                 std::uint32_t out_row_begin,
                                 std::uint32_t out_row_end,
                                 grid::Grid<float>& out) const {
  check_tile_args(buffer, buffer_row0, grid_height, out_row_begin,
                  out_row_end, out);
  const TileView view(buffer, buffer_row0, grid_height);

  const auto edge_cell = [&](std::uint32_t x, std::uint32_t y) {
    out.at(x, y - out_row_begin) = route_cell(view, x, y);
  };

  // Interior cells have all 8 neighbours in the grid, so the dispatched
  // row-segment sweep (AVX2 -> SSE2 -> scalar) drops the in_grid test and
  // unrolls the scan in the same E, SE, S, SW, W, NW, N, NE order with the
  // same strict `<` per lane, keeping tie-breaks (and outputs) identical to
  // route_cell on every ISA.
  simd::sweep_tile(view, grid_height, out_row_begin, out_row_end, out,
                   edge_cell,
                   simd::row_kernels(simd::active_isa()).flow_routing);
}

}  // namespace das::kernels
