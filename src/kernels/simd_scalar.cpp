// Scalar row-segment functions — the seed kernels' interior loops, verbatim.
//
// These are the bit-exactness reference for every wider ISA: each SIMD lane
// must evaluate the same expression in the same operand order as the body
// below for its cell. They also serve as the loop tails of the vector
// paths, so keep them branch-free and in exact seed order.
#include "kernels/simd_detail.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace das::kernels::simd::detail {

void laplacian_row_scalar(const float* up, const float* mid,
                          const float* down, float* dst, std::uint32_t x0,
                          std::uint32_t x1) {
  for (std::uint32_t x = x0; x < x1; ++x) {
    dst[x] = mid[x - 1] + mid[x + 1] + up[x] + down[x] - 4.0F * mid[x];
  }
}

void gaussian_row_scalar(const float* up, const float* mid, const float* down,
                         float* dst, std::uint32_t x0, std::uint32_t x1) {
  constexpr float kWeights[3][3] = {
      {1.0F, 2.0F, 1.0F}, {2.0F, 4.0F, 2.0F}, {1.0F, 2.0F, 1.0F}};
  for (std::uint32_t x = x0; x < x1; ++x) {
    float sum = 0.0F;
    sum += kWeights[0][0] * up[x - 1];
    sum += kWeights[0][1] * up[x];
    sum += kWeights[0][2] * up[x + 1];
    sum += kWeights[1][0] * mid[x - 1];
    sum += kWeights[1][1] * mid[x];
    sum += kWeights[1][2] * mid[x + 1];
    sum += kWeights[2][0] * down[x - 1];
    sum += kWeights[2][1] * down[x];
    sum += kWeights[2][2] * down[x + 1];
    dst[x] = sum / 16.0F;
  }
}

void slope_row_scalar(const float* up, const float* mid, const float* down,
                      float* dst, std::uint32_t x0, std::uint32_t x1,
                      double denom) {
  for (std::uint32_t x = x0; x < x1; ++x) {
    const double a = up[x - 1];
    const double b = up[x];
    const double c = up[x + 1];
    const double d = mid[x - 1];
    const double f = mid[x + 1];
    const double g = down[x - 1];
    const double h = down[x];
    const double i = down[x + 1];

    const double dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / denom;
    const double dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / denom;
    dst[x] = static_cast<float>(std::sqrt(dzdx * dzdx + dzdy * dzdy));
  }
}

void median_row_scalar(const float* up, const float* mid, const float* down,
                       float* dst, std::uint32_t x0, std::uint32_t x1) {
  for (std::uint32_t x = x0; x < x1; ++x) {
    std::array<float, 9> window = {up[x - 1],   up[x],   up[x + 1],
                                   mid[x - 1],  mid[x],  mid[x + 1],
                                   down[x - 1], down[x], down[x + 1]};
    std::nth_element(window.begin(), window.begin() + 4, window.end());
    dst[x] = window[4];
  }
}

void flow_routing_row_scalar(const float* up, const float* mid,
                             const float* down, float* dst, std::uint32_t x0,
                             std::uint32_t x1) {
  for (std::uint32_t x = x0; x < x1; ++x) {
    float best = mid[x];
    std::uint32_t code = 0;
    const auto consider = [&](float v, std::uint32_t step_code) {
      if (v < best) {
        best = v;
        code = step_code;
      }
    };
    consider(mid[x + 1], 1);    // E
    consider(down[x + 1], 2);   // SE
    consider(down[x], 4);       // S
    consider(down[x - 1], 8);   // SW
    consider(mid[x - 1], 16);   // W
    consider(up[x - 1], 32);    // NW
    consider(up[x], 64);        // N
    consider(up[x + 1], 128);   // NE
    dst[x] = static_cast<float>(code);
  }
}

void statistics_row_scalar(const float* row, std::uint32_t n,
                           std::uint64_t& count, float& min, float& max,
                           double& sum, double& sum_squares) {
  for (std::uint32_t x = 0; x < n; ++x) {
    const float v = row[x];
    ++count;
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    sum_squares += static_cast<double>(v) * v;
  }
}

const RowKernels& scalar_row_kernels() {
  static constexpr RowKernels kTable(laplacian_row_scalar, gaussian_row_scalar,
                                     median_row_scalar, flow_routing_row_scalar,
                                     slope_row_scalar, statistics_row_scalar);
  return kTable;
}

}  // namespace das::kernels::simd::detail
