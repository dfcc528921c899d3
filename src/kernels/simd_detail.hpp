// Internal per-ISA row-kernel tables behind simd::row_kernels(). Each table
// exists on every platform: on targets without the instruction set (or
// without x86 at all) the sse2/avx2 accessors return the scalar table, and
// runtime detection never selects them anyway. Keep this header free of
// intrinsics so every TU can include it.
#pragma once

#include <cstdint>

#include "kernels/simd.hpp"

namespace das::kernels::simd::detail {

// Scalar row functions: the reference for every wider ISA, and the loop
// tails of the vector row functions (simd_rows.hpp).
void laplacian_row_scalar(const float* up, const float* mid,
                          const float* down, float* dst, std::uint32_t x0,
                          std::uint32_t x1);
void gaussian_row_scalar(const float* up, const float* mid, const float* down,
                         float* dst, std::uint32_t x0, std::uint32_t x1);
void slope_row_scalar(const float* up, const float* mid, const float* down,
                      float* dst, std::uint32_t x0, std::uint32_t x1,
                      double denom);
void median_row_scalar(const float* up, const float* mid, const float* down,
                       float* dst, std::uint32_t x0, std::uint32_t x1);
void flow_routing_row_scalar(const float* up, const float* mid,
                             const float* down, float* dst, std::uint32_t x0,
                             std::uint32_t x1);
void statistics_row_scalar(const float* row, std::uint32_t n,
                           std::uint64_t& count, float& min, float& max,
                           double& sum, double& sum_squares);

[[nodiscard]] const RowKernels& scalar_row_kernels();
[[nodiscard]] const RowKernels& sse2_row_kernels();
[[nodiscard]] const RowKernels& avx2_row_kernels();

}  // namespace das::kernels::simd::detail
