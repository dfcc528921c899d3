// Vector row kernels, written once over a lane-traits type `V`.
//
// Included only by the per-ISA translation units (simd_sse2.cpp,
// simd_avx2.cpp), each of which defines one traits type in an anonymous
// namespace: its vector types (`Vec`: kLanes floats, `VecD`: kDoubleLanes
// doubles) and one static member per intrinsic the bodies below use, each
// wrapping exactly one intrinsic (or the ISA's fixed sequence for `select`,
// `widen` and `narrow_store`). Everything here is a template on V, so every
// instantiation has internal linkage: a TU compiled with -mavx2 emits no
// weak symbol the linker could pick for a caller on a CPU without AVX2.
// For the same reason no std:: algorithm is instantiated here.
//
// Every lane computes one output cell with the exact scalar operand order —
// lanes never share partial results — so outputs are bit-identical to the
// scalar path. Loads are unaligned (the x-1 / x+1 taps are off-alignment by
// construction); loop tails fall back to the scalar body. Deliberately no
// FMA: the scalar kernels compile without floating-point contraction
// (-ffp-contract=off on das_kernels), so a fused multiply-add here would
// break bit-identity.
#pragma once

#include <cstdint>

#include "kernels/simd_detail.hpp"

namespace das::kernels::simd::detail {

/// sort2: a <- min(a, b), b <- max(a, b). With both operands ordered this
/// way, ties keep the first operand in `a`, matching std::nth_element's
/// selection of the median *value*.
template <typename V, typename Vec>
inline void sort2(Vec& a, Vec& b) {
  const Vec lo = V::min(a, b);
  b = V::max(a, b);
  a = lo;
}

/// Median of 9 via the Devillard / Paeth 19-exchange selection network;
/// returns the same median value as nth_element over the window.
template <typename V, typename Vec>
inline Vec median9(Vec p0, Vec p1, Vec p2, Vec p3, Vec p4, Vec p5, Vec p6,
                   Vec p7, Vec p8) {
  // clang-format off
  sort2<V>(p1, p2); sort2<V>(p4, p5); sort2<V>(p7, p8);
  sort2<V>(p0, p1); sort2<V>(p3, p4); sort2<V>(p6, p7);
  sort2<V>(p1, p2); sort2<V>(p4, p5); sort2<V>(p7, p8);
  sort2<V>(p0, p3); sort2<V>(p5, p8); sort2<V>(p4, p7);
  sort2<V>(p3, p6); sort2<V>(p1, p4); sort2<V>(p2, p5);
  sort2<V>(p4, p7); sort2<V>(p4, p2); sort2<V>(p6, p4);
  sort2<V>(p4, p2);
  // clang-format on
  return p4;
}

template <typename V>
void laplacian_row(const float* up, const float* mid, const float* down,
                   float* dst, std::uint32_t x0, std::uint32_t x1) {
  using Vec = typename V::Vec;
  std::uint32_t x = x0;
  const Vec four = V::set1(4.0F);
  for (; x + V::kLanes <= x1; x += V::kLanes) {
    // ((((mid[x-1] + mid[x+1]) + up[x]) + down[x]) - 4 * mid[x])
    const Vec left = V::load(mid + x - 1);
    const Vec right = V::load(mid + x + 1);
    const Vec u = V::load(up + x);
    const Vec d = V::load(down + x);
    const Vec c = V::load(mid + x);
    Vec acc = V::add(left, right);
    acc = V::add(acc, u);
    acc = V::add(acc, d);
    acc = V::sub(acc, V::mul(four, c));
    V::store(dst + x, acc);
  }
  laplacian_row_scalar(up, mid, down, dst, x, x1);
}

template <typename V>
void gaussian_row(const float* up, const float* mid, const float* down,
                  float* dst, std::uint32_t x0, std::uint32_t x1) {
  using Vec = typename V::Vec;
  std::uint32_t x = x0;
  const Vec two = V::set1(2.0F);
  const Vec four = V::set1(4.0F);
  const Vec sixteen = V::set1(16.0F);
  for (; x + V::kLanes <= x1; x += V::kLanes) {
    // sum accumulates in the scalar path's (dy, dx) order, including the
    // initial 0 + tap add (0 + -0.0 is +0.0, so skipping it would flip a
    // bit on all-zero windows); weight-1 taps add the tap directly —
    // 1.0f * v is exactly v for every float.
    Vec sum = V::add(V::zero(), V::load(up + x - 1));
    sum = V::add(sum, V::mul(two, V::load(up + x)));
    sum = V::add(sum, V::load(up + x + 1));
    sum = V::add(sum, V::mul(two, V::load(mid + x - 1)));
    sum = V::add(sum, V::mul(four, V::load(mid + x)));
    sum = V::add(sum, V::mul(two, V::load(mid + x + 1)));
    sum = V::add(sum, V::load(down + x - 1));
    sum = V::add(sum, V::mul(two, V::load(down + x)));
    sum = V::add(sum, V::load(down + x + 1));
    V::store(dst + x, V::div(sum, sixteen));
  }
  gaussian_row_scalar(up, mid, down, dst, x, x1);
}

template <typename V>
void slope_row(const float* up, const float* mid, const float* down,
               float* dst, std::uint32_t x0, std::uint32_t x1, double denom) {
  using VecD = typename V::VecD;
  std::uint32_t x = x0;
  const VecD two = V::set1(2.0);
  const VecD vden = V::set1(denom);
  // kDoubleLanes cells per step: widen float taps exactly, then evaluate the
  // scalar expression per lane (sqrt and divide are correctly rounded, so
  // lane results match std::sqrt / scalar division bit for bit). The x + 1
  // taps read up to x + kWidenReads, which must stay inside the row: the
  // `down` row can be the last of its buffer.
  for (; x + V::kWidenReads <= x1; x += V::kDoubleLanes) {
    const VecD a = V::widen(up + x - 1);
    const VecD b = V::widen(up + x);
    const VecD c = V::widen(up + x + 1);
    const VecD d = V::widen(mid + x - 1);
    const VecD f = V::widen(mid + x + 1);
    const VecD g = V::widen(down + x - 1);
    const VecD h = V::widen(down + x);
    const VecD i = V::widen(down + x + 1);

    // ((c + 2*f + i) - (a + 2*d + g)) / denom
    const VecD east = V::add(V::add(c, V::mul(two, f)), i);
    const VecD west = V::add(V::add(a, V::mul(two, d)), g);
    const VecD dzdx = V::div(V::sub(east, west), vden);
    // ((g + 2*h + i) - (a + 2*b + c)) / denom
    const VecD south = V::add(V::add(g, V::mul(two, h)), i);
    const VecD north = V::add(V::add(a, V::mul(two, b)), c);
    const VecD dzdy = V::div(V::sub(south, north), vden);

    const VecD mag = V::sqrt(V::add(V::mul(dzdx, dzdx), V::mul(dzdy, dzdy)));
    V::narrow_store(dst + x, mag);
  }
  slope_row_scalar(up, mid, down, dst, x, x1, denom);
}

template <typename V>
void median_row(const float* up, const float* mid, const float* down,
                float* dst, std::uint32_t x0, std::uint32_t x1) {
  using Vec = typename V::Vec;
  std::uint32_t x = x0;
  for (; x + V::kLanes <= x1; x += V::kLanes) {
    const Vec med = median9<V>(
        V::load(up + x - 1), V::load(up + x), V::load(up + x + 1),
        V::load(mid + x - 1), V::load(mid + x), V::load(mid + x + 1),
        V::load(down + x - 1), V::load(down + x), V::load(down + x + 1));
    V::store(dst + x, med);
  }
  median_row_scalar(up, mid, down, dst, x, x1);
}

template <typename V>
void flow_routing_row(const float* up, const float* mid, const float* down,
                      float* dst, std::uint32_t x0, std::uint32_t x1) {
  using Vec = typename V::Vec;
  std::uint32_t x = x0;
  for (; x + V::kLanes <= x1; x += V::kLanes) {
    // 8-way argmax, strict `<` with first-wins ties: the compare mask is
    // taken BEFORE the min update, so a neighbour equal to the running best
    // never steals the code — exactly the scalar consider() order. Codes
    // live as their float values (0..128 are exact), so the winning lane's
    // code blends through the ps domain and stores directly.
    Vec best = V::load(mid + x);
    Vec code = V::zero();
    const auto consider = [&](const float* taps, float step_code) {
      const Vec v = V::load(taps);
      const Vec lt = V::less(v, best);
      best = V::min(v, best);  // v < best ? v : best — scalar update
      code = V::select(lt, V::set1(step_code), code);
    };
    consider(mid + x + 1, 1.0F);   // E
    consider(down + x + 1, 2.0F);  // SE
    consider(down + x, 4.0F);      // S
    consider(down + x - 1, 8.0F);  // SW
    consider(mid + x - 1, 16.0F);  // W
    consider(up + x - 1, 32.0F);   // NW
    consider(up + x, 64.0F);       // N
    consider(up + x + 1, 128.0F);  // NE
    V::store(dst + x, code);
  }
  flow_routing_row_scalar(up, mid, down, dst, x, x1);
}

template <typename V>
void statistics_row(const float* row, std::uint32_t n, std::uint64_t& count,
                    float& min, float& max, double& sum, double& sum_squares) {
  // min/max fold vectorizes (operand order keeps the accumulator on ties,
  // like std::min/std::max, whose conditionals are spelled out below); the
  // sum / sum_squares chains stay scalar in exact left-to-right order —
  // reassociating a float->double accumulation would change low-order bits.
  using Vec = typename V::Vec;
  std::uint32_t x = 0;
  if (n >= V::kLanes) {
    Vec vmin = V::load(row);
    Vec vmax = vmin;
    for (x = V::kLanes; x + V::kLanes <= n; x += V::kLanes) {
      const Vec v = V::load(row + x);
      vmin = V::min(v, vmin);  // ties keep the accumulator
      vmax = V::max(v, vmax);
    }
    alignas(sizeof(Vec)) float lanes[V::kLanes];
    V::store_aligned(lanes, vmin);
    for (const float lane : lanes) min = lane < min ? lane : min;
    V::store_aligned(lanes, vmax);
    for (const float lane : lanes) max = max < lane ? lane : max;
  }
  for (; x < n; ++x) {
    min = row[x] < min ? row[x] : min;
    max = max < row[x] ? row[x] : max;
  }
  count += n;
  for (std::uint32_t k = 0; k < n; ++k) {
    const float v = row[k];
    sum += v;
    sum_squares += static_cast<double>(v) * v;
  }
}

/// The row-kernel table of lane traits V.
template <typename V>
constexpr RowKernels kRowKernels(laplacian_row<V>, gaussian_row<V>,
                                 median_row<V>, flow_routing_row<V>,
                                 slope_row<V>, statistics_row<V>);

}  // namespace das::kernels::simd::detail
