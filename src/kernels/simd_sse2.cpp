// SSE2 lane traits (4 float lanes / 2 double lanes) for the row kernels of
// simd_rows.hpp. SSE2 is the x86-64 baseline, so this TU needs no special
// compile flags; on non-x86 targets its table is the scalar one.
#include "kernels/simd_detail.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "kernels/simd_rows.hpp"
#endif

namespace das::kernels::simd::detail {

#if defined(__SSE2__)

namespace {

struct Sse2 {
  using Vec = __m128;
  using VecD = __m128d;
  static constexpr std::uint32_t kLanes = 4;
  static constexpr std::uint32_t kDoubleLanes = 2;
  static constexpr std::uint32_t kWidenReads = 4;

  static Vec load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, Vec v) { _mm_storeu_ps(p, v); }
  static void store_aligned(float* p, Vec v) { _mm_store_ps(p, v); }
  static Vec set1(float v) { return _mm_set1_ps(v); }
  static Vec zero() { return _mm_setzero_ps(); }
  static Vec add(Vec a, Vec b) { return _mm_add_ps(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm_mul_ps(a, b); }
  static Vec div(Vec a, Vec b) { return _mm_div_ps(a, b); }
  static Vec min(Vec a, Vec b) { return _mm_min_ps(a, b); }
  static Vec max(Vec a, Vec b) { return _mm_max_ps(a, b); }
  static Vec less(Vec a, Vec b) { return _mm_cmplt_ps(a, b); }
  /// mask ? on : off, per lane (SSE2 has no blend).
  static Vec select(Vec mask, Vec on, Vec off) {
    return _mm_or_ps(_mm_and_ps(mask, on), _mm_andnot_ps(mask, off));
  }

  static VecD set1(double v) { return _mm_set1_pd(v); }
  static VecD add(VecD a, VecD b) { return _mm_add_pd(a, b); }
  static VecD sub(VecD a, VecD b) { return _mm_sub_pd(a, b); }
  static VecD mul(VecD a, VecD b) { return _mm_mul_pd(a, b); }
  static VecD div(VecD a, VecD b) { return _mm_div_pd(a, b); }
  static VecD sqrt(VecD v) { return _mm_sqrt_pd(v); }
  /// p[0], p[1] as doubles (exact); reads p[0, kWidenReads).
  static VecD widen(const float* p) { return _mm_cvtps_pd(_mm_loadu_ps(p)); }
  /// Round both lanes to float and store them to p[0], p[1].
  static void narrow_store(float* p, VecD v) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                     _mm_castps_si128(_mm_cvtpd_ps(v)));
  }
};

}  // namespace

const RowKernels& sse2_row_kernels() { return kRowKernels<Sse2>; }

#else  // non-x86 target: the scalar table.

const RowKernels& sse2_row_kernels() { return scalar_row_kernels(); }

#endif

}  // namespace das::kernels::simd::detail
