// AVX2 lane traits (8 float lanes / 4 double lanes) for the row kernels of
// simd_rows.hpp. This TU is the only one compiled with -mavx2 (see
// src/kernels/CMakeLists.txt); its table is selected only after runtime
// CPUID detection reports AVX2, and is the scalar one on targets where the
// compiler provides no AVX2 (__AVX2__ unset). Everything it defines has
// internal linkage, since the linker may keep any TU's copy of a weak symbol
// for every caller; the avx2_no_weak_symbols ctest checks this.
#include "kernels/simd_detail.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "kernels/simd_rows.hpp"
#endif

namespace das::kernels::simd::detail {

#if defined(__AVX2__)

namespace {

struct Avx2 {
  using Vec = __m256;
  using VecD = __m256d;
  static constexpr std::uint32_t kLanes = 8;
  static constexpr std::uint32_t kDoubleLanes = 4;
  static constexpr std::uint32_t kWidenReads = 4;

  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static void store_aligned(float* p, Vec v) { _mm256_store_ps(p, v); }
  static Vec set1(float v) { return _mm256_set1_ps(v); }
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec min(Vec a, Vec b) { return _mm256_min_ps(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
  static Vec less(Vec a, Vec b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  /// mask ? on : off, per lane.
  static Vec select(Vec mask, Vec on, Vec off) {
    return _mm256_blendv_ps(off, on, mask);
  }

  static VecD set1(double v) { return _mm256_set1_pd(v); }
  static VecD add(VecD a, VecD b) { return _mm256_add_pd(a, b); }
  static VecD sub(VecD a, VecD b) { return _mm256_sub_pd(a, b); }
  static VecD mul(VecD a, VecD b) { return _mm256_mul_pd(a, b); }
  static VecD div(VecD a, VecD b) { return _mm256_div_pd(a, b); }
  static VecD sqrt(VecD v) { return _mm256_sqrt_pd(v); }
  /// p[0..3] as doubles (exact); reads p[0, kWidenReads).
  static VecD widen(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  /// Round the four lanes to float and store them to p[0..3].
  static void narrow_store(float* p, VecD v) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
};

}  // namespace

const RowKernels& avx2_row_kernels() { return kRowKernels<Avx2>; }

#else  // compiler lacks AVX2: the scalar table.

const RowKernels& avx2_row_kernels() { return scalar_row_kernels(); }

#endif

}  // namespace das::kernels::simd::detail
