#include "physics/rates.h"

#include <algorithm>
#include <cmath>

#include "base/constants.h"
#include "base/math_util.h"
#include "physics/fast_expm1.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SEMSIM_X86_KERNELS 1
#endif

namespace semsim {

#if defined(SEMSIM_X86_KERNELS)
namespace {

/// 4-wide AVX2 lane of the thermal fast kernel. Every vector instruction is
/// the packed twin of the scalar operation in expm1_fast /
/// tunnel_rates_batch_fast — same operations, same association, same
/// round-to-nearest, and deliberately NO vfmadd (the target attribute
/// enables avx2 only, never fma), so each lane's double is bit-identical to
/// the scalar path. That invariant is what lets machines with and without
/// AVX2 produce the same trajectories; test_physics pins it element-wise.
/// Callers guarantee |x| in [1e-8, 700] for all four lanes, so the int32
/// truncating convert (the only packed truncation below AVX-512) covers the
/// k range.
__attribute__((target("avx2"))) inline __m256d expm1_fast_avx2(__m256d x) {
  const __m256d t = _mm256_mul_pd(x, _mm256_set1_pd(kFastInvLn2));
  // t + (t >= 0 ? 0.5 : -0.5), then truncate: cvttpd matches static_cast.
  const __m256d half = _mm256_blendv_pd(
      _mm256_set1_pd(-0.5), _mm256_set1_pd(0.5),
      _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_GE_OQ));
  const __m128i k32 = _mm256_cvttpd_epi32(_mm256_add_pd(t, half));
  const __m256d kd = _mm256_cvtepi32_pd(k32);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(kFastLn2Hi))),
      _mm256_mul_pd(kd, _mm256_set1_pd(kFastLn2Lo)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d q = _mm256_set1_pd(1.0 / 479001600.0);
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 39916800.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 3628800.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 362880.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 40320.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 5040.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 720.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 120.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 24.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 6.0));
  q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(0.5));
  const __m256d p = _mm256_add_pd(r, _mm256_mul_pd(r2, q));
  // 2^k by exponent-field construction, exactly the scalar bit_cast shift.
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256d two_k = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52));
  return _mm256_add_pd(_mm256_mul_pd(two_k, p),
                       _mm256_sub_pd(two_k, _mm256_set1_pd(1.0)));
}

/// Thermal fast kernel, AVX2 dispatch target: groups of four lanes whose
/// |x| all sit inside the polynomial range run the packed expm1; any group
/// with an edge-case lane (series region, clamp region, NaN) falls to the
/// scalar helper, preserving the exact kernel's branch semantics — the same
/// classify-then-split contract as the scalar chunk loop, just 4 wide.
__attribute__((target("avx2"))) void thermal_rates_fast_avx2(
    const double* delta_w, const double* conductance, double kt, double* out,
    std::size_t n) noexcept {
  const __m256d vkt = _mm256_set1_pd(kt);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  constexpr std::size_t kLanes = 4;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d x =
        _mm256_div_pd(_mm256_loadu_pd(delta_w + i), vkt);
    const __m256d a = _mm256_and_pd(x, abs_mask);
    const __m256d in_range = _mm256_and_pd(
        _mm256_cmp_pd(a, _mm256_set1_pd(1e-8), _CMP_GE_OQ),
        _mm256_cmp_pd(a, _mm256_set1_pd(700.0), _CMP_LE_OQ));
    if (_mm256_movemask_pd(in_range) == 0xF) {
      const __m256d g = _mm256_loadu_pd(conductance + i);
      // kt * (x / expm1(x)) * g with the scalar path's association.
      const __m256d rate = _mm256_mul_pd(
          _mm256_mul_pd(vkt, _mm256_div_pd(x, expm1_fast_avx2(x))), g);
      _mm256_storeu_pd(out + i, rate);
    } else {
      for (std::size_t l = 0; l < kLanes; ++l) {
        out[i + l] =
            kt * x_over_expm1_fast(delta_w[i + l] / kt) * conductance[i + l];
      }
    }
  }
  for (; i < n; ++i) {
    out[i] = kt * x_over_expm1_fast(delta_w[i] / kt) * conductance[i];
  }
}

bool cpu_has_avx2() noexcept {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

}  // namespace
#endif  // SEMSIM_X86_KERNELS

double orthodox_rate(double delta_w, double resistance,
                     double temperature) noexcept {
  const double g = 1.0 / (kElementaryCharge * kElementaryCharge * resistance);
  if (temperature <= 0.0) {
    return std::max(-delta_w, 0.0) * g;
  }
  const double kt = kBoltzmann * temperature;
  // delta_w / (exp(delta_w/kT) - 1) = kT * x_over_expm1(delta_w / kT)
  return kt * x_over_expm1(delta_w / kt) * g;
}

void tunnel_rates_batch(const double* delta_w, const double* conductance,
                        double kt, double* out, std::size_t n) noexcept {
  if (kt <= 0.0) {
    // T = 0 limit: branch-free max + multiply, vectorizes as-is. The
    // expression must stay `std::max(-delta_w, 0.0) * g` verbatim — it can
    // produce -0.0 (max picks its first argument on ties), and the Fenwick
    // build preserves that bit pattern.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(-delta_w[i], 0.0) * conductance[i];
    }
    return;
  }
  // Thermal path: per-channel libm expm1 through the (now inline)
  // x_over_expm1, same expression and association as orthodox_rate.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = kt * x_over_expm1(delta_w[i] / kt) * conductance[i];
  }
}

std::size_t tunnel_rates_batch_memo(const double* delta_w,
                                    const double* conductance, double kt,
                                    RateMemoLine* memo, double* out,
                                    std::size_t n) noexcept {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = memo_thermal_rate(memo[i], delta_w[i], kt, conductance[i], hits);
  }
  return hits;
}

// expm1_fast / x_over_expm1_fast live in physics/fast_expm1.h so the fused
// adaptive commit kernel and the fast cotunneling factor compile the exact
// same inline code (bitwise per-element equality across translation units).

void tunnel_rates_batch_fast(const double* delta_w, const double* conductance,
                             double kt, double* out, std::size_t n) noexcept {
  if (kt <= 0.0) {
    // T = 0 never touches expm1: byte-identical to the exact kernel.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(-delta_w[i], 0.0) * conductance[i];
    }
    return;
  }
#if defined(SEMSIM_X86_KERNELS)
  // Packed thermal path when the host has AVX2 (the default -O3 build
  // targets baseline x86-64, so the portable chunk loop stays scalar).
  // Bit-identical per element — see thermal_rates_fast_avx2; pinned
  // against the portable path by test_physics.
  if (cpu_has_avx2()) {
    thermal_rates_fast_avx2(delta_w, conductance, kt, out, n);
    return;
  }
#endif
  tunnel_rates_batch_fast_portable(delta_w, conductance, kt, out, n);
}

void tunnel_rates_batch_fast_portable(const double* delta_w,
                                      const double* conductance, double kt,
                                      double* out, std::size_t n) noexcept {
  if (kt <= 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(-delta_w[i], 0.0) * conductance[i];
    }
    return;
  }
  constexpr std::size_t kChunk = 8;
  std::size_t i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    // Classify the chunk: when every lane is inside the polynomial range
    // the whole block runs branch-free (vectorizable); any edge-case lane
    // (series region, clamp region, NaN) drops the block to the scalar
    // helper, which keeps the exact kernel's branch semantics.
    double x[kChunk];
    bool simple = true;
    for (std::size_t l = 0; l < kChunk; ++l) {
      x[l] = delta_w[i + l] / kt;
      const double a = std::abs(x[l]);
      simple = simple && (a >= 1e-8) && (a <= 700.0);
    }
    if (simple) {
      for (std::size_t l = 0; l < kChunk; ++l) {
        out[i + l] = kt * (x[l] / expm1_fast(x[l])) * conductance[i + l];
      }
    } else {
      for (std::size_t l = 0; l < kChunk; ++l) {
        out[i + l] = kt * x_over_expm1_fast(x[l]) * conductance[i + l];
      }
    }
  }
  for (; i < n; ++i) {
    out[i] = kt * x_over_expm1_fast(delta_w[i] / kt) * conductance[i];
  }
}

}  // namespace semsim
