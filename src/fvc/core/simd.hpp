/// \file simd.hpp
/// \brief Portable fixed-width batch abstraction: 4 double lanes.
///
/// One batch type per vector ISA, both exposing the same static interface
/// so the batch kernels of grid_eval_kernel.hpp (the classify, and the row
/// sweep's band compaction and interval pass) are written once as
/// templates and instantiated per backend in their own translation unit:
///
///   Avx2Batch     __m256d; only defined when the including TU is
///                 compiled with AVX2 (-mavx2), i.e. inside
///                 grid_eval_kernel_avx2.cpp
///   NeonBatch     two float64x2_t halves; only defined on AArch64
///
/// A CPU with neither runs the scalar per-entry loop instead.
///
/// Bit-identity contract: every arithmetic op maps to exactly one IEEE-754
/// binary64 operation per lane (add/sub/mul, round-to-nearest-even), `abs`
/// clears the sign bit, and comparisons are the ordered IEEE predicates —
/// so a lane computes bit-for-bit what the scalar oracle computes for the
/// same candidate.  Nothing here may introduce FMA contraction (the
/// backends use distinct mul and add operations, and kernel TUs are built
/// with -ffp-contract=off); that would change rounding and break the
/// engine's differential tests.  The row sweep's ops keep the contract:
///
///   div, sqrt   the correctly rounded IEEE quotient and root (vdivpd and
///               vsqrtpd; fdiv and fsqrt), which is what scalar `/` and
///               `std::sqrt` return.  A negative root gives the default
///               NaN either way, and the vector op has no errno path.
///   neg         flips the sign bit, as scalar unary minus does (0 - x
///               would turn -0 into +0).
///   min, max    `std::min(a, b)` = `b < a ? b : a` and `std::max(a, b)` =
///               `a < b ? b : a` exactly: a select on a less-than with the
///               same operand order, so a tie (+0 against -0 too) returns
///               the same operand.  On AVX2 that is vminpd(b, a) and
///               vmaxpd(b, a), which return their first operand when it
///               compares less (greater), else the second; NEON's fmin and
///               fmax order zeros, so NEON keeps the select.
///   trunc       rounds toward zero.  For |x| < 2^31 that is the value of
///               `static_cast<std::int32_t>(x)`, up to the sign of a zero,
///               which neither a comparison nor the int32 store sees.
///   store_i32   converts lanes holding integers of magnitude below 2^31
///               to int32 (exactly) and stores them.
///   gather      plain loads from strided slots, no arithmetic.
///   bits_eq     tests integer bit patterns stored in double lanes with an
///               integer compare, so the patterns may be denormals.
///
/// Masks are represented as batches whose lanes are all-ones / all-zero
/// bit patterns (the native form of both vector ISAs).  All-ones is a NaN
/// as a double, so masks must only meet bitwise ops — the kernel keeps
/// arithmetic and mask domains strictly separate.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace fvc::core::simd {

inline constexpr std::size_t kLanes = 4;

/// Left-pack lane order per 4-bit mask: the set lanes in ascending order,
/// then the clear ones (compress_index).
alignas(16) inline constexpr std::uint32_t kPackLanes[16][4] = {
    {0, 1, 2, 3}, {0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 2, 3},
    {2, 0, 1, 3}, {0, 2, 1, 3}, {1, 2, 0, 3}, {0, 1, 2, 3},
    {3, 0, 1, 2}, {0, 3, 1, 2}, {1, 3, 0, 2}, {0, 1, 3, 2},
    {2, 3, 0, 1}, {0, 2, 3, 1}, {1, 2, 3, 0}, {0, 1, 2, 3}};

#if defined(__AVX2__)
/// AVX2 backend: one 256-bit register of 4 doubles.  vmulpd/vaddpd/vsubpd
/// are exactly-rounded IEEE ops, vandpd clears the sign bit for abs, and
/// vcmppd with ordered predicates matches the scalar comparisons
/// (operands are never NaN in the kernel's arithmetic domain).
struct Avx2Batch {
  static constexpr std::size_t kWidth = kLanes;
  __m256d v;

  [[nodiscard]] static Avx2Batch load(const double* p) {
    return {_mm256_loadu_pd(p)};
  }
  [[nodiscard]] static Avx2Batch broadcast(double x) {
    return {_mm256_set1_pd(x)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  [[nodiscard]] friend Avx2Batch operator+(Avx2Batch a, Avx2Batch b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  [[nodiscard]] friend Avx2Batch operator-(Avx2Batch a, Avx2Batch b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  [[nodiscard]] friend Avx2Batch operator*(Avx2Batch a, Avx2Batch b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }

  [[nodiscard]] friend Avx2Batch operator/(Avx2Batch a, Avx2Batch b) {
    return {_mm256_div_pd(a.v, b.v)};
  }
  [[nodiscard]] static Avx2Batch sqrt(Avx2Batch a) { return {_mm256_sqrt_pd(a.v)}; }

  [[nodiscard]] static Avx2Batch abs(Avx2Batch a) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, a.v)};
  }
  [[nodiscard]] static Avx2Batch neg(Avx2Batch a) {
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  /// std::min(a, b) = b < a ? b : a = vminpd(b, a), and std::max(a, b) =
  /// a < b ? b : a = vmaxpd(b, a) (see the contract above).
  [[nodiscard]] static Avx2Batch min(Avx2Batch a, Avx2Batch b) {
    return {_mm256_min_pd(b.v, a.v)};
  }
  [[nodiscard]] static Avx2Batch max(Avx2Batch a, Avx2Batch b) {
    return {_mm256_max_pd(b.v, a.v)};
  }
  [[nodiscard]] static Avx2Batch trunc(Avx2Batch a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC)};
  }
  /// Stores the lanes as int32 (vcvttpd2dq; the lanes hold integers).
  static void store_i32(std::int32_t* p, Avx2Batch a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(a.v));
  }
  /// Lane k = base[idx[k] * kStride] (vgatherdpd; idx[k] * kStride < 2^31).
  /// The masked form with a zero source: GCC's unmasked intrinsic reads
  /// an undefined register and warns.
  template <std::size_t kStride>
  [[nodiscard]] static Avx2Batch gather(const double* base, const std::uint32_t* idx) {
    const __m128i i = _mm_mullo_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
                                      _mm_set1_epi32(static_cast<int>(kStride)));
    const __m256d zero = _mm256_setzero_pd();
    return {_mm256_mask_i32gather_pd(zero, base, i, _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8)};
  }
  /// Mask of the lanes whose bit pattern, masked by `mask`, is `value`.
  [[nodiscard]] static Avx2Batch bits_eq(Avx2Batch a, std::uint64_t mask, std::uint64_t value) {
    const __m256i x = _mm256_and_si256(_mm256_castpd_si256(a.v),
                                       _mm256_set1_epi64x(static_cast<long long>(mask)));
    return {_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(x, _mm256_set1_epi64x(static_cast<long long>(value))))};
  }

  /// Round to nearest integer, halves to even (vroundpd).  std::round,
  /// which the scalar oracle's torus unwrap uses, rounds halves away from
  /// zero instead; callers may only use round_nearest where the tie
  /// difference is erased downstream, as in the torus unwrap of
  /// grid_eval_kernel.hpp, whose boundary fixups map both tie results to
  /// the same value.
  [[nodiscard]] static Avx2Batch round_nearest(Avx2Batch a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }

  [[nodiscard]] static Avx2Batch cmp_le(Avx2Batch a, Avx2Batch b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  [[nodiscard]] static Avx2Batch cmp_lt(Avx2Batch a, Avx2Batch b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  [[nodiscard]] static Avx2Batch cmp_ge(Avx2Batch a, Avx2Batch b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  [[nodiscard]] static Avx2Batch cmp_gt(Avx2Batch a, Avx2Batch b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  [[nodiscard]] static Avx2Batch cmp_eq(Avx2Batch a, Avx2Batch b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
  }

  [[nodiscard]] static Avx2Batch bit_and(Avx2Batch a, Avx2Batch b) {
    return {_mm256_and_pd(a.v, b.v)};
  }
  [[nodiscard]] static Avx2Batch bit_or(Avx2Batch a, Avx2Batch b) {
    return {_mm256_or_pd(a.v, b.v)};
  }
  [[nodiscard]] static Avx2Batch bit_andnot(Avx2Batch a, Avx2Batch b) {
    return {_mm256_andnot_pd(b.v, a.v)};  // intrinsic computes ~first & second
  }

  [[nodiscard]] static Avx2Batch select(Avx2Batch mask, Avx2Batch a, Avx2Batch b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }

  [[nodiscard]] int movemask() const { return _mm256_movemask_pd(v); }

  /// Left-pack via one 8x32 permute: double lane k is the 32-bit lane pair
  /// (2k, 2k+1), so a 16-entry table of float-lane permutations compresses
  /// the whole register in two instructions — no serial per-lane loop.
  /// Writes all 32 bytes of dst (garbage beyond the popcount).
  static std::size_t compress_store(double* dst, Avx2Batch a, int mask) {
    alignas(32) static constexpr std::uint32_t kPack[16][8] = {
        {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
        {2, 3, 0, 1, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
        {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
        {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
        {6, 7, 0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 2, 3, 4, 5},
        {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
        {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3},
        {2, 3, 4, 5, 6, 7, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7}};
    const __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPack[static_cast<unsigned>(mask)]));
    const __m256 packed = _mm256_permutevar8x32_ps(_mm256_castpd_ps(a.v), idx);
    _mm256_storeu_pd(dst, _mm256_castps_pd(packed));
    return static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(mask)));
  }

  /// Left-pack the lane indices base + k of the lanes set in `mask`.
  /// Writes all 4 entries of dst (garbage beyond the popcount).
  static void compress_index(std::uint32_t* dst, std::uint32_t base, int mask) {
    const __m128i lanes = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kPackLanes[static_cast<unsigned>(mask)]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_add_epi32(lanes, _mm_set1_epi32(static_cast<int>(base))));
  }
};
#endif  // __AVX2__

#if defined(__aarch64__)
/// NEON backend: two 128-bit halves.  vadd/vsub/vmulq_f64 are the plain
/// (non-fused) IEEE ops; comparisons return uint64x2_t lane masks.
struct NeonBatch {
  static constexpr std::size_t kWidth = kLanes;
  float64x2_t lo, hi;

  [[nodiscard]] static NeonBatch load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  [[nodiscard]] static NeonBatch broadcast(double x) {
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  void store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }

  [[nodiscard]] friend NeonBatch operator+(NeonBatch a, NeonBatch b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] friend NeonBatch operator-(NeonBatch a, NeonBatch b) {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] friend NeonBatch operator*(NeonBatch a, NeonBatch b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }

  [[nodiscard]] friend NeonBatch operator/(NeonBatch a, NeonBatch b) {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] static NeonBatch sqrt(NeonBatch a) {
    return {vsqrtq_f64(a.lo), vsqrtq_f64(a.hi)};
  }

  [[nodiscard]] static NeonBatch abs(NeonBatch a) {
    return {vabsq_f64(a.lo), vabsq_f64(a.hi)};
  }
  [[nodiscard]] static NeonBatch neg(NeonBatch a) {
    return {vnegq_f64(a.lo), vnegq_f64(a.hi)};
  }
  /// std::min(a, b) = b < a ? b : a; std::max(a, b) = a < b ? b : a.
  [[nodiscard]] static NeonBatch min(NeonBatch a, NeonBatch b) {
    return {vbslq_f64(vcltq_f64(b.lo, a.lo), b.lo, a.lo),
            vbslq_f64(vcltq_f64(b.hi, a.hi), b.hi, a.hi)};
  }
  [[nodiscard]] static NeonBatch max(NeonBatch a, NeonBatch b) {
    return {vbslq_f64(vcltq_f64(a.lo, b.lo), b.lo, a.lo),
            vbslq_f64(vcltq_f64(a.hi, b.hi), b.hi, a.hi)};
  }
  [[nodiscard]] static NeonBatch trunc(NeonBatch a) {
    return {vrndq_f64(a.lo), vrndq_f64(a.hi)};
  }
  /// Stores the lanes as int32 (fcvtzs, then a narrowing move; the lanes
  /// hold integers).
  static void store_i32(std::int32_t* p, NeonBatch a) {
    vst1q_s32(p, vcombine_s32(vmovn_s64(vcvtq_s64_f64(a.lo)),
                              vmovn_s64(vcvtq_s64_f64(a.hi))));
  }
  /// Lane k = base[idx[k] * kStride].
  template <std::size_t kStride>
  [[nodiscard]] static NeonBatch gather(const double* base, const std::uint32_t* idx) {
    const double buf[kWidth] = {base[std::size_t{idx[0]} * kStride],
                                base[std::size_t{idx[1]} * kStride],
                                base[std::size_t{idx[2]} * kStride],
                                base[std::size_t{idx[3]} * kStride]};
    return load(buf);
  }

  /// Round to nearest integer, halves to even (frintn; see the tie caveat
  /// on Avx2Batch::round_nearest).
  [[nodiscard]] static NeonBatch round_nearest(NeonBatch a) {
    return {vrndnq_f64(a.lo), vrndnq_f64(a.hi)};
  }

 private:
  [[nodiscard]] static NeonBatch from_masks(uint64x2_t mlo, uint64x2_t mhi) {
    return {vreinterpretq_f64_u64(mlo), vreinterpretq_f64_u64(mhi)};
  }
  [[nodiscard]] static uint64x2_t mask_lo(NeonBatch a) {
    return vreinterpretq_u64_f64(a.lo);
  }
  [[nodiscard]] static uint64x2_t mask_hi(NeonBatch a) {
    return vreinterpretq_u64_f64(a.hi);
  }

 public:
  [[nodiscard]] static NeonBatch cmp_le(NeonBatch a, NeonBatch b) {
    return from_masks(vcleq_f64(a.lo, b.lo), vcleq_f64(a.hi, b.hi));
  }
  [[nodiscard]] static NeonBatch cmp_lt(NeonBatch a, NeonBatch b) {
    return from_masks(vcltq_f64(a.lo, b.lo), vcltq_f64(a.hi, b.hi));
  }
  [[nodiscard]] static NeonBatch cmp_ge(NeonBatch a, NeonBatch b) {
    return from_masks(vcgeq_f64(a.lo, b.lo), vcgeq_f64(a.hi, b.hi));
  }
  [[nodiscard]] static NeonBatch cmp_gt(NeonBatch a, NeonBatch b) {
    return from_masks(vcgtq_f64(a.lo, b.lo), vcgtq_f64(a.hi, b.hi));
  }
  [[nodiscard]] static NeonBatch cmp_eq(NeonBatch a, NeonBatch b) {
    return from_masks(vceqq_f64(a.lo, b.lo), vceqq_f64(a.hi, b.hi));
  }

  [[nodiscard]] static NeonBatch bit_and(NeonBatch a, NeonBatch b) {
    return from_masks(vandq_u64(mask_lo(a), mask_lo(b)),
                      vandq_u64(mask_hi(a), mask_hi(b)));
  }
  [[nodiscard]] static NeonBatch bit_or(NeonBatch a, NeonBatch b) {
    return from_masks(vorrq_u64(mask_lo(a), mask_lo(b)),
                      vorrq_u64(mask_hi(a), mask_hi(b)));
  }
  /// a & ~b (note vbicq computes first & ~second).
  [[nodiscard]] static NeonBatch bit_andnot(NeonBatch a, NeonBatch b) {
    return from_masks(vbicq_u64(mask_lo(a), mask_lo(b)),
                      vbicq_u64(mask_hi(a), mask_hi(b)));
  }

  [[nodiscard]] static NeonBatch select(NeonBatch mask, NeonBatch a, NeonBatch b) {
    return {vbslq_f64(mask_lo(mask), a.lo, b.lo),
            vbslq_f64(mask_hi(mask), a.hi, b.hi)};
  }

  /// Mask of the lanes whose bit pattern, masked by `mask`, is `value`.
  [[nodiscard]] static NeonBatch bits_eq(NeonBatch a, std::uint64_t mask, std::uint64_t value) {
    const uint64x2_t m = vdupq_n_u64(mask);
    const uint64x2_t v = vdupq_n_u64(value);
    return from_masks(vceqq_u64(vandq_u64(mask_lo(a), m), v),
                      vceqq_u64(vandq_u64(mask_hi(a), m), v));
  }

  [[nodiscard]] int movemask() const {
    const uint64x2_t l = vshrq_n_u64(mask_lo(*this), 63);
    const uint64x2_t h = vshrq_n_u64(mask_hi(*this), 63);
    return static_cast<int>(vgetq_lane_u64(l, 0)) |
           (static_cast<int>(vgetq_lane_u64(l, 1)) << 1) |
           (static_cast<int>(vgetq_lane_u64(h, 0)) << 2) |
           (static_cast<int>(vgetq_lane_u64(h, 1)) << 3);
  }

  /// Left-pack the lanes selected by `mask` to dst[0..popcount) and return
  /// the popcount.  NEON has no cross-register double permute, so spill
  /// and pack scalar-wise.  May write all kWidth slots of dst (garbage
  /// beyond the popcount).
  static std::size_t compress_store(double* dst, NeonBatch a, int mask) {
    double buf[kWidth];
    a.store(buf);
    std::size_t n = 0;
    for (std::size_t i = 0; i < kWidth; ++i) {
      dst[n] = buf[i];
      n += static_cast<std::size_t>((mask >> i) & 1);
    }
    return n;
  }

  /// Left-pack the lane indices base + k of the lanes set in `mask`.
  /// Writes all 4 entries of dst (garbage beyond the popcount).
  static void compress_index(std::uint32_t* dst, std::uint32_t base, int mask) {
    vst1q_u32(dst, vaddq_u32(vld1q_u32(kPackLanes[static_cast<unsigned>(mask)]),
                             vdupq_n_u32(base)));
  }
};
#endif  // __aarch64__

}  // namespace fvc::core::simd
