/// \file simd.hpp
/// \brief Portable fixed-width batch abstraction: 4 double lanes.
///
/// The batch kernels of grid_eval_kernel.hpp (the classify, and the row
/// sweep's band compaction, interval pass and piece stage) are written once as
/// templates over a batch type with the static interface below, and
/// instantiated in their own translation unit:
///
///   Avx2Batch     __m256d; only defined when the including TU is
///                 compiled with AVX2 (-mavx2), i.e. inside
///                 grid_eval_kernel_avx2.cpp
///
/// A CPU without AVX2, or a build for another architecture (AArch64
/// included), runs the scalar per-entry loop instead, with the same bits.
///
/// Bit-identity contract: every arithmetic op maps to exactly one IEEE-754
/// binary64 operation per lane (add/sub/mul, round-to-nearest-even), `abs`
/// clears the sign bit, and comparisons are the ordered IEEE predicates —
/// so a lane computes bit-for-bit what the scalar oracle computes for the
/// same candidate.  Nothing here may introduce FMA contraction (the
/// backend uses distinct mul and add operations, and kernel TUs are built
/// with -ffp-contract=off); that would change rounding and break the
/// engine's differential tests.  The row sweep's ops keep the contract:
///
///   div, sqrt   the correctly rounded IEEE quotient and root (vdivpd and
///               vsqrtpd), which is what scalar `/` and
///               `std::sqrt` return.  A negative root gives the default
///               NaN either way, and the vector op has no errno path.
///   neg         flips the sign bit, as scalar unary minus does (0 - x
///               would turn -0 into +0).
///   min, max    `std::min(a, b)` = `b < a ? b : a` and `std::max(a, b)` =
///               `a < b ? b : a` exactly: a select on a less-than with the
///               same operand order, so a tie (+0 against -0 too) returns
///               the same operand.  On AVX2 that is vminpd(b, a) and
///               vmaxpd(b, a), which return their first operand when it
///               compares less (greater), else the second.  (An ISA whose
///               min and max order zeros must keep the select.)
///   floor, ceil round toward -inf and +inf: for |x| < 2^62 the values
///               of grid_eval.cpp's floor_to_int and ceil_to_int.
///   trunc       rounds toward zero.  For |x| < 2^31 that is the value of
///               `static_cast<std::int32_t>(x)`, up to the sign of a zero,
///               which neither a comparison nor the int32 store sees.
///   store_i32   converts lanes holding integers of magnitude below 2^31
///               to int32 (exactly) and stores them.
///   gather      plain loads from strided slots, no arithmetic; the
///               `_at` forms take their indices from integer-valued lanes,
///               and load_pair reads two doubles at each of four addresses.
///   load_i32    converts int32 to double, which is exact.
///   bits_eq     tests integer bit patterns stored in double lanes with an
///               integer compare, so the patterns may be denormals.
///
/// Masks are represented as batches whose lanes are all-ones / all-zero
/// bit patterns (the native form of AVX2).  All-ones is a NaN as a double,
/// so masks must only meet bitwise ops — the kernel keeps arithmetic and
/// mask domains strictly separate.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
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
  /// Round toward -inf and +inf (vroundpd).
  [[nodiscard]] static Avx2Batch floor(Avx2Batch a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
  }
  [[nodiscard]] static Avx2Batch ceil(Avx2Batch a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC)};
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
  /// Lane k = base[idx[k]], for lanes holding integers in [0, 2^31)
  /// (vcvttpd2dq, then vgatherdpd).
  [[nodiscard]] static Avx2Batch gather_at(const double* base, Avx2Batch idx) {
    const __m256d zero = _mm256_setzero_pd();
    return {_mm256_mask_i32gather_pd(zero, base, _mm256_cvttpd_epi32(idx.v),
                                     _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ), 8)};
  }
  /// Lane k = base[idx[k]] as a double, for lanes holding integers in
  /// [0, 2^31) and table entries below 2^31 (vpgatherdd, then vcvtdq2pd).
  [[nodiscard]] static Avx2Batch gather_u32_at(const std::uint32_t* base, Avx2Batch idx) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i g = _mm_mask_i32gather_epi32(zero, reinterpret_cast<const int*>(base),
                                               _mm256_cvttpd_epi32(idx.v),
                                               _mm_cmpeq_epi32(zero, zero), 4);
    return {_mm256_cvtepi32_pd(g)};
  }
  /// Lane k of lo = at[k][j] and of hi = at[k][j + 1]: two lanes' pairs per
  /// register (vinsertf128), then one unpack per column.  Cheaper than two
  /// hardware gathers where those run slowly.
  static void load_pair(const double* const (&at)[4], std::size_t j, Avx2Batch& lo,
                        Avx2Batch& hi) {
    const __m256d a = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(at[0] + j)),
                                           _mm_loadu_pd(at[2] + j), 1);
    const __m256d b = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(at[1] + j)),
                                           _mm_loadu_pd(at[3] + j), 1);
    lo = {_mm256_unpacklo_pd(a, b)};
    hi = {_mm256_unpackhi_pd(a, b)};
  }
  /// Loads 4 int32 as doubles (vcvtdq2pd; exact).
  [[nodiscard]] static Avx2Batch load_i32(const std::int32_t* p) {
    return {_mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
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
  /// The largest lane (lanes are not NaN).
  [[nodiscard]] double max_lane() const {
    const __m128d m = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
  }

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

  /// Left-pack the lanes set in `mask`, which hold integers of magnitude
  /// below 2^31, as int32 (vcvttpd2dq, then one vpermilps by kPackLanes).
  /// Writes all 4 entries of dst (garbage beyond the popcount).
  static void compress_store_i32(std::int32_t* dst, Avx2Batch a, int mask) {
    const __m128i lanes = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kPackLanes[static_cast<unsigned>(mask)]));
    const __m128 packed = _mm_permutevar_ps(_mm_castsi128_ps(_mm256_cvttpd_epi32(a.v)), lanes);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_castps_si128(packed));
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

}  // namespace fvc::core::simd
