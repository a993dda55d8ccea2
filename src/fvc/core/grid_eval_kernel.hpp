/// \file grid_eval_kernel.hpp
/// \brief The batch kernels behind GridEvalEngine, written once as
/// templates over a batch type of simd.hpp.
///
/// Two kernels live here, and one kernel choice (cpu_features.hpp)
/// dispatches both:
///
///   classify   The engine stores each cell's candidates as
///              structure-of-arrays spans (CandSpans).  classify_batches
///              processes full lane groups: it computes the (torus-wrapped)
///              displacement, the radius test and the trig-free
///              field-of-view classifier with exactly the IEEE operation
///              sequence of the scalar oracle, compacts the displacements
///              of cleanly-covered lanes into xs/ys for the caller's
///              direction stage (the scalar atan2 loop, or the
///              sector-occupancy lookup of the boolean scans), and reports
///              *special* lanes — exact-arithmetic band hits and
///              zero-distance hits — back to the caller, which reruns them
///              through the scalar per-entry path (so fallback counting and
///              classification stay bit-identical to the scalar kernel).
///              The remainder tail (count % 4 != 0) never reaches this
///              kernel; the caller handles it with the same scalar
///              per-entry path.
///   row sweep  The two straight-line stages of GridEvalEngine::sweep_row
///              (docs/ARCHITECTURE.md, "Row sweep"): the band compaction
///              (band_scan_batches: the strip walk's exact y prune, left-
///              packing the band's cameras into the batch) and the interval
///              pass (sweep_intervals_batches: each batched camera's x-sets
///              on the row, their columns, the first core sub-interval's
///              pseudo-angles and the crossing margin).  The scalar
///              definitions are band_scan_scalar and sweep_intervals_scalar
///              in grid_eval.cpp, and every lane computes bit for bit what
///              they compute: the same IEEE operations in the same order,
///              table lookups turned into selects, and int32 column ends
///              computed exactly in double lanes.
///
/// The vector instantiation lives in its own translation unit
/// (grid_eval_kernel_avx2.cpp) so ISA-specific code can be
/// compiled with ISA-specific flags without leaking wide instructions
/// into baseline translation units: the only symbols such a TU exports
/// are its non-inline entry points, and they are called only after
/// runtime dispatch (cpu_features.hpp) has verified the CPU.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace fvc::core {
enum class KernelVariant : std::uint8_t;  // cpu_features.hpp
}  // namespace fvc::core

namespace fvc::core::detail {

/// Structure-of-arrays candidate spans of one engine cell, offset so
/// index 0 is the cell's first entry.
struct CandSpans {
  const double* sx;    ///< camera x
  const double* sy;    ///< camera y
  const double* r2;    ///< sensing radius squared
  const double* cu;    ///< cos(orientation)
  const double* su;    ///< sin(orientation)
  const double* q;     ///< cos(fov/2) * |cos(fov/2)|
  const double* omni;  ///< all-bits-set (as double) when fov/2 >= pi, else +0.0
};

struct ClassifyResult {
  std::size_t covered = 0;  ///< displacements compacted into xs/ys
  std::size_t special = 0;  ///< lane indices written to `special`
};

/// Classify `count` candidates (count % 4 == 0).  Appends covered
/// displacements to xs[0..covered), ys[0..covered) and writes the indices
/// of lanes that need the scalar per-entry path into special[0..special).
/// xs/ys/special must each have room for `count` entries.
using ClassifyFn = ClassifyResult (*)(const CandSpans& c, std::size_t count,
                                      double px, double py, bool torus,
                                      double* xs, double* ys,
                                      std::uint32_t* special);

#if defined(FVC_KERNEL_AVX2)
ClassifyResult classify_avx2(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special);
#endif

// ---- row sweep -------------------------------------------------------------

/// The interval pass's margins and degeneracy limits (docs/ARCHITECTURE.md,
/// "Row sweep"; grid_eval.cpp keeps the ones only its scalar stages use).
/// Each margin sits orders of magnitude above the rounding it absorbs.
///
/// Chord margin, relative to r^2: the kernel's n2 is within a few ulps of
/// the real squared distance.
inline constexpr double kChordMargin = 1e-9;
/// Absolute x slack: the kernel's dx is within 3e-16 of the real
/// displacement (its own subtraction and the grid point's rounding), and
/// mapping an x bound to a column adds under 6e-16 more.
inline constexpr double kSweepSlackX = 4e-15;
/// Crossing margin (rad of viewed direction) around a sector-boundary
/// crossing: keeps the pseudo-angle at least 5e-9, five bands, away.
inline constexpr double kCrossMargin = 1e-8;
/// Degenerate cameras verify their whole outer chord: |dy| below
/// kMinSweepDy, or an outer half-chord of kMaxHalfChord or more (on the
/// torus, where x wraps at -+1/2, that verifies the whole row).
inline constexpr double kMinSweepDy = 1e-5;
inline constexpr double kMaxHalfChord = 0.49;
/// Cameras per batch of the sweep (the batch stays in L1), and the stride
/// of the batch's field blocks: a left-packing store writes up to three
/// lanes past the batch.
inline constexpr std::size_t kSweepBatch = 128;
inline constexpr std::size_t kBatchStride = kSweepBatch + 4;

/// A camera's row-sweep kind (the kConstKind constant): the clip state of
/// each wedge edge ray, two bits each (kEdgeUpper: its half-line in x is an
/// upper bound; kEdgeLower: a lower one; kEdgeNone: no bound), for the
/// edges e- and e+ (m, p) of the core (c) and outer (o) wedges, at shifts
/// kShiftCm..kShiftOp; and flags.  An omnidirectional camera has no bound
/// on any edge, nor does a degenerate one (an edge ray within kMinEdgeY of
/// horizontal), which also sets kKindNoCore, as does an empty core wedge,
/// so the whole outer chord is verified.  A reflex wedge's edges bound its
/// blind cone (kKindCoreReflex, kKindOuterReflex), and an outer wedge that
/// excludes no direction has no bound.
enum : unsigned {
  kEdgeUpper = 0,
  kEdgeLower = 1,
  kEdgeNone = 2,
  kShiftCm = 0,
  kShiftCp = 2,
  kShiftOm = 4,
  kShiftOp = 6,
  kKindNoCore = 1U << 8,
  kKindCoreReflex = 1U << 9,
  kKindOuterReflex = 1U << 10,
  kKindUnbounded = (kEdgeNone << kShiftCm) | (kEdgeNone << kShiftCp) |
                   (kEdgeNone << kShiftOm) | (kEdgeNone << kShiftOp),
};

/// The sweep's per-camera constants, one record of kConstStride doubles per
/// pool slot (so the interval pass gathers a camera's constants from
/// nearby addresses): sx * cols - 1/2, the core and outer wedges' edge
/// slopes (an edge's x end on a row at displacement dy is slope * dy), and
/// the kind bits as the bit pattern of the double.
enum : std::size_t {
  kConstJ0,
  kConstCm,
  kConstCp,
  kConstOm,
  kConstOp,
  kConstKind,
  kConstStride = 6
};

/// Fields of one sweep batch (`SweepBatch::fields`, kBatchStride doubles
/// each): the band compaction's dy and r^2; then the interval pass's
/// pseudo-angles of the ends of part 0's first core sub-interval (see
/// `SweepIntervals` in grid_eval.cpp), the crossing margin's scale
/// 1e-8 / |dy|, the camera's column origin (so the piece pass reads no
/// per-camera record), and the x-sets the piece pass splits into parts
/// and sub-intervals (read for reflex wedges only).
enum : std::size_t {
  kBatchDy,
  kBatchR2,
  kBatchPaLo,
  kBatchPaHi,
  kBatchMuScale,
  kBatchJ0,
  kBatchLo0,
  kBatchHi0,
  kBatchLo1,
  kBatchHi1,
  kBatchCoreLo,
  kBatchCoreHi,
  kBatchBlindLo,
  kBatchBlindHi,
  kBatchFields
};
/// Integer fields of the batch (`SweepBatch::cols`, kBatchStride each):
/// part 0's outer columns, its first core sub-interval's (clipped to
/// them), and the flags.
enum : std::size_t { kColOuter0, kColOuter1, kColSub0, kColSub1, kColFlags, kColFields };
/// Batch flag bits (kColFlags).
enum : unsigned {
  kBatchCertify = 1U << 0,  ///< the core is certified (else verify the outer set)
  kBatchReflex = 1U << 1,   ///< a second outer part or a blind interval
};

/// One batch of the row sweep: the band compaction fills `slots` and the
/// dy and r^2 fields; the interval pass reads them with the per-camera
/// constants and writes the other fields and the integer fields.
struct SweepBatch {
  const std::uint32_t* slots;  ///< pool slots
  const double* consts;        ///< per-camera constants, by pool slot
  double* fields;              ///< kBatchFields blocks of kBatchStride
  std::int32_t* cols;          ///< kColFields blocks of kBatchStride
  std::int32_t side;           ///< columns per row
  bool torus;
};

/// The interval pass over batch entries [0, count) (count <= kSweepBatch).
/// Writes only entries [0, count).
using SweepIntervalsFn = void (*)(const SweepBatch& b, std::size_t count);

/// Where a band scan stopped: the pool slot after the last camera it
/// read, and the cameras it appended.
struct BandScan {
  std::uint32_t next = 0;
  std::uint32_t added = 0;
};

/// The strip walk's exact y prune over pool slots [begin, end) at row y:
/// each camera with dy = y - sy (torus-unwrapped) and fl(dy^2) <= r^2 is
/// appended to slots, dy, r2_out, in slot order, and the scan stops right
/// after the `cap`-th (cap >= 1) appended camera.  May write 3 entries
/// past the last appended one.
using BandScanFn = BandScan (*)(const double* sy, const double* r2, std::uint32_t begin,
                                std::uint32_t end, double y, bool torus, std::uint32_t cap,
                                std::uint32_t* slots, double* dy, double* r2_out);

/// The scalar definitions (grid_eval.cpp), which every vector lane matches.
void sweep_intervals_scalar(const SweepBatch& b, std::size_t count);
BandScan band_scan_scalar(const double* sy, const double* r2, std::uint32_t begin,
                          std::uint32_t end, double y, bool torus, std::uint32_t cap,
                          std::uint32_t* slots, double* dy, double* r2_out);
#if defined(FVC_KERNEL_AVX2)
void sweep_intervals_avx2(const SweepBatch& b, std::size_t count);
BandScan band_scan_avx2(const double* sy, const double* r2, std::uint32_t begin,
                        std::uint32_t end, double y, bool torus, std::uint32_t cap,
                        std::uint32_t* slots, double* dy, double* r2_out);
#endif

/// The entry points of a kernel variant (grid_eval.cpp): its classify
/// (none for kScalar) and its row-sweep stages (the scalar definitions for
/// kScalar).
struct Kernels;  // grid_eval.hpp
[[nodiscard]] Kernels kernels_for(KernelVariant v);

/// The template the per-backend TUs instantiate.  Self-contained: only
/// batch ops and raw pointers, so an ISA-specific instantiation emits no
/// shared inline symbols a baseline TU could accidentally link against.
///
/// Per lane this is grid_eval.cpp's `classify_scalar` verbatim:
///   dx = p.x - sx; [torus: dx -= round(dx); half-torus boundary fixup]
///   n2 = dx*dx + dy*dy;   dot = dx*cu + dy*su
///   lhs = dot*|dot|;      diff = lhs - q*n2;    band = 1e-9*n2
///   in_radius = n2 <= r2
///   covered   = in_radius & (omni | diff > band)
///   special   = (in_radius & ~omni & |diff| <= band) | (covered & n2 == 0)
/// Covered non-special lanes are compacted; special lanes go back to the
/// scalar path.  Same ops, same order, same rounding => bit identity.
///
/// The torus unwrap `dx -= round(dx)` + fixup is `geom::wrap_delta`
/// bit-for-bit: positions lie in [0, 1), so dx in (-1, 1) and round(dx) in
/// {-1, 0, +1}, making the subtraction exact (Sterbenz).  The backends'
/// round-to-nearest tie rules differ from std::round only at dx = +-0.5,
/// where both rules land on a remainder the d >= 0.5 fixup normalizes to
/// exactly -0.5 — so every backend agrees with the scalar oracle on every
/// input despite the tie difference.  wrap_delta's second fixup
/// (d < -0.5 => d += 1) is omitted: any round-to-nearest remainder lies in
/// [-0.5, +0.5], so that branch can never fire.
template <class B>
inline ClassifyResult classify_batches(const CandSpans& c, std::size_t count,
                                       double px, double py, bool torus,
                                       double* xs, double* ys,
                                       std::uint32_t* special) {
  static_assert(B::kWidth == 4, "classify kernels are 4-wide");
  const B vpx = B::broadcast(px);
  const B vpy = B::broadcast(py);
  const B vhalf = B::broadcast(0.5);
  const B vone = B::broadcast(1.0);
  const B veps = B::broadcast(1e-9);
  const B vzero = B::broadcast(0.0);
  ClassifyResult res;
  auto do_batch = [&](std::size_t i) {
    B dx = vpx - B::load(c.sx + i);
    B dy = vpy - B::load(c.sy + i);
    if (torus) {
      dx = dx - B::round_nearest(dx);
      dx = B::select(B::cmp_ge(dx, vhalf), dx - vone, dx);
      dy = dy - B::round_nearest(dy);
      dy = B::select(B::cmp_ge(dy, vhalf), dy - vone, dy);
    }
    const B n2 = dx * dx + dy * dy;
    const B dot = dx * B::load(c.cu + i) + dy * B::load(c.su + i);
    const B lhs = dot * B::abs(dot);
    const B diff = lhs - B::load(c.q + i) * n2;
    const B band = veps * n2;
    const B in_radius = B::cmp_le(n2, B::load(c.r2 + i));
    const B omni = B::load(c.omni + i);
    const B covered = B::bit_and(in_radius, B::bit_or(omni, B::cmp_gt(diff, band)));
    const B band_hit = B::bit_and(B::bit_andnot(in_radius, omni),
                                  B::cmp_le(B::abs(diff), band));
    const B is_special =
        B::bit_or(band_hit, B::bit_and(covered, B::cmp_eq(n2, vzero)));
    const int special_m = is_special.movemask();
    int compact_m = covered.movemask() & ~special_m;
    if (special_m != 0) [[unlikely]] {
      for (std::size_t lane = 0; lane < B::kWidth; ++lane) {
        if ((special_m >> lane) & 1) {
          special[res.special++] = static_cast<std::uint32_t>(i + lane);
        }
      }
    }
    // Unconditional left-pack (a batch with an empty mask just re-writes
    // garbage that the next batch overwrites): no branch to mispredict,
    // no serial per-lane dependency on the output cursor.  The caller's
    // xs/ys capacity (>= count) covers the full-width writes because
    // res.covered <= i at the top of every iteration.
    const std::size_t packed = B::compress_store(xs + res.covered, dx, compact_m);
    B::compress_store(ys + res.covered, dy, compact_m);
    res.covered += packed;
  };
  // Two batches per trip: identical op sequence and batch order (so results
  // stay bit-identical), but the second batch's loads and arithmetic can
  // overlap the first's mask/compaction chain.
  std::size_t i = 0;
  for (; i + 2 * B::kWidth <= count; i += 2 * B::kWidth) {
    do_batch(i);
    do_batch(i + B::kWidth);
  }
  for (; i < count; i += B::kWidth) {
    do_batch(i);
  }
  return res;
}

/// The band compaction of `band_scan_scalar`, 4 cameras at a time.  Per
/// lane: dy = y - sy, on the torus unwrapped as in classify_batches
/// (round_nearest and the >= 0.5 fixup equal band_dy's round_half_away
/// there, since y and sy lie in [0, 1)), and the lane is kept when
/// dy * dy <= r2.  The kept lanes' dy, r2 and slots are left-packed.  A lane
/// group holding the cap-th kept camera keeps only the lanes up to it and
/// stops there, so a checkpoint fires after the same camera as the scalar
/// loop's.  A group running past `end` reads a padded copy.
template <class B>
inline BandScan band_scan_batches(const double* sy, const double* r2, std::uint32_t begin,
                                  std::uint32_t end, double y, bool torus, std::uint32_t cap,
                                  std::uint32_t* slots, double* dy_out, double* r2_out) {
  static_assert(B::kWidth == 4, "sweep kernels are 4-wide");
  const B vy = B::broadcast(y);
  const B vhalf = B::broadcast(0.5);
  const B vone = B::broadcast(1.0);
  std::uint32_t added = 0;
  // One lane group at slot e; true when it appended the cap-th camera.
  auto group = [&](const double* gsy, const double* gr2, std::uint32_t e, int valid,
                   std::uint32_t& next) {
    B dy = vy - B::load(gsy);
    if (torus) {
      dy = dy - B::round_nearest(dy);
      dy = B::select(B::cmp_ge(dy, vhalf), dy - vone, dy);
    }
    const B vr2 = B::load(gr2);
    int m = B::cmp_le(dy * dy, vr2).movemask() & valid;
    const auto room = static_cast<int>(cap - added);
    const bool full = std::popcount(static_cast<unsigned>(m)) >= room;
    if (full) [[unlikely]] {
      while (std::popcount(static_cast<unsigned>(m)) > room) {
        m &= ~(1 << (31 - std::countl_zero(static_cast<unsigned>(m))));
      }
      next = e + static_cast<std::uint32_t>(32 - std::countl_zero(static_cast<unsigned>(m)));
    }
    B::compress_store(dy_out + added, dy, m);
    B::compress_store(r2_out + added, vr2, m);
    B::compress_index(slots + added, e, m);
    added += static_cast<std::uint32_t>(std::popcount(static_cast<unsigned>(m)));
    return full;
  };
  std::uint32_t next = end;
  std::uint32_t e = begin;
  for (; end - e >= B::kWidth; e += B::kWidth) {
    if (group(sy + e, r2 + e, e, 0xF, next)) {
      return {next, added};
    }
  }
  if (e < end) {
    double tsy[B::kWidth] = {y, y, y, y};
    double tr2[B::kWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::uint32_t k = 0; k < end - e; ++k) {
      tsy[k] = sy[e + k];
      tr2[k] = r2[e + k];
    }
    group(tsy, tr2, e, (1 << (end - e)) - 1, next);
  }
  return {next, added};
}

/// The interval pass of `sweep_intervals_scalar` (grid_eval.cpp) on 4
/// cameras at a time: the same operations in the same order per lane, with
///   - the per-camera constants gathered by pool slot;
///   - the clip-table lookups (kClipLo/kClipHi there, indexed by an edge's
///     clip state with the row's `dead` bit or'ed in) as masks on the same
///     states: 0 or -+inf added to an edge's x end;
///   - the reflex branch computed on every lane and selected where it
///     applies;
///   - the column ends (lo32/hi32 there: truncate, step by the comparison,
///     clamp) computed on integer-valued doubles, exact since every value
///     stays far below 2^31, and converted once to int32 at the store.
/// A final partial group runs on a padded copy, so only [0, count) is
/// written.  The reflex x-sets (kBatchLo0..kBatchBlindHi) are defined on
/// the lanes flagged kBatchReflex only, as in the scalar pass; a full lane
/// group stores them on all its lanes when any lane needs them.
template <class B>
inline void sweep_intervals_batches(const SweepBatch& sb, std::size_t count) {
  static_assert(B::kWidth == 4, "sweep kernels are 4-wide");
  constexpr double kInfD = std::numeric_limits<double>::infinity();
  const B zero = B::broadcast(0.0);
  const B one = B::broadcast(1.0);
  const B inf = B::broadcast(kInfD);
  const B ninf = B::broadcast(-kInfD);
  const B chord_hi = B::broadcast(1.0 + kChordMargin);
  const B chord_lo = B::broadcast(1.0 - kChordMargin);
  const B slack = B::broadcast(kSweepSlackX);
  const B min_dy = B::broadcast(kMinSweepDy);
  const B max_half = B::broadcast(kMaxHalfChord);
  const B two_x = B::broadcast(2.0);
  const B four_x = B::broadcast(4.0);
  const B dead_bits = B::broadcast(std::bit_cast<double>(std::uint64_t{kKindUnbounded}));
  const B side = B::broadcast(static_cast<double>(sb.side));
  const B c_min = B::broadcast(sb.torus ? -2147483648.0 : 0.0);
  const B c_max = B::broadcast(sb.torus ? 2147483647.0 : static_cast<double>(sb.side - 1));
  const B row_last = B::broadcast(static_cast<double>(sb.side - 1));
  const B torus = B::cmp_gt(B::broadcast(sb.torus ? 1.0 : 0.0), zero);
  const B three = B::broadcast(3.0);
  const B minus_one = B::broadcast(-1.0);
  const B cross = B::broadcast(kCrossMargin);
  const double* const consts = sb.consts;
  // One lane group: slots, and field blocks f / c of stride st at lane b.
  auto group = [&](const std::uint32_t* slots, double* f, std::int32_t* c, std::size_t st,
                   std::size_t b) {
    const B dy = B::load(f + kBatchDy * st + b);
    const B r2 = B::load(f + kBatchR2 * st + b);
    const B j0 = B::template gather<kConstStride>(consts + kConstJ0, slots);
    const B kind = B::template gather<kConstStride>(consts + kConstKind, slots);
    const B dy2 = dy * dy;
    const B ho = B::sqrt(r2 * chord_hi - dy2) + slack;
    const B hc = B::sqrt(B::max(r2 * chord_lo - dy2, zero)) - slack;
    const B wide = B::cmp_ge(ho, max_half);
    const B live = B::bit_andnot(B::cmp_ge(B::abs(dy), min_dy), wide);
    const B certify = B::bit_and(live, B::bits_eq(kind, kKindNoCore, 0));
    const B lo_o = B::max(B::neg(ho), B::neg(two_x));
    const B hi_o = B::min(ho, two_x);
    // Each edge's x end plus its clip: 0 where its state (with `dead` or'ed
    // in on a row that is not live) bounds that side, else -inf as a lower
    // bound or +inf as an upper one.
    const B kind_row = B::bit_or(kind, B::bit_andnot(dead_bits, live));
    auto x_end = [&](std::size_t field) {
      return B::template gather<kConstStride>(consts + field, slots) * dy;
    };
    auto clip_lo = [&](unsigned shift) {
      return B::bit_andnot(ninf, B::bits_eq(kind_row, 3U << shift, kEdgeLower << shift));
    };
    auto clip_hi = [&](unsigned shift) {
      return B::bit_andnot(inf, B::bits_eq(kind_row, 3U << shift, kEdgeUpper << shift));
    };
    const B xom = x_end(kConstOm);
    const B xop = x_end(kConstOp);
    const B ol = B::max(xom + clip_lo(kShiftOm), xop + clip_lo(kShiftOp));
    const B oh = B::min(xom + clip_hi(kShiftOm), xop + clip_hi(kShiftOp));
    const B xcm = x_end(kConstCm);
    const B xcp = x_end(kConstCp);
    const B kl = B::max(xcm + clip_lo(kShiftCm), xcp + clip_lo(kShiftCp));
    const B kh = B::min(xcm + clip_hi(kShiftCm), xcp + clip_hi(kShiftCp));
    // Reflex wedges: a blind core interval, a second outer part.
    const B core_rx = B::bit_andnot(live, B::bits_eq(kind, kKindCoreReflex, 0));
    const B outer_rx = B::bit_andnot(live, B::bits_eq(kind, kKindOuterReflex, 0));
    const B blind = B::bit_and(core_rx, B::cmp_le(kl, kh));
    const B two = B::bit_and(outer_rx, B::cmp_le(ol, oh));
    const B c_lo = B::select(core_rx, B::neg(hc), B::max(B::neg(hc), kl));
    const B c_hi = B::select(core_rx, hc, B::min(hc, kh));
    const B bl = B::select(blind, kl, inf);
    const B lo0 = B::select(outer_rx, lo_o, B::max(lo_o, ol));
    const B hi0 = B::select(outer_rx, B::select(two, B::min(hi_o, ol), hi_o), B::min(hi_o, oh));
    const B s_lo = B::max(c_lo, lo0);
    const B s_hi = B::min(B::min(c_hi, hi0), bl);
    // The sub-interval's end pseudo-angles and the crossing margin's scale.
    const B ady = B::abs(dy);
    const B below = B::cmp_lt(dy, zero);
    const B pa_base = B::select(below, one, three);
    const B pa_sign = B::select(below, one, minus_one);
    (pa_base + pa_sign * (s_lo / (B::abs(s_lo) + ady))).store(f + kBatchPaLo * st + b);
    (pa_base + pa_sign * (s_hi / (B::abs(s_hi) + ady))).store(f + kBatchPaHi * st + b);
    (cross / ady).store(f + kBatchMuScale * st + b);
    j0.store(f + kBatchJ0 * st + b);
    // Columns.
    auto col_v = [&](B x) { return j0 + B::min(B::max(x, B::neg(four_x)), four_x) * side; };
    auto lo_col = [&](B x) {
      const B v = col_v(x);
      const B t = B::trunc(v);
      return B::max(t + B::bit_and(B::cmp_lt(t, v), one), c_min);
    };
    auto hi_col = [&](B x) {
      const B v = col_v(x);
      const B t = B::trunc(v);
      return B::min(t - B::bit_and(B::cmp_gt(t, v), one), c_max);
    };
    const B all_row = B::bit_and(torus, wide);
    const B oc0 = B::select(all_row, zero, lo_col(lo0));
    const B oc1 =
        B::select(all_row, row_last, B::select(B::cmp_gt(lo0, hi0), oc0 - one, hi_col(hi0)));
    const B sc0 = B::max(lo_col(s_lo), oc0);
    const B sc1 = B::select(B::cmp_gt(s_lo, s_hi), sc0 - one, B::min(hi_col(s_hi), oc1));
    const B reflex = B::bit_or(two, blind);
    const B flags = B::bit_and(certify, one) + B::bit_and(reflex, two_x);
    B::store_i32(c + kColOuter0 * st + b, oc0);
    B::store_i32(c + kColOuter1 * st + b, oc1);
    B::store_i32(c + kColSub0 * st + b, sc0);
    B::store_i32(c + kColSub1 * st + b, sc1);
    B::store_i32(c + kColFlags * st + b, flags);
    if (reflex.movemask() != 0) [[unlikely]] {
      lo0.store(f + kBatchLo0 * st + b);
      hi0.store(f + kBatchHi0 * st + b);
      B::select(two, B::max(lo_o, oh), inf).store(f + kBatchLo1 * st + b);
      B::select(two, hi_o, ninf).store(f + kBatchHi1 * st + b);
      c_lo.store(f + kBatchCoreLo * st + b);
      c_hi.store(f + kBatchCoreHi * st + b);
      bl.store(f + kBatchBlindLo * st + b);
      B::select(blind, kh, inf).store(f + kBatchBlindHi * st + b);
    }
  };
  const std::size_t full = count - count % B::kWidth;
  for (std::size_t b = 0; b < full; b += B::kWidth) {
    group(sb.slots + b, sb.fields, sb.cols, kBatchStride, b);
  }
  if (full < count) {
    // Pad with the first camera, so every gather reads a valid slot.
    constexpr std::size_t kW = B::kWidth;
    const std::size_t rest = count - full;
    std::uint32_t ts[kW];
    double tf[kBatchFields * kW];
    std::int32_t tc[kColFields * kW];
    for (std::size_t k = 0; k < kW; ++k) {
      const std::size_t from = k < rest ? full + k : 0;
      ts[k] = sb.slots[from];
      tf[kBatchDy * kW + k] = sb.fields[kBatchDy * kBatchStride + from];
      tf[kBatchR2 * kW + k] = sb.fields[kBatchR2 * kBatchStride + from];
    }
    group(ts, tf, tc, kW, 0);
    for (std::size_t k = 0; k < rest; ++k) {
      const bool reflex = (tc[kColFlags * kW + k] & kBatchReflex) != 0;
      for (std::size_t fld = kBatchPaLo; fld < (reflex ? kBatchFields : kBatchLo0); ++fld) {
        sb.fields[fld * kBatchStride + full + k] = tf[fld * kW + k];
      }
      for (std::size_t fld = 0; fld < kColFields; ++fld) {
        sb.cols[fld * kBatchStride + full + k] = tc[fld * kW + k];
      }
    }
  }
}

}  // namespace fvc::core::detail
