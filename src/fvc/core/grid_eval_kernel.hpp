/// \file grid_eval_kernel.hpp
/// \brief The vectorized classify kernel behind GridEvalEngine, written
/// once as a template over the batch backends of simd.hpp.
///
/// The engine stores each cell's candidates as structure-of-arrays spans
/// (CandSpans).  classify_batches processes full lane groups: it computes
/// the (torus-wrapped) displacement, the radius test and the trig-free
/// field-of-view classifier with exactly the IEEE operation sequence of
/// the scalar oracle, compacts the displacements of cleanly-covered lanes
/// into xs/ys for the caller's direction stage (the scalar atan2 loop, or
/// the sector-occupancy lookup of the boolean scans), and reports *special*
/// lanes — exact-arithmetic band hits and zero-distance hits — back to
/// the caller, which reruns them through the scalar per-entry path (so
/// fallback counting and classification stay bit-identical to the scalar
/// kernel).  The remainder tail (count % 4 != 0) never reaches this
/// kernel; the caller handles it with the same scalar per-entry path.
///
/// Each backend instantiation lives in its own translation unit
/// (grid_eval_kernel_{avx2,neon}.cpp) so ISA-specific code can be
/// compiled with ISA-specific flags without leaking wide instructions
/// into baseline translation units: the only symbols such a TU exports
/// are its non-inline classify_* entry points, and they are called only
/// after runtime dispatch (cpu_features.hpp) has verified the CPU.

#pragma once

#include <cstddef>
#include <cstdint>

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
#if defined(FVC_KERNEL_NEON)
ClassifyResult classify_neon(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special);
#endif

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

}  // namespace fvc::core::detail
