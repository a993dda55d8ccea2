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
///   row sweep  The three batch stages of GridEvalEngine::sweep_row
///              (docs/ARCHITECTURE.md, "Row sweep"): the band compaction
///              (band_scan_batches: the strip walk's exact y prune, left-
///              packing the band's cameras into the batch), the interval
///              pass (sweep_intervals_batches: each batched camera's x-sets
///              on the row, their columns, the first core sub-interval's
///              pseudo-angles and the crossing margin) and the piece stage
///              (sweep_pieces_batches: the skip test and the crossing walk,
///              left-packing each walked camera's certified pieces).  The
///              scalar definitions are band_scan_scalar,
///              sweep_intervals_scalar and sweep_pieces_scalar in
///              grid_eval.cpp, and every lane computes bit for bit what
///              they compute: the same IEEE operations in the same order,
///              table lookups turned into selects or gathers, and int32
///              column ends computed exactly in double lanes.  The scalar
///              kernel runs the first two definitions; it has no piece
///              stage (the sweep's scalar pass walks every camera with the
///              same walk), so sweep_pieces_scalar is the reference the
///              kernel tests hold the batch stage to.
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

/// A core end whose pseudo-angle lies at least this far inside its sector
/// interval's far boundary bounds its piece itself, with no crossing cut
/// there (five bands, as the crossing margin keeps); a core inside one
/// interval is then one piece.
inline constexpr double kFastBand = 5e-9;
/// The most sector intervals the piece stage walks for one camera (a
/// table's own bound, `SectorWalk::steps`, may be lower); a longer walk
/// takes the scalar pass.
inline constexpr std::size_t kMaxWalkSteps = 16;
/// Entries of a batch's piece buffer: kMaxWalkSteps pieces per camera, and
/// the three a left-packing store writes past the last.
inline constexpr std::size_t kPieceCap = kSweepBatch * kMaxWalkSteps + 4;

/// The sector table's lookup records: per bucket, the interval i holding
/// its start, bounds[i + 1], bounds[i] and bounds[i + 2] (4 past the last
/// interval), so one lane reads a bucket's record as two pairs, and a
/// direction past the bucket's first boundary needs no second lookup.
inline constexpr std::size_t kBucketRecord = 4;
/// Entries after each block of `SectorWalk::cot`, which a short walk reads
/// past its end (the piece stage reads up to kMaxWalkSteps + 2 per walk).
inline constexpr std::size_t kWalkPad = kMaxWalkSteps + 2;

/// The engine's sector table as the piece stage reads it
/// (`GridEvalEngine::sector_walk`).
struct SectorWalk {
  const double* bounds;          ///< boundary pseudo-angles, ascending, then 4
  const std::uint32_t* bucket;   ///< the interval at each lookup bucket's start
  const double* bucket_records;  ///< kBucketRecord doubles per bucket
  /// Crossing cotangents, by boundary b: a walk whose pseudo-angle rises
  /// along the row (dy < 0) reads cot[b], one whose pseudo-angle falls
  /// reads cot[fall + intervals - b], so each walk reads its boundaries at
  /// ascending addresses; each block is followed by kWalkPad zeros.
  const double* cot;
  double bucket_scale;  ///< buckets per pseudo-angle unit
  double bucket_last;   ///< the last bucket's index
  std::uint32_t intervals;
  std::uint32_t fall;  ///< the falling walks' block
  /// The most intervals the piece stage walks: a walk turns through less
  /// than half a circle of directions, so with evenly spread boundaries it
  /// visits at most intervals / 2 + 1 of them (5 at theta = pi/4, with 8
  /// intervals), capped at kMaxWalkSteps.
  std::uint32_t steps;
};

/// The piece stage's output on one batch: the certified pieces of the
/// cameras it walked, packed (sector interval, first and last column,
/// with a piece starting past the torus seam folded back by one row, so
/// c0 lies in [0, cols)), and per camera b one bit (word b / 64, bit
/// b % 64) in `fallback` when the caller's scalar pass must handle it, or
/// in `skip` when all its outer columns are saturated.
struct SweepPieces {
  std::int32_t* interval;  ///< kPieceCap entries each
  std::int32_t* c0;
  std::int32_t* c1;
  std::uint64_t fallback[kSweepBatch / 64];
  std::uint64_t skip[kSweepBatch / 64];
};

/// The piece stage over batch entries [0, count), after the interval
/// pass; `sat` is the row's saturated-column prefix counts while the sweep
/// skips cameras, else null.  Returns the pieces written.
using SweepPiecesFn = std::size_t (*)(const SweepBatch& b, std::size_t count,
                                      const SectorWalk& t, const std::uint32_t* sat,
                                      SweepPieces& out);

/// The scalar definitions (grid_eval.cpp), which every vector lane matches.
void sweep_intervals_scalar(const SweepBatch& b, std::size_t count);
BandScan band_scan_scalar(const double* sy, const double* r2, std::uint32_t begin,
                          std::uint32_t end, double y, bool torus, std::uint32_t cap,
                          std::uint32_t* slots, double* dy, double* r2_out);
std::size_t sweep_pieces_scalar(const SweepBatch& b, std::size_t count, const SectorWalk& t,
                                const std::uint32_t* sat, SweepPieces& out);
#if defined(FVC_KERNEL_AVX2)
void sweep_intervals_avx2(const SweepBatch& b, std::size_t count);
BandScan band_scan_avx2(const double* sy, const double* r2, std::uint32_t begin,
                        std::uint32_t end, double y, bool torus, std::uint32_t cap,
                        std::uint32_t* slots, double* dy, double* r2_out);
std::size_t sweep_pieces_avx2(const SweepBatch& b, std::size_t count, const SectorWalk& t,
                              const std::uint32_t* sat, SweepPieces& out);
#endif

// ---- stats path pair stage -------------------------------------------------

/// Boundary band of the occupancy decision, in pseudo-angle units: a
/// direction farther than this from every arc boundary is at least 1e-9
/// rad inside its interval, six orders of magnitude beyond the combined
/// rounding of the oracle's atan2 direction, the arc arithmetic and the
/// pseudo-angles (each ~1e-15).
inline constexpr double kOccupancyBand = 1e-9;

/// Gap-bound bins of the stats path: the pseudo-angle range [0, 4) cut
/// into kGapBins equal bins (a direction's bin is floor(v * kGapBinScale),
/// wrapping 4 to 0).
inline constexpr std::size_t kGapBins = 256;
inline constexpr double kGapBinScale = static_cast<double>(kGapBins) / 4.0;

/// The stats row sweep's per-column record (`PairRow::columns`, kRecMasks
/// plus the sector table's mask words each, uint64): the covering count,
/// the gap-bin bitmap (kGapBins / 64 words) and the occupancy mask words.
enum : std::size_t { kRecCount = 0, kRecBins = 1, kRecMasks = 1 + kGapBins / 64 };

/// The pair stage's input: per camera-run, the camera's pool slot, its y
/// displacement from the row (the band compaction's, which is the
/// classify's), and one range of its outer columns [c0, c1] (unwrapped, in
/// [-cols, 2 * cols), fewer than cols + 1 of them, distinct mod cols).
struct PairRuns {
  const std::uint32_t* slot;
  const double* dy;
  const std::int32_t* c0;
  const std::int32_t* c1;
  std::size_t count;
};

/// One row of the pair stage: the pool, the grid, the sector table, and
/// the accumulators it scatters into.
struct PairRow {
  CandSpans pool;  ///< the engine's pool fields, indexed by pool slot
  /// Grid x of unwrapped column c at px[c + cols], c in [-cols, 2 * cols),
  /// with 4 entries of padding after.
  const double* px;
  std::int32_t cols;
  bool torus;
  SectorWalk table;
  /// Per sector interval, the `words` mask words a direction there ORs.
  const std::uint64_t* interval_words;
  std::size_t words;
  std::uint64_t* columns;  ///< kRecMasks + words per column
  /// The covering pairs the stage scatters, appended (column, pool slot),
  /// with their gap bins and sector intervals, and the pairs it leaves to
  /// the caller's scalar replay; each with room for the runs' columns
  /// plus 4.
  std::uint32_t* pair_col;
  std::uint32_t* pair_slot;
  std::int32_t* pair_bin;
  std::int32_t* pair_interval;
  std::uint32_t* replay_col;
  std::uint32_t* replay_slot;
};

/// What a pair stage appended.
struct PairCounts {
  std::size_t pairs = 0;
  std::size_t replay = 0;
};

/// The pair stage (GridEvalEngine::block_stats): for each run and each of
/// its columns, the kernel's classify of the camera at the column's grid
/// point.  A covered pair that is not special and whose direction lies
/// outside the boundary band is appended to the covering pairs with its
/// gap bin and sector interval, and then adds one to its column's count,
/// sets its gap bin and ORs its interval's mask words; a special pair (a band hit or a camera at the point) or
/// a covered one inside the band is appended to the replay list instead.
/// Pairs are appended in run order, columns ascending within a run.
using StatsPairsFn = PairCounts (*)(const PairRuns& runs, const PairRow& row);

PairCounts stats_pairs_scalar(const PairRuns& runs, const PairRow& row);
#if defined(FVC_KERNEL_AVX2)
PairCounts stats_pairs_avx2(const PairRuns& runs, const PairRow& row);
#endif

/// The entry points of a kernel variant (grid_eval.cpp): its classify and
/// piece stage (none for kScalar) and its band, interval and pair stages
/// (the scalar definitions for kScalar).
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

/// The piece stage of `sweep_pieces_scalar` (grid_eval.cpp), 4 lanes at a
/// time, in passes over the batch that keep each pass's dependency chains
/// short, so the table lookups of many cameras are in flight at once.
///   Classify, per camera: the skip test (the outer columns' count in the
///   saturated prefix counts, gathered at the range's ends), the cameras
///   the stage walks (certified, not reflex, not skipped, with core
///   columns), and both core ends' lookup buckets.  A camera it does not
///   walk is decided here: skipped, or handed back when reflex, uncertified
///   or left with outer columns to verify.
///   Locate, per walked camera: both core ends' intervals (from their
///   buckets' records, with `locate`'s step loop as a masked loop) and the
///   near-boundary flags; a walk longer than t.steps intervals is handed
///   back, and the others are left-packed into a list of walks, so the
///   piece steps below run on full groups of walks.
///   Cot entries, per walk: those of the t.steps + 1 boundaries it can
///   reach, read as one run of the cot table.
///   Pieces, per walk: up to t.steps steps, each packing at most one piece,
///   its ends the floor and ceil columns of the crossings' margins, with
///   the scalar walk's cursor, so a verify gap before, between or after the
///   pieces shows.
/// All in the same IEEE operations as the scalar walk, with integer values
/// (interval indices, columns) held exactly in double lanes.  A walk with a
/// verify gap is handed back and packs no piece: a group of walks in which
/// one found a gap (rare: verify pairs are) re-packs its steps without it.
/// The pieces are left-packed step by step, walks in camera order within a
/// step; a group of walks takes as many steps as its longest.  A final
/// partial group masks its missing lanes off (batch lanes past the count
/// read batch padding, walks past the list hold no steps, and every table
/// index either would use is replaced).
template <class B>
inline std::size_t sweep_pieces_batches(const SweepBatch& sb, std::size_t count,
                                        const SectorWalk& t, const std::uint32_t* sat,
                                        SweepPieces& out) {
  static_assert(B::kWidth == 4, "sweep kernels are 4-wide");
  constexpr std::size_t st = kBatchStride;
  constexpr std::size_t kLen = kSweepBatch + 4;  // a list and a left-pack's overrun
  // The boundaries a walk reads, in pairs.
  const std::size_t cot_entries = (t.steps + 2) & ~std::size_t{1};
  const B zero = B::broadcast(0.0);
  const B one = B::broadcast(1.0);
  const B minus_one = B::broadcast(-1.0);
  const B two = B::broadcast(2.0);
  const B cols = B::broadcast(static_cast<double>(sb.side));
  const B scale = B::broadcast(t.bucket_scale);
  const B bucket_last = B::broadcast(t.bucket_last);
  const B last_interval = B::broadcast(static_cast<double>(t.intervals) - 1.0);
  const B fall_base = B::broadcast(static_cast<double>(t.fall + t.intervals) - 1.0);
  const B fast = B::broadcast(kFastBand);
  const B max_steps = B::broadcast(static_cast<double>(t.steps));
  const double lane_ids[4] = {0.0, 1.0, 2.0, 3.0};
  const B lane = B::load(lane_ids);
  // A column range starting past the seam moves back by one row.
  auto fold = [&](B c0) {
    return B::bit_and(B::cmp_lt(c0, zero), cols) - B::bit_and(B::cmp_ge(c0, cols), cols);
  };
  auto set_bits = [](std::uint64_t* words, std::size_t b, int lanes) {
    words[b / 64] |= static_cast<std::uint64_t>(static_cast<unsigned>(lanes)) << (b % 64);
  };
  for (std::size_t w = 0; w < kSweepBatch / 64; ++w) {
    out.fallback[w] = 0;
    out.skip[w] = 0;
  }
  // Classify: per batch entry, the walked cameras, their core ends'
  // pseudo-angles (0 on other lanes) and lookup buckets.
  alignas(32) double walk_at[kLen];
  alignas(32) double v_lo_at[kLen];
  alignas(32) double v_hi_at[kLen];
  alignas(16) std::int32_t bucket_lo[kLen];
  alignas(16) std::int32_t bucket_hi[kLen];
  for (std::size_t b = 0; b < count; b += B::kWidth) {
    const B valid = B::cmp_lt(lane, B::broadcast(static_cast<double>(count - b)));
    const double* const f = sb.fields + b;
    const std::int32_t* const c = sb.cols + b;
    const B flags = B::load_i32(c + kColFlags * st);
    const B kept = B::bit_andnot(valid, B::cmp_ge(flags, two));  // not reflex
    const B oc0 = B::load_i32(c + kColOuter0 * st);
    const B oc1 = B::load_i32(c + kColOuter1 * st);
    B skip = zero;
    if (sat != nullptr) {
      const B width = B::min(oc1 - oc0 + one, cols);
      const B active = B::bit_and(kept, B::cmp_gt(width, zero));
      const B at = B::select(active, oc0 + fold(oc0), zero);
      const B run = B::gather_u32_at(sat, B::select(active, at + width, zero)) -
                    B::gather_u32_at(sat, at);
      skip = B::bit_andnot(kept, B::bit_andnot(active, B::cmp_eq(run, width)));
    }
    // Certified, not reflex, not skipped; walked when its first core
    // sub-interval has columns, else it verifies its outer columns.
    const B plain = B::bit_andnot(B::bit_and(valid, B::cmp_eq(flags, one)), skip);
    const B walk = B::bit_and(
        plain, B::cmp_le(B::load_i32(c + kColSub0 * st), B::load_i32(c + kColSub1 * st)));
    const B verify = B::bit_andnot(B::bit_and(plain, B::cmp_le(oc0, oc1)), walk);
    set_bits(out.skip, b, skip.movemask());
    set_bits(out.fallback, b, B::bit_or(B::bit_andnot(valid, B::bit_or(plain, skip)), verify)
                                  .movemask());
    walk.store(walk_at + b);
    const B rise = B::cmp_lt(B::load(f + kBatchDy * st), zero);
    const B pa_l = B::load(f + kBatchPaLo * st);
    const B pa_r = B::load(f + kBatchPaHi * st);
    const B v_lo = B::bit_and(walk, B::select(rise, pa_l, pa_r));
    const B v_hi = B::bit_and(walk, B::select(rise, pa_r, pa_l));
    v_lo.store(v_lo_at + b);
    v_hi.store(v_hi_at + b);
    B::store_i32(bucket_lo + b, B::trunc(B::min(v_lo * scale, bucket_last)));
    B::store_i32(bucket_hi + b, B::trunc(B::min(v_hi * scale, bucket_last)));
  }
  // Locate: the walks, left-packed in camera order.  Per walk, its batch
  // entry, its steps, first interval, the step that ends at the right core
  // end uncut (-1 if none), whether the first step starts past its
  // crossing, where its cot entries start, and its batch fields.
  alignas(16) std::uint32_t w_entry[kLen];
  alignas(16) std::int32_t w_cot[kLen];
  alignas(32) double w_steps[kLen];
  alignas(32) double w_first[kLen];
  alignas(32) double w_end_step[kLen];
  alignas(32) double w_near_first[kLen];
  alignas(32) double w_dy[kLen];
  alignas(32) double w_j0[kLen];
  alignas(32) double w_mu_scale[kLen];
  alignas(32) double w_c_first[kLen];
  alignas(32) double w_c_last[kLen];
  alignas(32) double w_oc0[kLen];
  alignas(32) double w_oc1[kLen];
  std::size_t walks = 0;
  for (std::size_t b = 0; b < count; b += B::kWidth) {
    const B walk = B::load(walk_at + b);
    if (walk.movemask() == 0) {
      continue;
    }
    const B v_lo = B::load(v_lo_at + b);
    const B v_hi = B::load(v_hi_at + b);
    // `locate` from each end's bucket record: the interval at the bucket's
    // start, or the next one past its first boundary, with the boundaries
    // around it.
    auto record = [&](B v, const std::int32_t* bucket, B& i, B& bound, B& next) {
      const double* at[4];
      for (std::size_t k = 0; k < 4; ++k) {
        at[k] = t.bucket_records + std::ptrdiff_t{bucket[k]} * std::ptrdiff_t{kBucketRecord};
      }
      B i0;
      B b1;
      B b0;
      B b2;
      B::load_pair(at, 0, i0, b1);
      B::load_pair(at, 2, b0, b2);
      const B step = B::bit_and(B::cmp_lt(i0, last_interval), B::cmp_ge(v, b1));
      i = i0 + B::bit_and(step, one);
      bound = B::select(step, b1, b0);
      next = B::select(step, b2, b1);
    };
    B i_lo;
    B bound_lo;
    B next_lo;
    B i_hi;
    B bound_hi;
    B next_hi;
    record(v_lo, bucket_lo + b, i_lo, bound_lo, next_lo);
    record(v_hi, bucket_hi + b, i_hi, bound_hi, next_hi);
    // The step loop, only for a bucket holding two boundaries below v.
    for (;;) {
      const B step_lo = B::bit_and(B::cmp_lt(i_lo, last_interval), B::cmp_ge(v_lo, next_lo));
      const B step_hi = B::bit_and(B::cmp_lt(i_hi, last_interval), B::cmp_ge(v_hi, next_hi));
      if (B::bit_or(step_lo, step_hi).movemask() == 0) [[likely]] {
        break;
      }
      i_lo = i_lo + B::bit_and(step_lo, one);
      bound_lo = B::select(step_lo, next_lo, bound_lo);
      next_lo = B::gather_at(t.bounds + 1, i_lo);
      i_hi = i_hi + B::bit_and(step_hi, one);
      next_hi = B::gather_at(t.bounds + 1, i_hi);
    }
    const double* const f = sb.fields + b;
    const std::int32_t* const c = sb.cols + b;
    const B dy = B::load(f + kBatchDy * st);
    const B rise = B::cmp_lt(dy, zero);
    const B near_lo = B::cmp_lt(v_lo - bound_lo, fast);
    const B near_hi = B::cmp_lt(next_hi - v_hi, fast);
    const B steps = i_hi - i_lo + one;
    const B over = B::bit_and(walk, B::cmp_gt(steps, max_steps));
    set_bits(out.fallback, b, over.movemask());
    const int m = B::bit_andnot(walk, over).movemask();
    B::compress_index(w_entry + walks, static_cast<std::uint32_t>(b), m);
    B::compress_store_i32(w_cot + walks, B::select(rise, i_lo, fall_base - i_hi), m);
    B::compress_store(w_steps + walks, steps, m);
    B::compress_store(w_first + walks, B::select(rise, i_lo, i_hi), m);
    B::compress_store(w_end_step + walks,
                      B::select(B::select(rise, near_hi, near_lo), minus_one, steps - one), m);
    B::compress_store(w_near_first + walks, B::select(rise, near_lo, near_hi), m);
    B::compress_store(w_dy + walks, dy, m);
    B::compress_store(w_j0 + walks, B::load(f + kBatchJ0 * st), m);
    B::compress_store(w_mu_scale + walks, B::load(f + kBatchMuScale * st), m);
    B::compress_store(w_c_first + walks, B::load_i32(c + kColSub0 * st), m);
    B::compress_store(w_c_last + walks, B::load_i32(c + kColSub1 * st), m);
    B::compress_store(w_oc0 + walks, B::load_i32(c + kColOuter0 * st), m);
    walks += B::compress_store(w_oc1 + walks, B::load_i32(c + kColOuter1 * st), m);
  }
  // The list's last group: lanes past its end walk no steps and read the
  // cot table's first entries.
  double* const lists[] = {w_steps, w_first, w_end_step, w_near_first, w_dy,  w_j0,
                           w_mu_scale, w_c_first, w_c_last, w_oc0, w_oc1};
  for (double* list : lists) {
    zero.store(list + walks);
  }
  B::store_i32(w_cot + walks, zero);
  // Cot entries: those of the boundaries before steps 0..t.steps (+1).
  alignas(32) double cots[kMaxWalkSteps + 2][kLen];
  for (std::size_t w = 0; w < walks; w += B::kWidth) {
    const double* at[4];
    for (std::size_t k = 0; k < 4; ++k) {
      at[k] = t.cot + w_cot[w + k];
    }
    for (std::size_t k = 0; k < cot_entries; k += 2) {
      B c0;
      B c1;
      B::load_pair(at, k, c0, c1);
      c0.store(cots[k] + w);
      c1.store(cots[k + 1] + w);
    }
  }
  // Pieces.
  std::size_t n_out = 0;
  std::int32_t* const out_interval = out.interval;
  std::int32_t* const out_c0 = out.c0;
  std::int32_t* const out_c1 = out.c1;
  for (std::size_t w = 0; w < walks; w += B::kWidth) {
    const B steps = B::load(w_steps + w);
    const B c_first = B::load(w_c_first + w);
    const B c_last = B::load(w_c_last + w);
    const B oc0 = B::load(w_oc0 + w);
    const B oc1 = B::load(w_oc1 + w);
    const B dy = B::load(w_dy + w);
    const B dir = B::select(B::cmp_lt(dy, zero), one, minus_one);
    const B j0 = B::load(w_j0 + w);
    const B mu_scale = B::load(w_mu_scale + w);
    const B dy2 = dy * dy;
    const B end_step = B::load(w_end_step + w);
    const B near_first = B::load(w_near_first + w);
    // The group's longest walk, and whether one ends at a crossing (else
    // the last step needs no crossing).
    const double longest = steps.max_lane();
    const auto group_steps = static_cast<std::size_t>(longest);
    const bool cut_last =
        B::bit_and(B::cmp_eq(steps, B::broadcast(longest)), B::cmp_eq(end_step, minus_one))
            .movemask() != 0;
    // The boundary before step k: its crossing, the first column past
    // the crossing's margin, and the last one before it.
    auto crossing = [&](std::size_t k, B& after, B& before) {
      const B x = B::min(B::max(dy * B::load(cots[k] + w), minus_one), one);
      const B m = mu_scale * (x * x + dy2);
      after = B::ceil(j0 + (x + m) * cols);
      before = B::floor(j0 + (x - m) * cols);
    };
    // The steps, packing each walk's pieces; a walk with a verify gap packs
    // none, so a group in which one shows runs its steps again without it.
    const std::size_t group_out = n_out;
    B exclude = zero;
    for (;;) {
      B start = c_first;
      B after = zero;
      B before = zero;
      if (near_first.movemask() != 0) [[unlikely]] {
        crossing(0, after, before);
        start = B::select(near_first, B::max(c_first, after), c_first);
      }
      B cursor = oc0;
      B cut = zero;
      B interval = B::load(w_first + w);
      B sv = zero;
      for (std::size_t k = 0; k < group_steps; ++k) {
        const B on = B::cmp_gt(steps, sv);
        B end = c_last;  // the last step's, uncut on every lane reaching it
        if (k + 1 < group_steps || cut_last) {
          crossing(k + 1, after, before);
          end = B::select(B::cmp_eq(end_step, sv), c_last, B::min(c_last, before));
        }
        const B emitted = B::bit_and(on, B::cmp_le(start, end));
        cut = B::bit_or(cut, B::bit_and(emitted, B::cmp_gt(start, cursor)));
        cursor = B::select(emitted, end + one, cursor);
        const int m = B::bit_andnot(emitted, exclude).movemask();
        const B shift = fold(start);
        B::compress_store_i32(out_interval + n_out, interval, m);
        B::compress_store_i32(out_c0 + n_out, start + shift, m);
        B::compress_store_i32(out_c1 + n_out, end + shift, m);
        n_out += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
        start = B::max(c_first, after);
        interval = interval + dir;
        sv = sv + one;
      }
      const B gap = B::bit_and(B::cmp_gt(steps, zero), B::bit_or(cut, B::cmp_le(cursor, oc1)));
      const int g = gap.movemask();
      if (g == exclude.movemask()) [[likely]] {
        break;
      }
      for (std::size_t k = 0; k < 4; ++k) {
        if (((g >> k) & 1) != 0) {
          set_bits(out.fallback, w_entry[w + k], 1);
        }
      }
      n_out = group_out;
      exclude = gap;
    }
  }
  return n_out;
}

/// The pair stage of `stats_pairs_scalar` (grid_eval_stats.cpp), with lanes
/// over the columns of one run: per lane the classify of classify_batches
/// (with dy * dy and dy * su, the same for every lane, formed once per
/// run), then for a covered lane that is not special the pseudo-angle of
/// its viewed direction -(dx, dy) as `pseudo_angle` computes it (quadrant
/// selects in place of its integer arithmetic, exact on these values), its
/// gap bin, and its sector interval by `locate` (the bucket record and the
/// masked step loop of the piece stage), with the boundary-band test.
/// Lanes past the run's end are masked off, and a masked lane's
/// pseudo-angle is zeroed before any table index is formed.  The scatter
/// into the column records is scalar, lane by lane in column order.
template <class B>
inline PairCounts stats_pairs_batches(const PairRuns& runs, const PairRow& row) {
  static_assert(B::kWidth == 4, "pair kernels are 4-wide");
  const SectorWalk& t = row.table;
  const B zero = B::broadcast(0.0);
  const B one = B::broadcast(1.0);
  const B minus_one = B::broadcast(-1.0);
  const B two = B::broadcast(2.0);
  const B half = B::broadcast(0.5);
  const B eps = B::broadcast(1e-9);
  const B occupancy_band = B::broadcast(kOccupancyBand);
  const B bin_scale = B::broadcast(kGapBinScale);
  const B scale = B::broadcast(t.bucket_scale);
  const B bucket_last = B::broadcast(t.bucket_last);
  const B last_interval = B::broadcast(static_cast<double>(t.intervals) - 1.0);
  const B cols = B::broadcast(static_cast<double>(row.cols));
  const double lane_ids[4] = {0.0, 1.0, 2.0, 3.0};
  const B lane = B::load(lane_ids);
  const std::size_t rec = kRecMasks + row.words;
  const double* const px = row.px + row.cols;
  PairCounts out;
  alignas(16) std::int32_t col_at[4];
  alignas(16) std::int32_t bucket_at[4];
  for (std::size_t r = 0; r < runs.count; ++r) {
    const std::uint32_t slot = runs.slot[r];
    const double dy_s = runs.dy[r];
    const B sx = B::broadcast(row.pool.sx[slot]);
    const B r2 = B::broadcast(row.pool.r2[slot]);
    const B cu = B::broadcast(row.pool.cu[slot]);
    const B q = B::broadcast(row.pool.q[slot]);
    const B omni = B::broadcast(row.pool.omni[slot]);
    const B dy2 = B::broadcast(dy_s * dy_s);
    const B dysu = B::broadcast(dy_s * row.pool.su[slot]);
    // The viewed direction's y, -dy, and its share of the pseudo-angle.
    const B y = B::neg(B::broadcast(dy_s));
    const B ay = B::abs(y);
    const B lower = B::cmp_lt(y, zero);
    const std::int32_t c1 = runs.c1[r];
    for (std::int32_t c = runs.c0[r]; c <= c1; c += 4) {
      const B valid = B::cmp_lt(lane, B::broadcast(static_cast<double>(c1 - c + 1)));
      B dx = B::load(px + c) - sx;
      if (row.torus) {
        dx = dx - B::round_nearest(dx);
        dx = B::select(B::cmp_ge(dx, half), dx - one, dx);
      }
      const B n2 = dx * dx + dy2;
      const B dot = dx * cu + dysu;
      const B diff = dot * B::abs(dot) - q * n2;
      const B band = eps * n2;
      const B in_radius = B::bit_and(valid, B::cmp_le(n2, r2));
      const B covered = B::bit_and(in_radius, B::bit_or(omni, B::cmp_gt(diff, band)));
      const B band_hit =
          B::bit_and(B::bit_andnot(in_radius, omni), B::cmp_le(B::abs(diff), band));
      const B special = B::bit_or(band_hit, B::bit_and(covered, B::cmp_eq(n2, zero)));
      const B clean = B::bit_andnot(covered, special);
      const int clean_m = clean.movemask();
      const int special_m = special.movemask();
      if ((clean_m | special_m) == 0) {
        continue;
      }
      const B x = B::neg(dx);
      const B ax = B::abs(x);
      const B odd = B::bit_or(B::bit_and(lower, B::cmp_ge(x, zero)),
                              B::bit_andnot(B::cmp_le(x, zero), lower));
      const B frac = ay / (ax + ay);
      const B v = B::bit_and(clean, (B::bit_and(lower, two) + B::bit_and(odd, two)) +
                                        B::select(odd, minus_one, one) * frac);
      B::store_i32(bucket_at, B::trunc(B::min(v * scale, bucket_last)));
      // `locate`, from the bucket record, then the step loop.
      const double* at[4];
      for (std::size_t k = 0; k < 4; ++k) {
        at[k] = t.bucket_records + std::ptrdiff_t{bucket_at[k]} * std::ptrdiff_t{kBucketRecord};
      }
      B i0;
      B b1;
      B b0;
      B b2;
      B::load_pair(at, 0, i0, b1);
      B::load_pair(at, 2, b0, b2);
      B step = B::bit_and(B::cmp_lt(i0, last_interval), B::cmp_ge(v, b1));
      B i = i0 + B::bit_and(step, one);
      B bound = B::select(step, b1, b0);
      B next = B::select(step, b2, b1);
      for (;;) {
        step = B::bit_and(B::cmp_lt(i, last_interval), B::cmp_ge(v, next));
        if (step.movemask() == 0) [[likely]] {
          break;
        }
        i = i + B::bit_and(step, one);
        bound = B::select(step, next, bound);
        next = B::gather_at(t.bounds + 1, i);
      }
      const B near = B::bit_or(B::cmp_le(v - bound, occupancy_band),
                               B::cmp_le(next - v, occupancy_band));
      const int keep = B::bit_andnot(clean, near).movemask();
      const int replay = special_m | (clean_m & ~keep);
      const B col = B::broadcast(static_cast<double>(c)) + lane;
      const B wrapped =
          col + B::bit_and(B::cmp_lt(col, zero), cols) - B::bit_and(B::cmp_ge(col, cols), cols);
      // Left-packed, then scattered below (the packing stores have long
      // retired by then).
      B::compress_store_i32(row.pair_bin + out.pairs, B::trunc(v * bin_scale), keep);
      B::compress_store_i32(row.pair_interval + out.pairs, i, keep);
      B::compress_store_i32(reinterpret_cast<std::int32_t*>(row.pair_col) + out.pairs, wrapped,
                            keep);
      for (std::size_t k = 0; k < 4; ++k) {
        row.pair_slot[out.pairs + k] = slot;
      }
      out.pairs += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(keep)));
      if (replay == 0) [[likely]] {
        continue;
      }
      B::store_i32(col_at, wrapped);
      for (int m = replay; m != 0; m &= m - 1) {
        const int k = std::countr_zero(static_cast<unsigned>(m));
        row.replay_col[out.replay] = static_cast<std::uint32_t>(col_at[k]);
        row.replay_slot[out.replay] = slot;
        ++out.replay;
      }
    }
  }
  // The scatter.
  std::uint64_t* const columns = row.columns;
  const std::uint64_t* const interval_words = row.interval_words;
  const std::size_t words = row.words;
  for (std::size_t k = 0; k < out.pairs; ++k) {
    std::uint64_t* const cr = columns + std::size_t{row.pair_col[k]} * rec;
    const auto b = static_cast<std::uint32_t>(row.pair_bin[k]) & (kGapBins - 1);
    ++cr[kRecCount];
    cr[kRecBins + b / 64] |= std::uint64_t{1} << (b % 64);
    const std::uint64_t* const iw =
        interval_words + static_cast<std::size_t>(row.pair_interval[k]) * words;
    for (std::size_t w = 0; w < words; ++w) {
      cr[kRecMasks + w] |= iw[w];
    }
  }
  return out;
}

}  // namespace fvc::core::detail
