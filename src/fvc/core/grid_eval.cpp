#include "fvc/core/grid_eval.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "fvc/core/candidate_index.hpp"
#include "fvc/core/grid_eval_internal.hpp"
#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/round_half_away.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::core {

namespace {

/// Absolute ceiling on index cells per side, bounding the strip table and
/// the row slices' x-cell offsets for degenerate radii.  Far above any
/// radius the sizing rule meets in practice (it binds only below
/// max_radius ~ 5e-5); the per-grid 4 * side cap binds first on real
/// configurations.
constexpr std::size_t kAbsoluteMaxCells = 65535;

/// Unique id per engine instance; keys the per-scratch stream row slices
/// so a scratch can be handed from one engine to another (rebuilds, trial
/// loops) without serving a stale slice.  Starts at 1: a default
/// RowSlice's generation 0 never matches.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// ccw_delta for inputs already normalized to [0, 2*pi).  Bit-identical to
/// `geom::ccw_delta(from, to)` on that domain: there, fmod is the identity
/// (|to - from| < 2*pi), so the only operations are the subtraction, the
/// conditional + 2*pi, and the wrap-to-zero guard — replicated here without
/// the fmod call.  tests/core/test_grid_eval.cpp checks the equivalence.
inline double ccw_from_normalized(double from, double to) {
  double d = to - from;
  if (d < 0.0) {
    d += geom::kTwoPi;
  }
  if (d >= geom::kTwoPi) {
    d = 0.0;
  }
  return d;
}

/// Row-sweep margins and degeneracy limits (docs/ARCHITECTURE.md, "Row
/// sweep"; the interval pass's own are in grid_eval_kernel.hpp).  Each
/// margin sits orders of magnitude above the rounding it absorbs, so a
/// certified column is one the kernel covers, outside the boundary band,
/// and a column outside the outer interval is one the kernel rejects
/// without a band hit.
///
/// Wedge margin, in the kernel's own units: the core wedge is the set of
/// directions at angle a from the orientation with cos(a)|cos(a)| >= q +
/// kWedgeMargin, the outer one those with cos(a)|cos(a)| >= q -
/// kWedgeMargin.  The kernel's dot|dot| - q*n2 then clears its band of
/// 1e-9 * n2 by about 1e-9 * n2, ten times its own rounding.
constexpr double kWedgeMargin = 2e-9;
/// A camera with a wedge edge ray within kMinEdgeY of horizontal verifies
/// its whole outer chord (as do the interval pass's kMinSweepDy and
/// kMaxHalfChord cases).
constexpr double kMinEdgeY = 1e-9;
/// Cap on the sweep's per-interval column counts (intervals x (columns +
/// 1)); engines above it decide every point from its whole span.
constexpr std::size_t kMaxSweepCells = std::size_t{1} << 20;
/// A camera's pass through the row sweep costs about this many exact
/// vector classifies of one band slot at one point (see `sweep_row`).
constexpr std::size_t kFinishRatio = 32;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The helpers shared with grid_eval_stats.cpp (grid_eval_internal.hpp).
using detail::ceil_to_int, detail::classify_scalar, detail::EntryClass, detail::floor_to_int,
    detail::kOccupancyBand, detail::max_gap_sorted, detail::pseudo_angle,
    detail::pseudo_direction, detail::reserve_point,
    detail::SortedGap, detail::words_full;

// The row sweep's shared limits, kind bits and batch layout
// (grid_eval_kernel.hpp).
using detail::kBatchStride, detail::kChordMargin, detail::kCrossMargin, detail::kFastBand,
    detail::kMaxHalfChord, detail::kMinSweepDy, detail::kPieceCap, detail::kSweepBatch,
    detail::kMaxWalkSteps, detail::kSweepSlackX;
using detail::kEdgeLower, detail::kEdgeNone, detail::kEdgeUpper, detail::kKindCoreReflex,
    detail::kKindNoCore, detail::kKindOuterReflex, detail::kKindUnbounded, detail::kShiftCm,
    detail::kShiftCp, detail::kShiftOm, detail::kShiftOp;
using detail::kConstCm, detail::kConstCp, detail::kConstJ0, detail::kConstKind, detail::kConstOm,
    detail::kConstOp, detail::kConstStride;
using detail::kBatchBlindHi, detail::kBatchBlindLo, detail::kBatchCertify, detail::kBatchCoreHi,
    detail::kBatchCoreLo, detail::kBatchDy, detail::kBatchFields, detail::kBatchHi0,
    detail::kBatchHi1, detail::kBatchJ0, detail::kBatchLo0, detail::kBatchLo1, detail::kBatchMuScale,
    detail::kBatchPaHi, detail::kBatchPaLo, detail::kBatchR2, detail::kBatchReflex,
    detail::kColFields, detail::kColFlags, detail::kColOuter0, detail::kColOuter1,
    detail::kColSub0, detail::kColSub1;

/// A wedge of half-angle phi as cos/sin, from g = cos(phi)|cos(phi)| alone
/// (no trig): |cos(phi)| = sqrt(|g|), sin(phi) = sqrt(1 - |g|).  Above
/// pi/2 the wedge is reflex: the complement of the convex blind cone of
/// half-angle pi - phi around the opposite direction, which is what
/// `reflex` and (`c`, `s`), negated to turn the axis around, then describe.
/// `all`: no direction is excluded (g <= -1); `none`: none is included
/// (g > 1).
struct Wedge {
  double c = 0.0;
  double s = 0.0;
  bool reflex = false;
  bool all = false;
  bool none = false;
};

inline Wedge wedge_of(double g) {
  Wedge w;
  w.all = g <= -1.0;
  w.none = g > 1.0;
  w.reflex = g < 0.0;
  const double ag = std::min(std::abs(g), 1.0);
  const double axis = w.reflex ? -1.0 : 1.0;
  w.c = axis * std::sqrt(ag);
  w.s = axis * std::sqrt(1.0 - ag);
  return w;
}

/// The bounds an edge ray's half-line ending at x sets, by its clip state
/// s (with 2 added on a row where the sweep applies no wedge, which
/// leaves no bound): x + kClipLo[s] is a lower bound, x + kClipHi[s] an
/// upper one (x is finite).
constexpr double kClipLo[4] = {-std::numeric_limits<double>::infinity(), 0.0,
                               -std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
constexpr double kClipHi[4] = {0.0, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity()};

/// A camera's y displacement from a row at y (a strip walk's `band_dy`):
/// on the torus the nearest image's, in [-1/2, 1/2).
inline double unwrap_dy(double y, double sy, bool torus) {
  double dy = y - sy;
  if (torus) {
    dy -= detail::round_half_away(dy);
    if (dy >= 0.5) {
      dy -= 1.0;
    }
  }
  return dy;
}

/// One camera's x-sets along a grid row at y displacement dy (see
/// `GridEvalEngine::sweep_row`): the *outer* set, a superset of the x where
/// the kernel could return covered or a band hit, as part 0 and part 1
/// (part 1 is empty unless a reflex outer wedge's blind cone splits the
/// chord); the *core*, where it certainly returns covered and not special:
/// the core chord within a convex core wedge, [c_lo, c_hi], less a reflex
/// core wedge's blind interval [bl, bh] ([inf, inf] when none); and part
/// 0's first core sub-interval [s_lo, s_hi].  `certify` is false when the
/// margins do not hold (|dy| < kMinSweepDy, an outer half-chord of
/// kMaxHalfChord or more, a degenerate or empty core wedge): the whole
/// outer set is then verified.  Each wedge is two edge half-lines in x,
/// their ends the per-camera slopes times dy, their sides by table from the
/// camera's kind; a row where the margins fail applies no wedge.
struct SweepIntervals {
  double lo0 = 0.0;
  double hi0 = 0.0;
  double lo1 = 0.0;
  double hi1 = 0.0;
  double c_lo = 0.0;
  double c_hi = 0.0;
  double bl = 0.0;
  double bh = 0.0;
  double s_lo = 0.0;
  double s_hi = 0.0;
  bool certify = false;
  bool wide = false;   ///< outer half-chord of kMaxHalfChord or more
  bool two = false;    ///< part 1 is not empty
  bool blind = false;  ///< the core has a blind interval
};

inline SweepIntervals sweep_intervals(double dy, double r2, unsigned kind, double slope_cm,
                                      double slope_cp, double slope_om, double slope_op) {
  SweepIntervals v;
  const double dy2 = dy * dy;
  // The band prune passed (fl(dy^2) <= r^2), so this root's argument is
  // positive.
  const double ho = std::sqrt(r2 * (1.0 + kChordMargin) - dy2) + kSweepSlackX;
  const double hc = std::sqrt(std::max(r2 * (1.0 - kChordMargin) - dy2, 0.0)) - kSweepSlackX;
  v.wide = ho >= kMaxHalfChord;
  const bool live = (std::abs(dy) >= kMinSweepDy) & !v.wide;
  const unsigned dead = static_cast<unsigned>(!live) << 1U;
  v.certify = live & ((kind & kKindNoCore) == 0);
  // The chord: a plane column lies within 1 of every camera, so 2 bounds it.
  const double lo_o = std::max(-ho, -2.0);
  const double hi_o = std::min(ho, 2.0);
  // Each wedge's two edge half-lines, intersected: [ol, oh] for the outer
  // wedge, [kl, kh] for the core one (blind cones when reflex).
  const double xom = slope_om * dy;
  const double xop = slope_op * dy;
  const double xcm = slope_cm * dy;
  const double xcp = slope_cp * dy;
  const unsigned som = ((kind >> kShiftOm) & 3U) | dead;
  const unsigned sop = ((kind >> kShiftOp) & 3U) | dead;
  const unsigned scm = ((kind >> kShiftCm) & 3U) | dead;
  const unsigned scp = ((kind >> kShiftCp) & 3U) | dead;
  const double ol = std::max(xom + kClipLo[som], xop + kClipLo[sop]);
  const double oh = std::min(xom + kClipHi[som], xop + kClipHi[sop]);
  const double kl = std::max(xcm + kClipLo[scm], xcp + kClipLo[scp]);
  const double kh = std::min(xcm + kClipHi[scm], xcp + kClipHi[scp]);
  v.c_lo = std::max(-hc, kl);
  v.c_hi = std::min(hc, kh);
  v.bl = kInf;
  v.bh = kInf;
  v.lo0 = std::max(lo_o, ol);
  v.hi0 = std::min(hi_o, oh);
  v.lo1 = kInf;
  v.hi1 = -kInf;
  if (live && (kind & (kKindCoreReflex | kKindOuterReflex)) != 0) [[unlikely]] {
    // Reflex wedges (fov > pi; their bounds are blind cones).  A blind cone
    // that misses the row leaves the whole chord.
    if ((kind & kKindCoreReflex) != 0) {
      v.c_lo = -hc;
      v.c_hi = hc;
      v.blind = kl <= kh;
      v.bl = v.blind ? kl : kInf;
      v.bh = v.blind ? kh : kInf;
    }
    if ((kind & kKindOuterReflex) != 0) {
      v.two = ol <= oh;
      v.lo0 = lo_o;
      v.hi0 = v.two ? std::min(hi_o, ol) : hi_o;
      v.lo1 = v.two ? std::max(lo_o, oh) : kInf;
      v.hi1 = v.two ? hi_o : -kInf;
    }
  }
  v.s_lo = std::max(v.c_lo, v.lo0);
  v.s_hi = std::min(std::min(v.c_hi, v.hi0), v.bl);
  return v;
}

/// Append the verify pairs (column, pool slot) of `slot` on the unwrapped
/// columns [c0, c1] (c0 <= c1, at most `cols` of them); returns their
/// count.  Out of line: the sweep's hot loops only test for an empty range.
[[gnu::noinline]] std::uint64_t append_verify(GridEvalScratch::RowSweep& sw,
                                              std::uint32_t slot, std::int64_t c0,
                                              std::int64_t c1, std::int64_t cols) {
  std::int64_t c = ((c0 % cols) + cols) % cols;
  for (std::int64_t k = c0; k <= c1; ++k) {
    sw.verify_cols.push_back(static_cast<std::uint32_t>(c));
    sw.verify_entries.push_back(slot);
    c = c + 1 == cols ? 0 : c + 1;
  }
  return static_cast<std::uint64_t>(c1 - c0 + 1);
}

/// The interval of a sector table holding pseudo-angle v in [0, 4]: from
/// the interval at v's bucket start, past every boundary at or below v.
inline std::size_t locate_interval(const double* bounds, const std::uint32_t* bucket,
                                   double bucket_scale, double bucket_last, std::size_t last,
                                   double v) {
  std::size_t i = bucket[static_cast<std::size_t>(std::min(v * bucket_scale, bucket_last))];
  while (i < last && v >= bounds[i + 1]) {
    ++i;
  }
  return i;
}

/// Every column of the unwrapped range [c0, c1] saturated (true if
/// empty), by the row's saturated-column prefix counts `sat` over the row
/// twice (ranges wrap); c0 lies in [-cols, 2 * cols) unless the range is
/// empty, and a range of more than cols columns covers the row.
inline bool all_saturated(const std::uint32_t* sat, std::int64_t cols, std::int64_t c0,
                          std::int64_t c1) {
  const std::int64_t width = std::min(c1 - c0 + 1, cols);
  c0 += cols * (static_cast<std::int64_t>(c0 < 0) - static_cast<std::int64_t>(c0 >= cols));
  return width <= 0 || static_cast<std::int64_t>(sat[c0 + width] - sat[c0]) == width;
}

/// The shift that moves an unwrapped column c0 in [-cols, 2 * cols) into
/// [0, cols): a piece starting past the torus seam moves by one row.
inline std::int64_t seam_shift(std::int64_t c0, std::int64_t cols) {
  return c0 < 0 ? cols : (c0 >= cols ? -cols : 0);
}

/// The crossing walk of the row sweep (docs/ARCHITECTURE.md, "Row sweep")
/// certifies a core sub-interval whose ends' viewed directions -(x, dy)
/// have pseudo-angles pa_l (left end) and pa_r (right end), cut where the
/// direction crosses a sector boundary, with a margin mu either side.  The
/// direction turns monotonically along the row, so the interval index
/// steps by one per crossing, from the interval holding one end to the one
/// holding the other: up when the pseudo-angle rises (dy < 0), else down.
/// An end at least kFastBand inside its interval's far boundary bounds its
/// piece itself (a sub-interval inside one interval is one piece, with no
/// crossing at all); an end nearer it is cut at that boundary's crossing
/// as well.  `walk_ends` places the walk; `walk_pieces` cuts it.
struct Walk {
  std::size_t first = 0;  ///< the interval at the left end
  std::size_t steps = 0;  ///< intervals visited
  bool rise = false;
  bool near_first = false;  ///< the left end is cut at its boundary's crossing too
  bool near_last = false;   ///< the right end is
};

inline Walk walk_ends(const detail::SectorWalk& t, double dy, double pa_l, double pa_r) {
  const bool rise = dy < 0.0;
  const double v_lo = rise ? pa_l : pa_r;
  const double v_hi = rise ? pa_r : pa_l;
  const std::size_t last = t.intervals - 1;
  const std::size_t i_lo =
      locate_interval(t.bounds, t.bucket, t.bucket_scale, t.bucket_last, last, v_lo);
  const std::size_t i_hi =
      locate_interval(t.bounds, t.bucket, t.bucket_scale, t.bucket_last, last, v_hi);
  const bool near_lo = v_lo - t.bounds[i_lo] < kFastBand;
  const bool near_hi = t.bounds[i_hi + 1] - v_hi < kFastBand;
  return {rise ? i_lo : i_hi, i_hi - i_lo + 1, rise, rise ? near_lo : near_hi,
          rise ? near_hi : near_lo};
}

/// The walk's pieces on the columns [c_first, c_last], left to right:
/// step s covers interval first -+ s up to the crossing x = dy * cot(b) of
/// its boundaries, less a margin mu = mu_scale * (x^2 + dy^2) either side,
/// and `emit(s, interval, c0, c1)` gets each non-empty one (unwrapped
/// columns, j(x) = j0 + x * side as in `Cut::col_lo`).  A crossing beyond
/// |x| = 1 lies beyond every chord: clamping it to -+1 keeps its side, and
/// there mu <= 1e-3 (x^2 + dy^2), so |d| barely changes across the margin.
/// A walked camera has |dy| >= kMinSweepDy, so |x -+ mu| < 1.002 and the
/// column ends need no clamp (on the plane c_first >= 0 bounds the left
/// one).  The batch kernel's piece stage computes the same values.
template <class Emit>
inline void walk_pieces(const detail::SectorWalk& t, const Walk& w, double j0, double dy,
                        double mu_scale, double side, std::int64_t c_first, std::int64_t c_last,
                        Emit&& emit) {
  const double dy2 = dy * dy;
  // The boundary before step s is first + s (rising) or first + 1 - s
  // (falling), whose cot entry is s past this one.
  const double* const cot =
      t.cot + (w.rise ? w.first : std::size_t{t.fall} + t.intervals - 1 - w.first);
  // The crossing of the boundary before step s, and its margin.
  auto cross = [&](std::size_t s, double& m) {
    const double x = std::min(std::max(dy * cot[s], -1.0), 1.0);
    m = mu_scale * (x * x + dy2);
    return x;
  };
  std::int64_t start = c_first;
  if (w.near_first) [[unlikely]] {
    double m = 0.0;
    const double x = cross(0, m);
    start = std::max(start, ceil_to_int(j0 + (x + m) * side));
  }
  for (std::size_t s = 0;; ++s) {
    const bool last = s + 1 == w.steps;
    std::int64_t end = c_last;
    std::int64_t next = 0;
    if (!last || w.near_last) {
      double m = 0.0;
      const double x = cross(s + 1, m);
      end = std::min(end, floor_to_int(j0 + (x - m) * side));
      next = ceil_to_int(j0 + (x + m) * side);
    }
    if (start <= end) {
      emit(s, w.rise ? w.first + s : w.first - s, start, end);
    }
    if (last) {
      break;
    }
    start = std::max(next, c_first);
  }
}

/// `sectors_all_hit` of the scalar oracle, over precomputed arcs and the
/// sorted angle buffer.  Arc containment is closed on both endpoints, as in
/// `geom::angle_in_arc` (width is clamped to [0, 2*pi] by construction, so
/// the oracle's width >= 2*pi fast path coincides with the comparison).
/// Exactness of the two-candidate test: split the directions at the arc
/// start s.  For d >= s the predicate value is fl(d - s), monotone in d, so
/// if any such d hits then the FIRST d >= s hits; for d < s it is
/// fl(fl(d - s) + 2*pi), also monotone, so if any such d hits then the
/// smallest direction hits.  Testing those two candidates with the exact
/// predicate therefore decides existence.  Partition arcs have ascending
/// starts, so the first-candidate cursor advances monotonically and the
/// whole check is one merged sweep.
inline bool arcs_all_hit(std::span<const double> sorted_dirs,
                         std::span<const geom::Arc> arcs) {
  if (sorted_dirs.empty()) {
    return arcs.empty();
  }
  const double front = sorted_dirs.front();
  std::size_t idx = 0;
  for (const geom::Arc& arc : arcs) {
    while (idx < sorted_dirs.size() && sorted_dirs[idx] < arc.start) {
      ++idx;
    }
    const bool hit = (idx < sorted_dirs.size() &&
                      ccw_from_normalized(arc.start, sorted_dirs[idx]) <= arc.width) ||
                     ccw_from_normalized(arc.start, front) <= arc.width;
    if (!hit) {
      return false;
    }
  }
  return true;
}

inline FullViewResult full_view_from_sorted(std::span<const double> sorted_dirs,
                                            double theta) {
  FullViewResult res;
  res.covering_count = sorted_dirs.size();
  const SortedGap gap = max_gap_sorted(sorted_dirs);
  res.max_gap = gap.width;
  res.covered = !sorted_dirs.empty() && gap.width <= 2.0 * theta;
  if (!res.covered) {
    if (gap.has_after) {
      res.witness_unsafe_direction = geom::normalize_angle(gap.after + 0.5 * gap.width);
    } else {
      res.witness_unsafe_direction = 0.0;
    }
  }
  return res;
}

}  // namespace

namespace detail {

// The interval pass as the scalar kernel runs it, and the definition the
// batch kernels match lane for lane: per camera its x-sets
// (`sweep_intervals`), part 0's outer and first core sub-interval
// columns, that sub-interval's end pseudo-angles and the crossing
// margin's scale, and the x-sets a reflex wedge's piece pass splits.  The
// viewed direction -(x, dy) lies in the upper half-plane when dy < 0,
// where its pseudo-angle is 1 + x / (|x| + |dy|), and in the lower one
// when dy > 0, where it is 3 - x / (|x| + |dy|): within 1e-15 of
// `pseudo_angle`'s value, far inside kFastBand.  Column ends as in
// Cut::col_lo / col_hi (`GridEvalEngine::sweep_row`), in 32 bits
// (|j| <= 5 * cols).
void sweep_intervals_scalar(const SweepBatch& sb, std::size_t count) {
  const auto side = static_cast<double>(sb.side);
  const std::int32_t c_min = sb.torus ? std::numeric_limits<std::int32_t>::min() : 0;
  const std::int32_t c_max = sb.torus ? std::numeric_limits<std::int32_t>::max() : sb.side - 1;
  const std::int32_t row_last = sb.side - 1;
  auto lo32 = [side, c_min](double j0, double x) {
    const double v = j0 + std::min(std::max(x, -4.0), 4.0) * side;
    const auto c = static_cast<std::int32_t>(v);
    return std::max(c + static_cast<std::int32_t>(static_cast<double>(c) < v), c_min);
  };
  auto hi32 = [side, c_max](double j0, double x) {
    const double v = j0 + std::min(std::max(x, -4.0), 4.0) * side;
    const auto c = static_cast<std::int32_t>(v);
    return std::min(c - static_cast<std::int32_t>(static_cast<double>(c) > v), c_max);
  };
  double* const f = sb.fields;
  std::int32_t* const c = sb.cols;
  for (std::size_t b = 0; b < count; ++b) {
    const double* const k = sb.consts + std::size_t{sb.slots[b]} * kConstStride;
    const double dy = f[kBatchDy * kBatchStride + b];
    const SweepIntervals v = sweep_intervals(
        dy, f[kBatchR2 * kBatchStride + b],
        static_cast<unsigned>(std::bit_cast<std::uint64_t>(k[kConstKind])), k[kConstCm],
        k[kConstCp], k[kConstOm], k[kConstOp]);
    const double j0 = k[kConstJ0];
    const double ady = std::abs(dy);
    const double pa_base = dy < 0.0 ? 1.0 : 3.0;
    const double pa_sign = dy < 0.0 ? 1.0 : -1.0;
    f[kBatchPaLo * kBatchStride + b] = pa_base + pa_sign * (v.s_lo / (std::abs(v.s_lo) + ady));
    f[kBatchPaHi * kBatchStride + b] = pa_base + pa_sign * (v.s_hi / (std::abs(v.s_hi) + ady));
    f[kBatchMuScale * kBatchStride + b] = kCrossMargin / ady;
    f[kBatchJ0 * kBatchStride + b] = j0;
    // Columns, with an empty interval's forced empty (c1 < c0) and a
    // torus-wide chord's the whole row.
    const bool all_row = sb.torus & v.wide;
    const std::int32_t oc0 = all_row ? 0 : lo32(j0, v.lo0);
    const std::int32_t oc1 = all_row ? row_last : (v.lo0 > v.hi0 ? oc0 - 1 : hi32(j0, v.hi0));
    const std::int32_t sc0 = std::max(lo32(j0, v.s_lo), oc0);
    c[kColOuter0 * kBatchStride + b] = oc0;
    c[kColOuter1 * kBatchStride + b] = oc1;
    c[kColSub0 * kBatchStride + b] = sc0;
    c[kColSub1 * kBatchStride + b] = v.s_lo > v.s_hi ? sc0 - 1 : std::min(hi32(j0, v.s_hi), oc1);
    c[kColFlags * kBatchStride + b] =
        static_cast<std::int32_t>(static_cast<unsigned>(v.certify) * kBatchCertify |
                                  static_cast<unsigned>(v.two | v.blind) * kBatchReflex);
    if (v.two | v.blind) [[unlikely]] {
      f[kBatchLo0 * kBatchStride + b] = v.lo0;
      f[kBatchHi0 * kBatchStride + b] = v.hi0;
      f[kBatchLo1 * kBatchStride + b] = v.lo1;
      f[kBatchHi1 * kBatchStride + b] = v.hi1;
      f[kBatchCoreLo * kBatchStride + b] = v.c_lo;
      f[kBatchCoreHi * kBatchStride + b] = v.c_hi;
      f[kBatchBlindLo * kBatchStride + b] = v.bl;
      f[kBatchBlindHi * kBatchStride + b] = v.bh;
    }
  }
}

// The band compaction as the scalar kernel runs it: the exact y prune of
// `for_each_in_y_band` as a branch-free compaction (a pruned camera's
// write is overwritten).
BandScan band_scan_scalar(const double* sy, const double* r2, std::uint32_t begin,
                          std::uint32_t end, double y, bool torus, std::uint32_t cap,
                          std::uint32_t* slots, double* dy_out, double* r2_out) {
  std::uint32_t added = 0;
  for (std::uint32_t e = begin; e < end; ++e) {
    const double dy = unwrap_dy(y, sy[e], torus);
    slots[added] = e;
    dy_out[added] = dy;
    r2_out[added] = r2[e];
    added += static_cast<std::uint32_t>(dy * dy <= r2[e]);
    if (added == cap) {
      return {e + 1, added};
    }
  }
  return {end, added};
}

// The definition of the batch kernel's piece stage, which the kernel tests
// check it against (the scalar kernel runs no piece stage: the sweep's
// scalar pass walks every camera itself, with the same `walk_ends` and
// `walk_pieces`).  Per camera, the skip test, then the crossing walk of a
// certified, non-reflex camera's first core sub-interval when it visits at
// most t.steps intervals; its pieces are kept when they leave no verify
// gap (the sweep's scalar pass would verify one).  The pieces are packed
// as the batch kernel packs them: per group of 4 walks (in camera order),
// step by step, walks in order within a step.
std::size_t sweep_pieces_scalar(const SweepBatch& sb, std::size_t count, const SectorWalk& t,
                                const std::uint32_t* sat, SweepPieces& out) {
  std::fill(std::begin(out.fallback), std::end(out.fallback), 0);
  std::fill(std::begin(out.skip), std::end(out.skip), 0);
  const std::int64_t cols = sb.side;
  const auto side = static_cast<double>(sb.side);
  auto field = [&sb](std::size_t fld, std::size_t b) { return sb.fields[fld * kBatchStride + b]; };
  auto col = [&sb](std::size_t fld, std::size_t b) {
    return static_cast<std::int64_t>(sb.cols[fld * kBatchStride + b]);
  };
  auto set_bit = [](std::uint64_t* words, std::size_t b) {
    words[b / 64] |= std::uint64_t{1} << (b % 64);
  };
  // The walks: every camera that is not decided without one.
  std::vector<std::pair<std::size_t, Walk>> walks;
  for (std::size_t b = 0; b < count; ++b) {
    const auto flags = static_cast<unsigned>(col(kColFlags, b));
    const std::int64_t oc0 = col(kColOuter0, b);
    const std::int64_t oc1 = col(kColOuter1, b);
    if ((flags & kBatchReflex) != 0) {
      set_bit(out.fallback, b);
    } else if (sat != nullptr && all_saturated(sat, cols, oc0, oc1)) {
      set_bit(out.skip, b);
    } else if ((flags & kBatchCertify) == 0) {
      set_bit(out.fallback, b);
    } else if (col(kColSub0, b) > col(kColSub1, b)) {
      if (oc0 <= oc1) {  // its outer columns are all verified
        set_bit(out.fallback, b);
      }
    } else {
      const Walk w = walk_ends(t, field(kBatchDy, b), field(kBatchPaLo, b), field(kBatchPaHi, b));
      if (w.steps > t.steps) {
        set_bit(out.fallback, b);
      } else {
        walks.emplace_back(b, w);
      }
    }
  }
  struct Piece {
    std::int64_t interval = 0;
    std::int64_t c0 = 0;
    std::int64_t c1 = 0;
    bool set = false;
  };
  std::size_t n_out = 0;
  for (std::size_t g = 0; g < walks.size(); g += 4) {
    Piece staged[kMaxWalkSteps][4] = {};  // by step, then walk
    for (std::size_t lane = 0; lane < 4 && g + lane < walks.size(); ++lane) {
      const auto& [b, w] = walks[g + lane];
      std::int64_t cursor = col(kColOuter0, b);
      bool gap = false;
      walk_pieces(t, w, field(kBatchJ0, b), field(kBatchDy, b), field(kBatchMuScale, b), side,
                  col(kColSub0, b), col(kColSub1, b),
                  [&](std::size_t s, std::size_t i, std::int64_t c0, std::int64_t c1) {
                    gap = gap || c0 > cursor;
                    const std::int64_t shift = seam_shift(c0, cols);
                    staged[s][lane] = {static_cast<std::int64_t>(i), c0 + shift, c1 + shift,
                                       true};
                    cursor = c1 + 1;
                  });
      if (gap || cursor <= col(kColOuter1, b)) {
        set_bit(out.fallback, b);
        for (auto& step : staged) {
          step[lane].set = false;
        }
      }
    }
    for (const auto& step : staged) {
      for (const Piece& p : step) {
        if (p.set) {
          out.interval[n_out] = static_cast<std::int32_t>(p.interval);
          out.c0[n_out] = static_cast<std::int32_t>(p.c0);
          out.c1[n_out] = static_cast<std::int32_t>(p.c1);
          ++n_out;
        }
      }
    }
  }
  return n_out;
}

// The scalar variant, and defensively a variant this build lacks
// (resolve_kernel already rejects those), runs the scalar definitions of
// the band, interval and pair stages, and no classify or piece stage: its
// per-entry classify and the sweep's scalar pass do that work directly.
Kernels kernels_for(KernelVariant v) {
  switch (v) {
#if defined(FVC_KERNEL_AVX2)
    case KernelVariant::kAvx2:
      return {&classify_avx2, &sweep_intervals_avx2, &band_scan_avx2, &sweep_pieces_avx2,
              &stats_pairs_avx2};
#endif
    default:
      return {nullptr, &sweep_intervals_scalar, &band_scan_scalar, nullptr, &stats_pairs_scalar};
  }
}

}  // namespace detail

void GridRowStats::fold(const GridRowStats& next, bool first) {
  covered_1 += next.covered_1;
  necessary_ok += next.necessary_ok;
  full_view_ok += next.full_view_ok;
  sufficient_ok += next.sufficient_ok;
  k_covered_ok += next.k_covered_ok;
  if (first) {
    min_max_gap = next.min_max_gap;
    max_max_gap = next.max_max_gap;
  } else {
    min_max_gap = std::min(min_max_gap, next.min_max_gap);
    max_max_gap = std::max(max_max_gap, next.max_max_gap);
  }
}

RegionCoverageStats GridRowStats::region(std::size_t total_points) const {
  RegionCoverageStats stats;
  stats.total_points = total_points;
  stats.covered_1 = covered_1;
  stats.necessary_ok = necessary_ok;
  stats.full_view_ok = full_view_ok;
  stats.sufficient_ok = sufficient_ok;
  stats.k_covered_ok = k_covered_ok;
  stats.min_max_gap = min_max_gap;
  stats.max_max_gap = max_max_gap;
  return stats;
}

void GridEvalCounters::describe(obs::MetricsNode& node) const {
  node.add("points", static_cast<double>(points));
  node.add("candidates_total", static_cast<double>(candidates_total));
  node.add("directions_total", static_cast<double>(directions_total));
  node.add("trig_fallbacks", static_cast<double>(trig_fallbacks));
  node.add("atan2_calls", static_cast<double>(atan2_calls));
  node.add("occupancy_points", static_cast<double>(occupancy_points));
  node.add("swept_points", static_cast<double>(swept_points));
  node.add("sweep_rows", static_cast<double>(sweep_rows));
  node.add("sweep_camera_rows", static_cast<double>(sweep_camera_rows));
  node.add("sweep_pieces", static_cast<double>(sweep_pieces));
  node.add("sweep_verify", static_cast<double>(sweep_verify));
  node.add("sweep_skipped", static_cast<double>(sweep_skipped));
  node.add("sweep_walk_fallback", static_cast<double>(sweep_walk_fallback));
  node.add("sweep_band_ns", static_cast<double>(sweep_band_ns));
  node.add("sweep_intervals_ns", static_cast<double>(sweep_intervals_ns));
  node.add("sweep_pieces_ns", static_cast<double>(sweep_pieces_ns));
  node.add("sweep_scatter_ns", static_cast<double>(sweep_scatter_ns));
  node.add("sweep_checkpoint_ns", static_cast<double>(sweep_checkpoint_ns));
  node.add("stats_rows", static_cast<double>(stats_rows));
  node.add("stats_camera_rows", static_cast<double>(stats_camera_rows));
  node.add("stats_pairs", static_cast<double>(stats_pairs));
  node.add("stats_replays", static_cast<double>(stats_replays));
  node.add("stats_sweep_ns", static_cast<double>(stats_sweep_ns));
  node.add("stats_pairs_ns", static_cast<double>(stats_pairs_ns));
  node.add("stats_points_ns", static_cast<double>(stats_points_ns));
  node.add("stats_exact_ns", static_cast<double>(stats_exact_ns));
  node.histogram("candidates_per_point").merge(candidates_per_point);
}

GridEvalEngine::GridEvalEngine(const Network& net, const DenseGrid& grid, double theta)
    : net_(&net), grid_(grid), theta_(theta) {
  validate_theta(theta);
  implied_k_ = implied_k(theta);
  mode_ = net.mode();
  kernel_ = resolve_kernel();
  kernels_ = detail::kernels_for(kernel_);
  generation_ = next_generation();
  necessary_arcs_ = geom::sector_partition(2.0 * theta);
  sufficient_arcs_ = geom::sector_partition(theta);
  build_sector_table();
  sweep_ok_ = (sectors_.bounds.size() - 1) * (grid_.side() + 1) <= kMaxSweepCells;
  const obs::TraceScope scope("engine.build", obs::TraceCategory::kEngine,
                              "cameras", net.size());
  const std::uint64_t t0 = obs::monotonic_ns();
  compute_cells();
  build_index();
  build_ns_ = obs::monotonic_ns() - t0;
}

void GridEvalEngine::build_sector_table() {
  SectorTable& t = sectors_;
  // Boundaries: every arc's start and (real) end, plus direction 0, where
  // the oracle's directions wrap from 2*pi to 0.  Near-equal boundaries
  // may land in either order or coincide; an interval narrower than the
  // band is never used, since every direction in it is a band hit.
  const std::size_t nn = necessary_arcs_.size();
  const std::size_t ns = sufficient_arcs_.size();
  std::vector<double>& b = t.bounds;
  b.reserve(2 * (nn + ns) + 2);
  b.assign(1, 0.0);
  for (const auto* arcs : {&necessary_arcs_, &sufficient_arcs_}) {
    for (const geom::Arc& a : *arcs) {
      const double end = a.start + a.width;
      b.push_back(a.start);
      b.push_back(end >= geom::kTwoPi ? end - geom::kTwoPi : end);
    }
  }
  // Most ends repeat the next arc's start: convert each distinct angle once.
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (double& ang : b) {
    ang = pseudo_angle(std::cos(ang), std::sin(ang));
  }
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  b.erase(std::lower_bound(b.begin(), b.end(), 4.0), b.end());
  const std::size_t intervals = b.size();
  b.push_back(4.0);
  // Lookup buckets: a power-of-two count (so bucket starts are exact) of
  // at least four per interval.
  std::size_t k = 16;
  while (k < 4 * intervals && k < (std::size_t{1} << 16)) {
    k *= 2;
  }
  t.bucket_scale = static_cast<double>(k) / 4.0;
  t.bucket.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double start = static_cast<double>(i) / t.bucket_scale;
    t.bucket[i] = static_cast<std::uint32_t>(
        std::upper_bound(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(intervals),
                         start) -
        b.begin() - 1);
  }
  // Row-sweep crossings: a boundary outside the half a row's directions
  // sweep is crossed at x = -inf (the start of the sweep) or +inf (its end).
  t.fall = b.size() + detail::kWalkPad;
  t.cot.assign(2 * t.fall, 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const geom::Vec2 v = pseudo_direction(b[i]);
    const double cot = v.y != 0.0 ? v.x / v.y : 0.0;
    t.cot[i] = b[i] <= 0.0 ? kInf : (b[i] >= 2.0 ? -kInf : cot);
    t.cot[t.fall + intervals - i] = b[i] <= 2.0 ? kInf : (b[i] >= 4.0 ? -kInf : cot);
  }
  t.bucket_records.resize(detail::kBucketRecord * k);
  for (std::size_t i = 0; i < k; ++i) {
    double* const r = t.bucket_records.data() + detail::kBucketRecord * i;
    r[0] = static_cast<double>(t.bucket[i]);
    r[1] = b[t.bucket[i] + 1];
    r[2] = b[t.bucket[i]];
    r[3] = t.bucket[i] + 2 < b.size() ? b[t.bucket[i] + 2] : 4.0;
  }
  // Arc bits per interval, from the oracle's own arc predicate at the
  // interval's midpoint.  The predicate is constant across an interval
  // (no arc boundary lies inside), so this also covers the remainder arc
  // T_{k+1} and arcs wider than pi without special cases.
  t.nec_words = (nn + 63) / 64;
  t.suf_words = (ns + 63) / 64;
  const std::size_t words = t.nec_words + 2 * t.suf_words;
  t.full.assign(words, 0);
  auto bit = [](std::size_t j) { return std::uint64_t{1} << (j % 64); };
  for (std::size_t j = 0; j < nn; ++j) {
    t.full[j / 64] |= bit(j);
  }
  for (std::size_t j = 0; j < ns; ++j) {
    t.full[t.nec_words + j / 64] |= bit(j);
    t.full[t.nec_words + t.suf_words + j / 64] |= bit(j);
  }
  t.row_begin.reserve(intervals + 1);
  t.row_begin.assign(1, 0);
  t.bits.clear();
  t.bits.reserve(3 * intervals);  // typical: one word of each mask
  t.dense.clear();
  t.dense.reserve(words * intervals);
  std::vector<std::uint64_t> row(words);
  for (std::size_t i = 0; i < intervals; ++i) {
    const geom::Vec2 v = pseudo_direction(0.5 * (b[i] + b[i + 1]));
    const double d = geom::normalize_angle(std::atan2(v.y, v.x));
    std::fill(row.begin(), row.end(), 0);
    for (std::size_t j = 0; j < nn; ++j) {
      const geom::Arc& a = necessary_arcs_[j];
      if (ccw_from_normalized(a.start, d) <= a.width) {
        row[j / 64] |= bit(j);
      }
    }
    for (std::size_t j = 0; j < ns; ++j) {
      const geom::Arc& a = sufficient_arcs_[j];
      if (ccw_from_normalized(a.start, d) <= a.width) {
        row[t.nec_words + j / 64] |= bit(j);
        row[t.nec_words + t.suf_words + j / 64] |= bit(j);
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      if (row[w] != 0) {
        t.bits.push_back({static_cast<std::uint32_t>(w), row[w]});
      }
    }
    t.row_begin.push_back(static_cast<std::uint32_t>(t.bits.size()));
    t.dense.insert(t.dense.end(), row.begin(), row.end());
  }
}

std::size_t GridEvalEngine::SectorTable::locate(double v) const {
  return locate_interval(bounds.data(), bucket.data(), bucket_scale,
                         static_cast<double>(bucket.size() - 1), bounds.size() - 2, v);
}

detail::SectorWalk GridEvalEngine::SectorTable::walk() const {
  return {bounds.data(),
          bucket.data(),
          bucket_records.data(),
          cot.data(),
          bucket_scale,
          static_cast<double>(bucket.size() - 1),
          static_cast<std::uint32_t>(bounds.size() - 1),
          static_cast<std::uint32_t>(fall),
          static_cast<std::uint32_t>(
              std::min((bounds.size() - 1) / 2 + 1, detail::kMaxWalkSteps))};
}

detail::SectorWalk GridEvalEngine::sector_walk() const { return sectors_.walk(); }

void GridEvalEngine::CandSoA::resize(std::size_t n) {
  stride = n;
  data.resize(7 * n);
}

GridEvalEngine::BinOccupancy GridEvalEngine::occupancy() const {
  BinOccupancy occ;
  auto tally = [&occ](std::size_t count) {
    if (count == 0) {
      ++occ.empty_cells;
    }
    occ.max_per_cell = std::max(occ.max_per_cell, count);
  };
  // Bins are the y strips: the build-time structure (row slices are
  // per-scratch and transient).
  occ.cells = cells_;
  occ.entries = strip_entries_.size();
  for (std::size_t s = 0; s < cells_; ++s) {
    tally(strip_offsets_[s + 1] - strip_offsets_[s]);
  }
  occ.mean_per_cell = occ.cells == 0
                          ? 0.0
                          : static_cast<double>(occ.entries) /
                                static_cast<double>(occ.cells);
  return occ;
}

std::size_t GridEvalEngine::index_bytes() const {
  const std::size_t u32 = sizeof(std::uint32_t);
  return strip_offsets_.size() * u32 + strip_entries_.size() * u32 +
         cam_soa_.data.size() * sizeof(double);
}

void GridEvalEngine::describe(obs::MetricsNode& node) const {
  const BinOccupancy occ = occupancy();
  node.set("cameras", static_cast<double>(net_->size()));
  node.set("grid_side", static_cast<double>(grid_.side()));
  node.set("cells_per_side", static_cast<double>(cells_));
  node.set("cells_target", static_cast<double>(cells_target_));
  node.set("cells_clamped", cells_clamped_ ? 1.0 : 0.0);
  node.set("index_bytes", static_cast<double>(index_bytes()));
  node.set("bin_cells", static_cast<double>(occ.cells));
  node.set("bin_entries", static_cast<double>(occ.entries));
  node.set("bin_empty_cells", static_cast<double>(occ.empty_cells));
  node.set("bin_max_per_cell", static_cast<double>(occ.max_per_cell));
  node.set("bin_mean_per_cell", occ.mean_per_cell);
  // The engine's own span covers construction; evaluation time is merged
  // in by the caller (it is per scratch, not per engine).
  node.add_elapsed_ns(build_ns_);
  node.child("build").add_elapsed_ns(build_ns_);
  describe_kernel(kernel_, node);
}

void describe_kernel(KernelVariant active, obs::MetricsNode& node) {
  node.set("kernel_lanes", static_cast<double>(kernel_lanes(active)));
  node.set(std::string("kernel_") += kernel_name(active), 1.0);
}

void GridEvalEngine::compute_cells() {
  if (net_->cameras().size() > kMaxCameras) {
    throw std::invalid_argument("GridEvalEngine: too many cameras");
  }
  // Cell sizing: correctness is set-based (every candidate span is a
  // superset of the covering cameras), so the cell count only trades build
  // cost against candidate-list tightness.  Cells of about a third of the
  // sensing radius keep the per-point candidate list within ~1.5x of the
  // true in-radius count; the caps bound construction cost on tiny grids
  // and degenerate radii.
  const double r = std::max(net_->max_radius(), kMinSizingRadius);
  cells_target_ = static_cast<std::size_t>(std::ceil(kCellsPerRadius / r));
  const std::size_t cap = std::min<std::size_t>(
      kAbsoluteMaxCells, 4 * std::max<std::size_t>(1, grid_.side()));
  cells_ = std::clamp<std::size_t>(cells_target_, 1, cap);
  if (net_->cameras().empty()) {
    cells_ = 1;
  }
  cells_clamped_ = cells_ < cells_target_;
}

void GridEvalEngine::build_index() {
  const std::span<const Camera> cams = net_->cameras();
  const std::size_t n = cams.size();
  max_r_ = net_->max_radius();
  const auto sd = static_cast<double>(cells_);
  // Cameras are binned ONCE by position — no replication, so the build is
  // O(n) and entry count equals the camera count.  Candidate windows are
  // materialised per grid row into the scratch's slice (build_row_slice).
  strip_offsets_.assign(cells_ + 1, 0);
  strip_entries_.resize(n);
  std::vector<std::uint32_t> strip(n);
  for (std::size_t i = 0; i < n; ++i) {
    strip[i] = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(cams[i].position.y, 0.0) * sd),
        cells_ - 1));
    ++strip_offsets_[strip[i] + 1];
  }
  for (std::size_t s = 0; s < cells_; ++s) {
    strip_offsets_[s + 1] += strip_offsets_[s];
  }
  // The scatter also writes each camera's fused-kernel record to its pool
  // slot, so the pool is in y-strip order: a row slice reads the slot
  // ranges of the few strips its band spans instead of gathering through
  // random camera ids.  Cameras are scattered in camera order, so a strip's
  // slots stay in camera-id order, and every slice and candidate list holds
  // the same cameras in the same order whatever the pool layout.  The omni
  // marker is an all-bits-set double so the lane kernel can OR it straight
  // into its comparison masks; it is never used arithmetically.
  const double omni_mask = std::bit_cast<double>(~std::uint64_t{0});
  cam_soa_.resize(n);
  double* const f_sx = cam_soa_.mut(0);
  double* const f_sy = cam_soa_.mut(1);
  double* const f_r2 = cam_soa_.mut(2);
  double* const f_cu = cam_soa_.mut(3);
  double* const f_su = cam_soa_.mut(4);
  double* const f_q = cam_soa_.mut(5);
  double* const f_om = cam_soa_.mut(6);
  std::vector<std::uint32_t> cursor(strip_offsets_.begin(), strip_offsets_.end() - 1);
  // Lean fill (see CandSoA): no orientation trig for omni cameras, and
  // one cos(fov/2) per run of bit-equal fovs.
  std::uint64_t fov_bits = 0;
  double q = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = cursor[strip[i]]++;
    strip_entries_[slot] = static_cast<std::uint32_t>(i);
    const Camera& cam = cams[i];
    f_sx[slot] = cam.position.x;
    f_sy[slot] = cam.position.y;
    f_r2[slot] = cam.radius * cam.radius;
    const bool omni = 0.5 * cam.fov >= geom::kPi;
    f_cu[slot] = omni ? 0.0 : std::cos(cam.orientation);
    f_su[slot] = omni ? 0.0 : std::sin(cam.orientation);
    if (i == 0 || std::bit_cast<std::uint64_t>(cam.fov) != fov_bits) {
      fov_bits = std::bit_cast<std::uint64_t>(cam.fov);
      const double chs = std::cos(0.5 * cam.fov);
      q = chs * std::abs(chs);
    }
    f_q[slot] = q;
    f_om[slot] = omni ? omni_mask : 0.0;
  }
  // Slice window geometry.  The per-point x window is the real interval
  // [px - R, px + R] padded by one cell per side; the pad (>= 1/cells_)
  // swallows every floor-rounding discrepancy between the kernel's wrapped
  // fl displacement and the real-valued window, so any camera the kernel
  // can accept lies inside the window.  On the torus, `ghost_` extra cell
  // columns per slice side hold a second image of near-seam cameras; a
  // window then never contains both images of one camera (they are exactly
  // cells_ ext-cells apart, and the window is at most 2*ghost_ + 1 <
  // cells_ cells wide) — unless the band is too wide, in which case
  // `whole_row_` degrades every window to the whole slice (still
  // duplicate-free: one image per camera).
  ghost_ = static_cast<std::ptrdiff_t>(std::floor(max_r_ * sd)) + 2;
  whole_row_ = 2.0 * max_r_ + 2.0 / sd >= 1.0 ||
               static_cast<std::ptrdiff_t>(cells_) <= 2 * ghost_ + 2;
  if (mode_ == geom::SpaceMode::kPlane) {
    // No wraparound coverage: windows clamp to [0, cells_) instead.
    ghost_ = 0;
    whole_row_ = false;
  }
}

GridEvalEngine::StripBand GridEvalEngine::y_band(double y) const {
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const auto sd = static_cast<double>(cells_);
  // The strips whose cameras could be within max_r_ of y (padded one strip
  // per side; the per-camera prune decides exactly).
  std::ptrdiff_t s_lo = static_cast<std::ptrdiff_t>(std::floor((y - max_r_) * sd)) - 1;
  std::ptrdiff_t s_hi = static_cast<std::ptrdiff_t>(std::floor((y + max_r_) * sd)) + 1;
  if (mode_ == geom::SpaceMode::kTorus) {
    return {s_lo, std::min(s_hi - s_lo + 1, s_count)};
  }
  s_lo = std::clamp<std::ptrdiff_t>(s_lo, 0, s_count - 1);
  s_hi = std::clamp<std::ptrdiff_t>(s_hi, 0, s_count - 1);
  return {s_lo, s_hi - s_lo + 1};
}

std::size_t GridEvalEngine::band_strip(const StripBand& band, std::ptrdiff_t k,
                                       bool alternate) const {
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const std::ptrdiff_t mid = band.span / 2;
  const std::ptrdiff_t is = !alternate ? k : (k % 2 == 0 ? mid + k / 2 : mid - 1 - k / 2);
  return static_cast<std::size_t>((((band.lo + is) % s_count) + s_count) % s_count);
}

double GridEvalEngine::band_dy(double y, double sy) const {
  return unwrap_dy(y, sy, mode_ == geom::SpaceMode::kTorus);
}

template <class Fn>
void GridEvalEngine::for_each_in_y_band(double y, Fn&& fn) const {
  const StripBand band = y_band(y);
  const double* const cam_sy = cam_soa_.sy();
  const double* const cam_r2 = cam_soa_.r2();
  for (std::ptrdiff_t k = 0; k < band.span; ++k) {
    const std::size_t s = band_strip(band, k, false);
    const std::uint32_t lo = strip_offsets_[s];
    const std::uint32_t hi = strip_offsets_[s + 1];
    for (std::uint32_t e = lo; e < hi; ++e) {
      // Exact y prune, using the kernel's own displacement sequence: the
      // fused distance test satisfies fl(fl(dx^2) + fl(dy^2)) >= fl(dy^2)
      // (rounding is monotone, fl(dx^2) >= 0), so fl(dy^2) > r^2 implies
      // the kernel rejects this camera at every point at this y — dropping
      // it cannot change any covered set.
      const double dy = band_dy(y, cam_sy[e]);
      if (dy * dy > cam_r2[e]) {
        continue;
      }
      if (!fn(e, dy)) {
        return;
      }
    }
  }
}

void GridEvalEngine::gather_y_band(double y, std::vector<std::uint32_t>& out) const {
  for_each_in_y_band(y, [&out](std::uint32_t e, double) {
    out.push_back(e);
    return true;
  });
}

void GridEvalEngine::build_row_slice(std::size_t row, GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  const double py = grid_.point(row, 0).y;
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const auto sd = static_cast<double>(cells_);
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  // 1. The pool slots of the cameras whose disc can reach the row's y.
  std::vector<std::uint32_t>& surv = sl.survivors;
  surv.clear();
  gather_y_band(py, surv);
  // 2. Bucket survivors by extended x cell (main image + at most one ghost
  //    image per seam side) so every point window is one contiguous,
  //    duplicate-free range.
  const std::ptrdiff_t g = (torus && !whole_row_) ? ghost_ : 0;
  const std::size_t ecells = whole_row_ ? 1 : cells_ + static_cast<std::size_t>(2 * g);
  sl.offsets.assign(ecells + 1, 0);
  const double* const cam_sx = cam_soa_.sx();
  auto xcell_of = [&](std::uint32_t slot) {
    return static_cast<std::ptrdiff_t>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(cam_sx[slot], 0.0) * sd), cells_ - 1));
  };
  if (whole_row_) {
    sl.offsets[1] = static_cast<std::uint32_t>(surv.size());
    sl.ids.assign(surv.begin(), surv.end());
  } else {
    for (const std::uint32_t slot : surv) {
      const std::ptrdiff_t cx = xcell_of(slot);
      ++sl.offsets[static_cast<std::size_t>(cx + g) + 1];
      if (g != 0 && cx < g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g + s_count) + 1];
      }
      if (g != 0 && cx >= s_count - g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g - s_count) + 1];
      }
    }
    for (std::size_t b = 0; b < ecells; ++b) {
      sl.offsets[b + 1] += sl.offsets[b];
    }
    sl.ids.resize(sl.offsets[ecells]);
    sl.cursors.assign(sl.offsets.begin(), sl.offsets.end() - 1);
    for (const std::uint32_t slot : surv) {
      const std::ptrdiff_t cx = xcell_of(slot);
      sl.ids[sl.cursors[static_cast<std::size_t>(cx + g)]++] = slot;
      if (g != 0 && cx < g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g + s_count)]++] = slot;
      }
      if (g != 0 && cx >= s_count - g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g - s_count)]++] = slot;
      }
    }
  }
  // 3. Copy the slice's compact SoA out of the band's strips of the pool.
  sl.stride = sl.ids.size();
  copy_records(sl.ids, sl.soa);
  sl.engine_gen = generation_;
  sl.row = row;
}

void GridEvalEngine::copy_records(std::vector<std::uint32_t>& ids,
                                  std::vector<double>& soa) const {
  // Field by field: sequential writes, and reads that run forward through
  // the few strips a band spans.
  const std::size_t total = ids.size();
  soa.resize(7 * total);
  for (std::size_t f = 0; f < 7; ++f) {
    double* const dst = soa.data() + f * total;
    const double* const src = cam_soa_.data.data() + f * cam_soa_.stride;
    for (std::size_t w = 0; w < total; ++w) {
      dst[w] = src[ids[w]];
    }
  }
  for (std::uint32_t& id : ids) {
    id = strip_entries_[id];
  }
}

GridEvalEngine::CandView GridEvalEngine::point_view(std::size_t row,
                                                    const geom::Vec2& p,
                                                    GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  if (sl.engine_gen != generation_ || sl.row != row) {
    build_row_slice(row, scratch);
  }
  std::size_t lo = 0;
  std::size_t hi = 0;
  if (whole_row_) {
    hi = sl.ids.size();
  } else {
    const auto sd = static_cast<double>(cells_);
    std::ptrdiff_t xlo =
        static_cast<std::ptrdiff_t>(std::floor((p.x - max_r_) * sd)) - 1;
    std::ptrdiff_t xhi =
        static_cast<std::ptrdiff_t>(std::floor((p.x + max_r_) * sd)) + 1;
    if (mode_ == geom::SpaceMode::kPlane) {
      xlo = std::clamp<std::ptrdiff_t>(xlo, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
      xhi = std::clamp<std::ptrdiff_t>(xhi, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
    } else {
      xlo += ghost_;
      xhi += ghost_;
    }
    lo = sl.offsets[static_cast<std::size_t>(xlo)];
    hi = sl.offsets[static_cast<std::size_t>(xhi) + 1];
  }
  return {sl.soa.data() + lo, sl.stride, sl.ids.data() + lo, hi - lo};
}

std::span<const std::uint32_t> GridEvalEngine::candidates(const geom::Vec2& p) const {
  // No per-point table exists: answer from the strip index with the exact
  // y prune at p (so every covering camera survives).  Unfiltered in x —
  // still a duplicate-free superset, each camera is binned exactly once.
  static thread_local std::vector<std::uint32_t> buf;
  buf.clear();
  gather_y_band(p.y, buf);
  for (std::uint32_t& id : buf) {
    id = strip_entries_[id];
  }
  return {buf.data(), buf.size()};
}

std::size_t GridEvalEngine::point_candidate_count(std::size_t row, std::size_t col,
                                                  GridEvalScratch& scratch) const {
  return point_view(row, grid_.point(row, col), scratch).count;
}

void GridEvalEngine::classify_entry(const CandView& view, std::size_t e,
                                    const geom::Vec2& p, GridEvalScratch& scratch,
                                    std::size_t& m) const {
  const EntryClass c =
      classify_scalar(view, e, p, mode_ == geom::SpaceMode::kTorus, net_->cameras());
  if (c.band_hit && scratch.counters != nullptr) [[unlikely]] {
    ++scratch.counters->trig_fallbacks;
  }
  if (c.covered & (c.n2 == 0.0)) [[unlikely]] {  // point at the camera
    scratch.angles.push_back(0.0);
    return;
  }
  // Branchless compaction: always write, advance on coverage.
  scratch.dxs[m] = c.dx;
  scratch.dys[m] = c.dy;
  m += static_cast<std::size_t>(c.covered);
}

void GridEvalEngine::classify_range(const geom::Vec2& p, const CandView& view,
                                    std::size_t begin, std::size_t end,
                                    GridEvalScratch& scratch, std::size_t& m) const {
  std::size_t e = begin;
  // Lane-parallel classify over whole lane groups of the range.  Lanes the
  // kernel flags as special — exact-arithmetic band hits and zero-distance
  // hits — are replayed through the scalar path, which re-derives their
  // classification (and counters) exactly as the scalar kernel would.
  // The kernel's full-width left-pack writes stay inside dxs/dys: m never
  // exceeds the entries classified so far (at most one displacement per
  // entry), and those plus this range fit in the span.
  if (kernels_.classify != nullptr) {
    const std::size_t vec_n = (end - begin) & ~std::size_t{3};
    if (vec_n != 0) {
      const detail::CandSpans spans{view.sx() + begin, view.sy() + begin,
                                    view.r2() + begin, view.cu() + begin,
                                    view.su() + begin, view.q() + begin,
                                    view.omni() + begin};
      const detail::ClassifyResult res =
          kernels_.classify(spans, vec_n, p.x, p.y, mode_ == geom::SpaceMode::kTorus,
                    scratch.dxs.data() + m, scratch.dys.data() + m,
                    scratch.special.data());
      m += res.covered;
      for (std::size_t j = 0; j < res.special; ++j) {
        classify_entry(view, begin + scratch.special[j], p, scratch, m);
      }
      e = begin + vec_n;
    }
  }
  // Scalar path: the whole range (scalar variant), or the remainder tail
  // (vector variants).
  for (; e < end; ++e) {
    classify_entry(view, e, p, scratch, m);
  }
}

void GridEvalEngine::emit_directions(GridEvalScratch& scratch, std::size_t m) {
  // atan2 (the single most expensive operation) runs in its own tight loop
  // over the covered survivors instead of stalling the classify pipeline.
  // The oracle's `normalize_angle(dir_sp + pi)` reduces to a branch because
  // fmod is the identity on [0, 2*pi).  One resize + raw writes, so the
  // loop carries no per-element capacity check.
  std::vector<double>& out = scratch.angles;
  const double* const xs = scratch.dxs.data();
  const double* const ys = scratch.dys.data();
  const std::size_t base = out.size();
  out.resize(base + m);
  double* const emit = out.data() + base;
  for (std::size_t j = 0; j < m; ++j) {
    const double v = std::atan2(ys[j], xs[j]) + geom::kPi;
    emit[j] = v >= geom::kTwoPi ? 0.0 : v;
  }
  if (scratch.counters != nullptr) [[unlikely]] {
    scratch.counters->atan2_calls += m;
  }
}

void GridEvalEngine::gather_directions(const geom::Vec2& p, const CandView& view,
                                       GridEvalScratch& scratch) const {
  const std::size_t cnt = view.count;
  // Metrics are per point (one pointer test), never per candidate.
  GridEvalCounters* const ctr = scratch.counters;
  const std::size_t out_before = scratch.angles.size();
  if (ctr != nullptr) [[unlikely]] {
    ++ctr->points;
    ctr->candidates_total += cnt;
    ctr->candidates_per_point.add(cnt);
  }
  reserve_point(scratch, cnt);
  std::size_t m = 0;
  classify_range(p, view, 0, cnt, scratch, m);
  emit_directions(scratch, m);
  if (ctr != nullptr) [[unlikely]] {
    ctr->directions_total += scratch.angles.size() - out_before;
  }
}

void GridEvalEngine::occupy_exact(double d, std::uint64_t* mask) const {
  const std::size_t wn = sectors_.nec_words;
  for (std::size_t j = 0; j < necessary_arcs_.size(); ++j) {
    const geom::Arc& a = necessary_arcs_[j];
    if (ccw_from_normalized(a.start, d) <= a.width) {
      mask[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  for (std::size_t j = 0; j < sufficient_arcs_.size(); ++j) {
    const geom::Arc& a = sufficient_arcs_[j];
    if (ccw_from_normalized(a.start, d) <= a.width) {
      mask[wn + j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
}

bool GridEvalEngine::occupy_direction(double v, double dx, double dy,
                                      std::uint64_t* mask) const {
  const SectorTable& t = sectors_;
  const std::size_t i = t.locate(v);
  if (v - t.bounds[i] <= kOccupancyBand || t.bounds[i + 1] - v <= kOccupancyBand) [[unlikely]] {
    const double a = std::atan2(dy, dx) + geom::kPi;
    occupy_exact(a >= geom::kTwoPi ? 0.0 : a, mask);
    return true;
  }
  for (std::uint32_t r = t.row_begin[i]; r < t.row_begin[i + 1]; ++r) {
    mask[t.bits[r].word] |= t.bits[r].bits;
  }
  return false;
}

std::uint64_t GridEvalEngine::occupy_directions(GridEvalScratch& scratch, std::size_t m) const {
  std::uint64_t* const mask = scratch.masks.data();
  const double* const xs = scratch.dxs.data();
  const double* const ys = scratch.dys.data();
  std::uint64_t exact = 0;
  // Pseudo-angles first, in a loop with independent iterations, then the
  // table lookups.  The viewed direction is the angle of the point ->
  // camera vector.
  double* const pa = scratch.pseudo.data();
  for (std::size_t j = 0; j < m; ++j) {
    pa[j] = pseudo_angle(-xs[j], -ys[j]);
  }
  for (std::size_t j = 0; j < m; ++j) {
    exact += static_cast<std::uint64_t>(occupy_direction(pa[j], xs[j], ys[j], mask));
  }
  return exact;
}

GridEvalEngine::Predicates GridEvalEngine::decide_point(
    const geom::Vec2& p, const CandView& view, Predicates need,
    GridEvalScratch& scratch) const {
  const SectorTable& t = sectors_;
  const std::size_t wn = t.nec_words;
  const std::size_t ws = t.suf_words;
  const std::size_t words = wn + 2 * ws;
  const std::uint64_t* const full = t.full.data();
  scratch.masks.assign(words, 0);
  std::uint64_t* const mask = scratch.masks.data();
  const std::size_t cnt = view.count;
  reserve_point(scratch, cnt);
  scratch.angles.clear();
  std::size_t m = 0;
  classify_range(p, view, 0, cnt, scratch, m);
  const std::size_t zeros = scratch.angles.size();  // cameras at the point
  if (zeros != 0) {
    occupy_exact(0.0, mask);
  }
  const std::uint64_t exact = occupy_directions(scratch, m);
  Predicates d;
  d.necessary = words_full(mask, full, 0, wn);
  d.sufficient = words_full(mask, full, wn, wn + ws);
  d.full_view = words_full(mask, full, wn + ws, words);
  // Full view not proven by occupancy (and still asked for): the
  // compacted displacements are the whole covering set.  Skipped when a
  // needed necessary bit already failed: the caller then ignores it.
  const bool sorted_path =
      need.full_view && !d.full_view && (d.necessary || !need.necessary);
  if (sorted_path) {
    emit_directions(scratch, m);
    sort_directions(scratch);
    const std::span<const double> dirs = scratch.angles;
    d.full_view = !dirs.empty() && max_gap_sorted(dirs).width <= 2.0 * theta_;
  }
  if (GridEvalCounters* const ctr = scratch.counters; ctr != nullptr) [[unlikely]] {
    ++ctr->points;
    ctr->candidates_total += cnt;
    ctr->candidates_per_point.add(cnt);
    ctr->directions_total += m + zeros;
    ctr->atan2_calls += exact;
    ctr->occupancy_points += static_cast<std::uint64_t>(!sorted_path && exact == 0);
  }
  return d;
}

void GridEvalEngine::sweep_constants(const std::uint32_t* slots, std::size_t count,
                                     std::uint8_t* ready, double* consts) const {
  const auto side = static_cast<double>(grid_.side());
  const double* const f_sx = cam_soa_.sx();
  const double* const f_cu = cam_soa_.cu();
  const double* const f_su = cam_soa_.su();
  const double* const f_q = cam_soa_.q();
  const double* const f_om = cam_soa_.omni();
  auto set_kind = [](double* k, unsigned bits) {
    k[kConstKind] = std::bit_cast<double>(std::uint64_t{bits});
  };
  // Core and outer wedges per run of bit-equal q (runs follow the
  // deployment's camera groups).
  std::uint64_t q_bits = 0;
  bool q_run = false;
  Wedge core_w;
  Wedge outer_w;
  for (std::size_t b = 0; b < count; ++b) {
    const std::uint32_t slot = slots[b];
    if (ready != nullptr && ready[slot] != 0) {
      continue;
    }
    double* const k = consts + (ready != nullptr ? std::size_t{slot} : b) * kConstStride;
    if (ready != nullptr) {
      ready[slot] = 1;
    }
    k[kConstJ0] = f_sx[slot] * side - 0.5;
    k[kConstCm] = k[kConstCp] = k[kConstOm] = k[kConstOp] = 0.0;
    if (std::bit_cast<std::uint64_t>(f_om[slot]) != 0) {
      set_kind(k, kKindUnbounded);
      continue;
    }
    const double q = f_q[slot];
    if (!q_run || std::bit_cast<std::uint64_t>(q) != q_bits) {
      q_run = true;
      q_bits = std::bit_cast<std::uint64_t>(q);
      core_w = wedge_of(q + kWedgeMargin);
      outer_w = wedge_of(q - kWedgeMargin);
    }
    // Each cone's edge rays e- and e+: its axis (the orientation, or its
    // opposite for a blind cone) rotated by -+ its half-angle.
    const double cu = f_cu[slot];
    const double su = f_su[slot];
    const double cmx = cu * core_w.c + su * core_w.s;
    const double cmy = su * core_w.c - cu * core_w.s;
    const double cpx = cu * core_w.c - su * core_w.s;
    const double cpy = su * core_w.c + cu * core_w.s;
    const double omx = cu * outer_w.c + su * outer_w.s;
    const double omy = su * outer_w.c - cu * outer_w.s;
    const double opx = cu * outer_w.c - su * outer_w.s;
    const double opy = su * outer_w.c + cu * outer_w.s;
    const double min_y = std::min(std::min(std::abs(cmy), std::abs(cpy)),
                                  std::min(std::abs(omy), std::abs(opy)));
    if (min_y < kMinEdgeY) {
      set_kind(k, kKindUnbounded | kKindNoCore);  // the whole outer chord is verified
      continue;
    }
    // d = (x, dy) lies in the convex cone from e- to e+ iff
    // cross(e-, d) = e-.x dy - e-.y x >= 0 and
    // cross(d, e+) = e+.y x - e+.x dy >= 0: two half-lines in x, with
    // their ends at x = dy * e.x / e.y (four reciprocals, one divide).
    // The first is a lower bound when e-.y < 0, the second when e+.y > 0.
    const double pc = cmy * cpy;
    const double po = omy * opy;
    const double inv = 1.0 / (pc * po);
    const double inv_c = inv * po;
    const double inv_o = inv * pc;
    k[kConstCm] = cmx * (inv_c * cpy);
    k[kConstCp] = cpx * (inv_c * cmy);
    k[kConstOm] = omx * (inv_o * opy);
    k[kConstOp] = opx * (inv_o * omy);
    auto edge = [](bool lower) { return lower ? unsigned{kEdgeLower} : unsigned{kEdgeUpper}; };
    unsigned bits = (edge(cmy < 0.0) << kShiftCm) | (edge(cpy > 0.0) << kShiftCp);
    if (outer_w.all) {
      bits |= (kEdgeNone << kShiftOm) | (kEdgeNone << kShiftOp);
    } else {
      bits |= (edge(omy < 0.0) << kShiftOm) | (edge(opy > 0.0) << kShiftOp);
      bits |= outer_w.reflex ? kKindOuterReflex : 0U;
    }
    bits |= (core_w.none ? kKindNoCore : 0U) | (core_w.reflex ? kKindCoreReflex : 0U);
    set_kind(k, bits);
  }
}

void GridEvalEngine::sweep_row(std::size_t row, Predicates need,
                               GridEvalScratch& scratch) const {
  GridEvalScratch::RowSweep& sw = scratch.sweep;
  const auto need_bits = static_cast<std::uint8_t>(
      static_cast<unsigned>(need.necessary) | (static_cast<unsigned>(need.full_view) << 1U) |
      (static_cast<unsigned>(need.sufficient) << 2U));
  if (sw.engine_gen == generation_ && sw.row == row && (need_bits & ~sw.need) == 0) {
    return;
  }
  const SectorTable& t = sectors_;
  const std::size_t cols = grid_.side();
  const auto cols_i = static_cast<std::int64_t>(cols);
  const std::size_t wn = t.nec_words;
  const std::size_t ws = t.suf_words;
  const std::size_t words = wn + 2 * ws;
  const std::size_t intervals = t.bounds.size() - 1;
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  const std::size_t n = cam_soa_.stride;
  // The difference arrays are all zero between sweeps (the flush below
  // clears what it reads), so only growth needs zero-filling.
  sw.diff.resize(intervals * (cols + 1), 0);
  sw.touched.resize(intervals, 0);
  sw.verify_cols.clear();
  sw.verify_entries.clear();
  sw.rest.clear();
  sw.masks.assign(words * cols, 0);
  sw.saturated.assign(2 * cols + 1, 0);
  sw.column_bits.resize(cols);
  if (sw.const_gen != generation_) {
    sw.const_gen = generation_;
    sw.ready.assign(n, 0);
    sw.consts.resize(kConstStride * n);
  }
  sw.batch_slots.resize(kBatchStride);
  sw.batch.resize(kBatchFields * kBatchStride);
  sw.batch_cols.resize(kColFields * kBatchStride);

  // Pieces and verify pairs, as plain values (no captures to chase in the
  // hot loops).  Column ranges are unwrapped integers c (the column is c
  // mod cols on the torus), at most cols wide since every handled chord
  // is under 1.
  struct Cut {
    GridEvalScratch::RowSweep* sw;
    std::int32_t* diff;
    std::uint32_t* touched;
    std::size_t cols;
    std::int64_t cols_i;
    double side;
    bool torus;
    std::uint64_t pieces = 0;
    std::uint64_t verify = 0;

    // A piece with c0 in [0, cols) into interval i's counts; one running
    // past the seam also counts from column 0 to c1 - cols.
    void scatter(std::size_t i, std::int64_t c0, std::int64_t c1) {
      std::int32_t* const d = diff + i * (cols + 1);
      ++d[c0];
      if (c1 < cols_i) [[likely]] {
        --d[c1 + 1];
      } else {
        ++d[0];
        --d[c1 + 1 - cols_i];
      }
      touched[i] = 1;
      ++pieces;
    }
    void piece(std::size_t i, std::int64_t c0, std::int64_t c1) {
      const std::int64_t shift = seam_shift(c0, cols_i);
      scatter(i, c0 + shift, c1 + shift);
    }
    void verify_range(std::uint32_t slot, std::int64_t c0, std::int64_t c1) {
      if (c0 <= c1) [[unlikely]] {
        verify += append_verify(*sw, slot, c0, c1, cols_i);
      }
    }
    // Columns c with x displacement in [lo, hi]: c in [ceil(j(lo)),
    // floor(j(hi))] for j(x) = j0 + x * cols, j0 = sx * cols - 0.5.  The
    // clamp only touches x outside every chord (|x| <= 2 there), keeping
    // the conversion defined for the infinite ends of empty intervals.
    [[nodiscard]] std::int64_t col_lo(double j0, double x) const {
      const std::int64_t c = ceil_to_int(j0 + std::min(std::max(x, -4.0), 4.0) * side);
      return torus ? c : std::max<std::int64_t>(c, 0);
    }
    [[nodiscard]] std::int64_t col_hi(double j0, double x) const {
      const std::int64_t c = floor_to_int(j0 + std::min(std::max(x, -4.0), 4.0) * side);
      return torus ? c : std::min<std::int64_t>(c, cols_i - 1);
    }
    // A core sub-interval's pieces, by the crossing walk, and the columns
    // from `cursor` on that no piece claims as verify pairs.  Returns
    // whether the walk visits more intervals than the piece stage walks.
    bool certify(const detail::SectorWalk& t, std::uint32_t slot, double j0, double dy,
                 double mu_scale, double pa_l, double pa_r, std::int64_t c_first,
                 std::int64_t c_last, std::int64_t& cursor) {
      const Walk w = walk_ends(t, dy, pa_l, pa_r);
      walk_pieces(t, w, j0, dy, mu_scale, side, c_first, c_last,
                  [&](std::size_t, std::size_t i, std::int64_t start, std::int64_t end) {
                    verify_range(slot, cursor, start - 1);
                    piece(i, start, end);
                    cursor = end + 1;
                  });
      return w.steps > t.steps;
    }
  };
  Cut cut{&sw, sw.diff.data(), sw.touched.data(), cols, cols_i, static_cast<double>(cols), torus};

  // Fold the pending difference arrays into the masks (word-major: word
  // w of column c at w * cols + c): the prefix sums of each touched
  // interval's counts give the columns it certifies, which take its bits;
  // the counts are zeroed for the next flush.
  std::int32_t* const diff = sw.diff.data();
  std::uint32_t* const touched = sw.touched.data();
  std::uint64_t* const masks = sw.masks.data();
  std::uint32_t* const sat = sw.saturated.data();
  std::uint64_t* const col_bits = sw.column_bits.data();
  const std::uint64_t* const full = t.full.data();
  auto flush = [&] {
    for (std::size_t i = 0; i < intervals; ++i) {
      if (touched[i] == 0) {
        continue;
      }
      std::int32_t* const d = diff + i * (cols + 1);
      std::int32_t run = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        run += d[c];
        d[c] = 0;
        col_bits[c] = std::uint64_t{0} - static_cast<std::uint64_t>(run > 0);
      }
      d[cols] = 0;
      for (std::uint32_t r = t.row_begin[i]; r < t.row_begin[i + 1]; ++r) {
        const std::uint64_t bits = t.bits[r].bits;
        std::uint64_t* const mw = masks + t.bits[r].word * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          mw[c] |= bits & col_bits[c];
        }
      }
      touched[i] = 0;
    }
  };
  // Column saturation: a column whose needed mask words are all full
  // decides every needed predicate as true whatever the remaining cameras
  // would add, so a camera whose outer columns are all saturated changes
  // no needed answer and is skipped.  A checkpoint before the
  // (4 * cols)-th camera of the row (also the (2 * cols)-th when only
  // the necessary condition is needed), then before every (2 * cols)-th
  // from the (8 * cols)-th on, flushes the counts and recounts the
  // saturated columns; a row whose columns all saturate stops there.
  bool skipping = false;
  auto checkpoint = [&] {
    flush();
    std::fill(col_bits, col_bits + cols, ~std::uint64_t{0});
    for (std::size_t w = 0; w < words; ++w) {
      const bool needed = w < wn ? need.necessary
                                 : (w < wn + ws ? need.sufficient : need.full_view);
      if (!needed) {
        continue;
      }
      const std::uint64_t fw = full[w];
      const std::uint64_t* const mw = masks + w * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        col_bits[c] &= std::uint64_t{0} - static_cast<std::uint64_t>((mw[c] & fw) == fw);
      }
    }
    for (std::size_t c = 0; c < 2 * cols; ++c) {  // the row twice: ranges wrap
      sat[c + 1] = sat[c] + static_cast<std::uint32_t>(col_bits[c < cols ? c : c - cols] & 1U);
    }
    skipping = sat[cols] != 0;
    return sat[cols] == cols;
  };

  const double* const f_r2 = cam_soa_.r2();
  std::uint32_t* const b_slot = sw.batch_slots.data();
  double* const sw_batch = sw.batch.data();
  double* const b_dy = sw_batch + kBatchDy * kBatchStride;
  double* const b_r2 = sw_batch + kBatchR2 * kBatchStride;
  const double* const b_palo = sw_batch + kBatchPaLo * kBatchStride;
  const double* const b_pahi = sw_batch + kBatchPaHi * kBatchStride;
  const double* const b_mus = sw_batch + kBatchMuScale * kBatchStride;
  const double* const b_j0 = sw_batch + kBatchJ0 * kBatchStride;
  const std::int32_t* const b_oc0 = sw.batch_cols.data() + kColOuter0 * kBatchStride;
  const std::int32_t* const b_oc1 = sw.batch_cols.data() + kColOuter1 * kBatchStride;
  const std::int32_t* const b_sc0 = sw.batch_cols.data() + kColSub0 * kBatchStride;
  const std::int32_t* const b_sc1 = sw.batch_cols.data() + kColSub1 * kBatchStride;
  const std::int32_t* const b_flags = sw.batch_cols.data() + kColFlags * kBatchStride;
  // Pass 1, straight-line per camera, in the dispatched kernel
  // (`detail::sweep_intervals_scalar` defines it).
  const detail::SweepBatch batch{b_slot,   sw.consts.data(), sw_batch, sw.batch_cols.data(),
                                 static_cast<std::int32_t>(cols), torus};

  // Pass 2: the dispatched piece stage walks most cameras and packs their
  // pieces, which only add to the difference arrays, so their order does
  // not matter; the cameras it leaves to this scalar pass run in camera
  // order, so the verify pairs keep it.  The scalar kernel has no piece
  // stage (`detail::sweep_pieces_scalar` defines what the batch kernel
  // computes): the scalar pass takes every camera.
  const detail::SectorWalk walk = t.walk();
  sw.batch_pieces.resize(3 * kPieceCap);
  detail::SweepPieces packed{sw.batch_pieces.data(), sw.batch_pieces.data() + kPieceCap,
                             sw.batch_pieces.data() + 2 * kPieceCap, {}, {}};
  // Stage clocks, read once per batch and checkpoint on metered scans only.
  GridEvalCounters* const ctr = scratch.counters;
  std::uint64_t t_mark = ctr != nullptr ? obs::monotonic_ns() : 0;
  std::uint64_t band_ns = 0;
  std::uint64_t intervals_ns = 0;
  std::uint64_t pieces_ns = 0;
  std::uint64_t scatter_ns = 0;
  std::uint64_t checkpoint_ns = 0;
  auto lap = [&](std::uint64_t& stage) {
    if (ctr != nullptr) [[unlikely]] {
      const std::uint64_t t = obs::monotonic_ns();
      stage += t - t_mark;
      t_mark = t;
    }
  };
  std::uint64_t n_skipped = 0;
  std::uint64_t n_fallback = 0;
  auto pieces_pass = [&](std::size_t count) {
    if (kernels_.pieces != nullptr) {
      const std::size_t n_pieces =
          kernels_.pieces(batch, count, walk, skipping ? sat : nullptr, packed);
      lap(pieces_ns);
      for (std::size_t k = 0; k < n_pieces; ++k) {
        cut.scatter(static_cast<std::size_t>(packed.interval[k]), packed.c0[k], packed.c1[k]);
      }
      for (std::size_t w = 0; w < kSweepBatch / 64; ++w) {
        n_skipped += static_cast<std::uint64_t>(std::popcount(packed.skip[w]));
        n_fallback += static_cast<std::uint64_t>(std::popcount(packed.fallback[w]));
      }
    } else {
      for (std::size_t w = 0; w < kSweepBatch / 64; ++w) {  // bits [0, count)
        const std::size_t n = count > 64 * w ? std::min<std::size_t>(count - 64 * w, 64) : 0;
        packed.fallback[w] = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      }
    }
    // The scalar pass, in camera order: a camera whose outer columns are
    // all saturated is skipped; a reflex wedge gets both outer parts, each
    // with both core sub-intervals walked; any other camera part 0's first
    // core sub-interval, from pass 1.  The columns no piece claims are
    // verified.  With no piece stage, `n_fallback` counts the cameras the
    // stage would hand back (reflex, uncertified, too long a walk or a
    // verify gap), so it reads the same under every kernel, which the
    // sweep fuzz checks.
    std::uint64_t back_rule = 0;
    for (std::size_t w = 0; w < kSweepBatch / 64; ++w) {
      for (std::uint64_t bits = packed.fallback[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint32_t slot = b_slot[b];
        const auto flags = static_cast<unsigned>(b_flags[b]);
        const double j0 = b_j0[b];
        const double dy = b_dy[b];
        const std::int64_t oc0 = b_oc0[b];
        const std::int64_t oc1 = b_oc1[b];
        const bool certify = (flags & kBatchCertify) != 0;
        std::int64_t cursor = oc0;
        const std::int64_t sc0 = b_sc0[b];
        const std::int64_t sc1 = b_sc1[b];
        if ((flags & kBatchReflex) == 0) {
          if (skipping && all_saturated(sat, cols_i, oc0, oc1)) {
            ++n_skipped;
            continue;
          }
          const std::uint64_t verified = cut.verify;
          bool back = !certify;
          if (certify && sc0 <= sc1) {
            back = cut.certify(walk, slot, j0, dy, b_mus[b], b_palo[b], b_pahi[b], sc0, sc1,
                               cursor);
          }
          cut.verify_range(slot, cursor, oc1);
          back_rule += static_cast<std::uint64_t>(back || cut.verify != verified);
          continue;
        }
        ++back_rule;
        const double* const f = sw_batch + b;
        const double lo1 = f[kBatchLo1 * kBatchStride];
        const double hi1 = f[kBatchHi1 * kBatchStride];
        const double c_lo = f[kBatchCoreLo * kBatchStride];
        const double c_hi = f[kBatchCoreHi * kBatchStride];
        const double bl = f[kBatchBlindLo * kBatchStride];
        const double bh = f[kBatchBlindHi * kBatchStride];
        const bool two = lo1 <= hi1;
        const std::int64_t pc0 = two ? cut.col_lo(j0, lo1) : 0;
        const std::int64_t pc1 = two ? cut.col_hi(j0, hi1) : -1;
        if (skipping && all_saturated(sat, cols_i, oc0, oc1) &&
            all_saturated(sat, cols_i, pc0, pc1)) {
          ++n_skipped;
          continue;
        }
        // The other sub-intervals are cut here (pseudo-angles as in pass 1).
        const double pa_base = dy < 0.0 ? 1.0 : 3.0;
        const double pa_sign = dy < 0.0 ? 1.0 : -1.0;
        const double ady = std::abs(dy);
        auto pa = [&](double x) { return pa_base + pa_sign * (x / (std::abs(x) + ady)); };
        auto sub = [&](double l, double h, std::int64_t& at, std::int64_t c_last) {
          if (certify && l <= h) {
            const std::int64_t c0 = std::max(cut.col_lo(j0, l), at);
            const std::int64_t c1 = std::min(cut.col_hi(j0, h), c_last);
            if (c0 <= c1) {
              cut.certify(walk, slot, j0, dy, b_mus[b], pa(l), pa(h), c0, c1, at);
            }
          }
        };
        if (certify && sc0 <= sc1) {
          cut.certify(walk, slot, j0, dy, b_mus[b], b_palo[b], b_pahi[b], sc0, sc1, cursor);
        }
        const double lo0 = f[kBatchLo0 * kBatchStride];
        const double hi0 = f[kBatchHi0 * kBatchStride];
        sub(std::max(std::max(c_lo, lo0), bh), std::min(c_hi, hi0), cursor, oc1);
        cut.verify_range(slot, cursor, oc1);
        if (pc0 <= pc1) {
          cursor = pc0;
          const double clo = std::max(c_lo, lo1);
          const double chi = std::min(c_hi, hi1);
          sub(clo, std::min(chi, bl), cursor, pc1);
          sub(std::max(clo, bh), chi, cursor, pc1);
          cut.verify_range(slot, cursor, pc1);
        }
      }
    }
    if (kernels_.pieces == nullptr) {
      n_fallback += back_rule;
    }
  };

  // The band's cameras, strips from the row outwards, alternating sides
  // (so on dense rows long chords on both sides come first): the exact y
  // prune of `for_each_in_y_band`, as the dispatched kernel's band
  // compaction (`detail::band_scan_scalar` defines it), fills batches,
  // cut at the checkpoints, and each batch runs both passes.
  //
  // Finishing: when a checkpoint leaves few columns open (not saturated),
  // the sweep stops and keeps the pool ranges of the band's remaining
  // cameras; each open column's point classifies them exactly, with the
  // vector kernel, on top of its certified bits and verify list (see
  // `decide_swept`), so its masks still cover exactly its covering set.
  // It finishes when at most a quarter of the columns are open and
  // classifying the band ahead at each open column costs no more than
  // sweeping 2 * cols more cameras (the gap to the next checkpoint, at
  // about kFinishRatio slot classifies each); on a dense row, where the
  // band ahead is long, the sweep goes on and likely saturates first.
  const double y = grid_.point(row, 0).y;
  const StripBand band = y_band(y);
  const double* const cam_sy = cam_soa_.sy();
  std::size_t fill = 0;
  std::size_t seen = 0;  // band cameras past the y prune
  std::size_t processed = 0;
  std::size_t rest_slots = 0;
  // The necessary words alone (wide 2*theta arcs) fill early, so a
  // necessary-only sweep checks once sooner.
  std::size_t next_check = (need.full_view || need.sufficient ? 4 : 2) * cols - 1;
  bool saturated = false;
  bool stopped = false;
  auto run_batch = [&] {
    lap(band_ns);
    sweep_constants(b_slot, fill, sw.ready.data(), sw.consts.data());
    kernels_.intervals(batch, fill);
    lap(intervals_ns);
    pieces_pass(fill);
    lap(scatter_ns);
    processed += fill;
    fill = 0;
  };
  // Keep [e + 1, end of strip k) and the strips after k as the rest.
  auto keep_rest = [&](std::ptrdiff_t k, std::uint32_t e) {
    auto keep = [&](std::uint32_t lo, std::uint32_t hi) {
      if (lo < hi) {
        sw.rest.push_back(lo);
        sw.rest.push_back(hi);
        rest_slots += hi - lo;
      }
    };
    keep(e + 1, strip_offsets_[band_strip(band, k, true) + 1]);
    for (std::ptrdiff_t j = k + 1; j < band.span; ++j) {
      const std::size_t s = band_strip(band, j, true);
      keep(strip_offsets_[s], strip_offsets_[s + 1]);
    }
  };
  for (std::ptrdiff_t k = 0; k < band.span && !stopped; ++k) {
    const std::size_t s = band_strip(band, k, true);
    const std::uint32_t s_end = strip_offsets_[s + 1];
    std::uint32_t e = strip_offsets_[s];
    while (e < s_end) {
      // Up to the batch's end or the next checkpoint's camera, whichever
      // comes first.
      const auto cap = static_cast<std::uint32_t>(std::min(kSweepBatch - fill, next_check - seen));
      const detail::BandScan scan = kernels_.band(cam_sy, f_r2, e, s_end, y, torus, cap,
                                                  b_slot + fill, b_dy + fill, b_r2 + fill);
      e = scan.next;
      fill += scan.added;
      seen += scan.added;
      if (fill == kSweepBatch || seen == next_check) {
        run_batch();
        if (seen == next_check) {
          next_check = next_check < 4 * cols - 1   ? 4 * cols - 1
                       : next_check < 8 * cols - 1 ? 8 * cols - 1
                                                   : next_check + 2 * cols;
          saturated = checkpoint();
          const std::size_t open = cols - sat[cols];
          if (!saturated && 4 * open <= cols) {
            keep_rest(k, e - 1);
            if (open * rest_slots > kFinishRatio * 2 * cols) {  // keep sweeping
              sw.rest.clear();
              rest_slots = 0;
            }
          }
          lap(checkpoint_ns);
          if (saturated || !sw.rest.empty()) {
            stopped = true;
            break;
          }
        }
      }
    }
  }
  lap(band_ns);
  if (fill != 0) {
    run_batch();
  }
  flush();
  lap(checkpoint_ns);
  if (saturated) {  // every needed word full: no verify entry can change a decision
    sw.verify_cols.clear();
    sw.verify_entries.clear();
  }
  if (ctr != nullptr) [[unlikely]] {
    // A finished row's cameras past the y prune that the passes never saw.
    for (std::size_t r = 0; r < sw.rest.size(); r += 2) {
      for (std::uint32_t e = sw.rest[r]; e < sw.rest[r + 1]; ++e) {
        const double dy = band_dy(y, cam_sy[e]);
        n_skipped += static_cast<std::uint64_t>(dy * dy <= f_r2[e]);
      }
    }
    ++ctr->sweep_rows;
    ctr->sweep_camera_rows += processed;
    ctr->sweep_pieces += cut.pieces;
    ctr->sweep_verify += cut.verify;
    ctr->sweep_skipped += n_skipped;
    ctr->sweep_walk_fallback += n_fallback;
    ctr->sweep_band_ns += band_ns;
    ctr->sweep_intervals_ns += intervals_ns;
    ctr->sweep_pieces_ns += pieces_ns;
    ctr->sweep_scatter_ns += scatter_ns;
    ctr->sweep_checkpoint_ns += checkpoint_ns;
  }
  // Bucket the verify pairs by column (camera order within a column).
  std::vector<std::uint32_t>& off = sw.verify_offsets;
  off.assign(cols + 1, 0);
  for (const std::uint32_t c : sw.verify_cols) {
    ++off[c + 1];
  }
  for (std::size_t c = 0; c < cols; ++c) {
    off[c + 1] += off[c];
  }
  sw.verify.resize(sw.verify_cols.size());
  for (std::size_t k = 0; k < sw.verify_cols.size(); ++k) {
    sw.verify[off[sw.verify_cols[k]]++] = sw.verify_entries[k];
  }
  for (std::size_t c = cols; c > 0; --c) {  // off[c] now ends column c: shift back
    off[c] = off[c - 1];
  }
  off[0] = 0;
  sw.engine_gen = generation_;
  sw.row = row;
  sw.need = need_bits;
}

GridEvalEngine::Predicates GridEvalEngine::decide_swept(std::size_t row, std::size_t col,
                                                        const geom::Vec2& p,
                                                        Predicates need,
                                                        GridEvalScratch& scratch) const {
  const SectorTable& t = sectors_;
  const GridEvalScratch::RowSweep& sw = scratch.sweep;
  const std::size_t wn = t.nec_words;
  const std::size_t ws = t.suf_words;
  const std::size_t words = wn + 2 * ws;
  const std::uint64_t* const full = t.full.data();
  // The column's certified words (the sweep stores them word-major).
  scratch.masks.resize(words);
  std::uint64_t* const mask = scratch.masks.data();
  for (std::size_t w = 0; w < words; ++w) {
    mask[w] = sw.masks[w * cols() + col];
  }
  Predicates d;
  d.necessary = words_full(mask, full, 0, wn);
  d.sufficient = words_full(mask, full, wn, wn + ws);
  d.full_view = words_full(mask, full, wn + ws, words);
  // Certified bits that already make every needed predicate true settle
  // the point: the verify entries could only add bits.
  const bool settled = (!need.necessary || d.necessary) && (!need.sufficient || d.sufficient) &&
                       (!need.full_view || d.full_view);
  const std::uint32_t v0 = sw.verify_offsets[col];
  const std::uint32_t v1 = settled ? v0 : sw.verify_offsets[col + 1];
  // An open column of a sweep that finished early also classifies the
  // cameras the sweep did not reach.
  std::size_t rest = 0;
  if (!settled) {
    for (std::size_t r = 0; r < sw.rest.size(); r += 2) {
      rest += sw.rest[r + 1] - sw.rest[r];
    }
  }
  std::size_t m = 0;
  std::size_t zeros = 0;
  std::uint64_t exact = 0;
  if (v0 != v1 || rest != 0) {
    // The cameras near a boundary of their certified core (and those the
    // sweep did not reach): the exact classify and occupancy step, on top
    // of the certified bits.
    const CandView pool{cam_soa_.data.data(), cam_soa_.stride, strip_entries_.data(),
                        cam_soa_.stride};
    reserve_point(scratch, v1 - v0 + rest);
    scratch.angles.clear();
    for (std::uint32_t k = v0; k < v1; ++k) {
      classify_entry(pool, sw.verify[k], p, scratch, m);
    }
    for (std::size_t r = 0; r < sw.rest.size() && rest != 0; r += 2) {
      classify_range(p, pool, sw.rest[r], sw.rest[r + 1], scratch, m);
    }
    zeros = scratch.angles.size();  // cameras at the point
    if (zeros != 0) {
      occupy_exact(0.0, scratch.masks.data());
    }
    exact = occupy_directions(scratch, m);
    d.necessary = words_full(mask, full, 0, wn);
    d.sufficient = words_full(mask, full, wn, wn + ws);
    d.full_view = words_full(mask, full, wn + ws, words);
  }
  GridEvalCounters* const ctr = scratch.counters;
  if (ctr != nullptr) [[unlikely]] {
    ctr->candidates_total += v1 - v0 + rest;
    ctr->directions_total += m + zeros;
    ctr->atan2_calls += exact;
  }
  // Full view still open: the sorted path needs every covering direction.
  if (need.full_view && !d.full_view && (d.necessary || !need.necessary)) {
    return decide_point(p, point_view(row, p, scratch), need, scratch);
  }
  if (ctr != nullptr) [[unlikely]] {
    ++ctr->points;
    ctr->candidates_per_point.add(v1 - v0 + rest);
    ctr->occupancy_points += static_cast<std::uint64_t>(exact == 0);
    ctr->swept_points += static_cast<std::uint64_t>(v0 == v1 && rest == 0);
  }
  return d;
}

GridEvalEngine::Predicates GridEvalEngine::decide(std::size_t row, std::size_t col,
                                                  Predicates need,
                                                  GridEvalScratch& scratch) const {
  const geom::Vec2 p = grid_.point(row, col);
  if (sweep_ok_) {
    return decide_swept(row, col, p, need, scratch);
  }
  return decide_point(p, point_view(row, p, scratch), need, scratch);
}

std::size_t GridEvalEngine::covered_count_at_least(const geom::Vec2& p,
                                                   const CandView& view,
                                                   std::size_t k) const {
  // Coverage-count variant of gather_directions: same covered set, no
  // atan2 on the fast path, early exit at k.
  const std::span<const Camera> cams = net_->cameras();
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  std::size_t count = 0;
  for (std::size_t e = 0; e < view.count && count < k; ++e) {
    count += static_cast<std::size_t>(classify_scalar(view, e, p, torus, cams).covered);
  }
  return count;
}

std::span<const double> GridEvalEngine::sorted_directions(std::size_t row,
                                                          std::size_t col,
                                                          GridEvalScratch& scratch) const {
  scratch.angles.clear();
  const geom::Vec2 p = grid_.point(row, col);
  const CandView view = point_view(row, p, scratch);
  gather_directions(p, view, scratch);
  sort_directions(scratch);
  return scratch.angles;
}

void GridEvalEngine::sort_directions(GridEvalScratch& scratch) {
  std::vector<double>& a = scratch.angles;
  // Direction buffers are small (the point's covering-camera count), so
  // insertion sort beats std::sort's dispatch; the sorted sequence is the
  // same for any comparison sort (the values are NaN-free doubles in
  // [0, 2*pi)).  Mid-sized buffers get a 32-bucket counting presort first:
  // the bucket index floor(v * 32 / 2*pi) is monotone in v, so the scatter
  // leaves only intra-bucket inversions and the insertion pass runs in
  // near-linear time instead of n^2/4 moves.
  const std::size_t n = a.size();
  auto insertion = [](double* buf, std::size_t len) {
    for (std::size_t i = 1; i < len; ++i) {
      const double v = buf[i];
      std::size_t j = i;
      for (; j > 0 && buf[j - 1] > v; --j) {
        buf[j] = buf[j - 1];
      }
      buf[j] = v;
    }
  };
  if (n <= 12) {
    insertion(a.data(), n);
  } else if (n <= 48) {
    const double scale = 32.0 / geom::kTwoPi;
    unsigned cnt[33] = {0};
    unsigned bk[48];
    double tmp[48];
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = std::min(static_cast<unsigned>(a[i] * scale), 31U);
      bk[i] = b;
      ++cnt[b + 1];
    }
    for (std::size_t b = 0; b < 32; ++b) {
      cnt[b + 1] += cnt[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      tmp[cnt[bk[i]]++] = a[i];
    }
    std::copy(tmp, tmp + n, a.data());
    insertion(a.data(), n);
  } else {
    std::sort(a.begin(), a.end());
  }
}

GridEvalEngine::CandView GridEvalEngine::arbitrary_view(
    const geom::Vec2& p, GridEvalScratch& scratch) const {
  // The strip walk of `candidates(p)` — an exact y prune, still a
  // duplicate-free superset of the covering set — whose records are copied
  // out of the pool, so the classify pipeline sees the exact bits
  // `build_index` wrote.
  scratch.point_ids.clear();
  gather_y_band(p.y, scratch.point_ids);
  copy_records(scratch.point_ids, scratch.point_soa);
  const std::size_t n = scratch.point_ids.size();
  return {scratch.point_soa.data(), n, scratch.point_ids.data(), n};
}

PointEval GridEvalEngine::eval_point(const geom::Vec2& p,
                                     GridEvalScratch& scratch) const {
  scratch.angles.clear();
  gather_directions(p, arbitrary_view(p, scratch), scratch);
  sort_directions(scratch);
  const std::span<const double> dirs = scratch.angles;
  PointEval res;
  res.full_view = full_view_from_sorted(dirs, theta_);
  res.necessary = arcs_all_hit(dirs, necessary_arcs_);
  res.sufficient = arcs_all_hit(dirs, sufficient_arcs_);
  return res;
}

FullViewResult GridEvalEngine::point_full_view(std::size_t row, std::size_t col,
                                               GridEvalScratch& scratch) const {
  return full_view_from_sorted(sorted_directions(row, col, scratch), theta_);
}

bool GridEvalEngine::point_necessary(std::size_t row, std::size_t col,
                                     GridEvalScratch& scratch) const {
  return arcs_all_hit(sorted_directions(row, col, scratch), necessary_arcs_);
}

bool GridEvalEngine::point_sufficient(std::size_t row, std::size_t col,
                                      GridEvalScratch& scratch) const {
  return arcs_all_hit(sorted_directions(row, col, scratch), sufficient_arcs_);
}

GridRowEvents GridEvalEngine::row_events(std::size_t row, GridEvalScratch& scratch,
                                         bool need_full_view,
                                         bool need_sufficient) const {
  GridRowEvents ev;
  ev.all_full_view = need_full_view;
  ev.all_sufficient = need_sufficient;
  if (sweep_ok_) {
    sweep_row(row, {true, need_full_view, need_sufficient}, scratch);
  }
  for (std::size_t col = 0; col < cols(); ++col) {
    const Predicates need{true, ev.all_full_view, ev.all_sufficient};
    const Predicates d = decide(row, col, need, scratch);
    if (!d.necessary) {
      return {false, false, false};
    }
    if (ev.all_full_view && !d.full_view) {
      ev.all_full_view = false;
      ev.all_sufficient = false;  // sufficient implies full view
    }
    if (ev.all_sufficient && !d.sufficient) {
      ev.all_sufficient = false;
    }
  }
  return ev;
}

bool GridEvalEngine::row_all(std::size_t row, GridEvalScratch& scratch,
                             bool Predicates::*pred) const {
  Predicates need;
  need.*pred = true;
  if (sweep_ok_) {
    sweep_row(row, need, scratch);
  }
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!(decide(row, col, need, scratch).*pred)) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_necessary(std::size_t row, GridEvalScratch& scratch) const {
  return row_all(row, scratch, &Predicates::necessary);
}

bool GridEvalEngine::row_all_sufficient(std::size_t row, GridEvalScratch& scratch) const {
  return row_all(row, scratch, &Predicates::sufficient);
}

bool GridEvalEngine::row_all_full_view(std::size_t row, GridEvalScratch& scratch) const {
  return row_all(row, scratch, &Predicates::full_view);
}

bool GridEvalEngine::row_all_k_covered(std::size_t row, std::size_t k,
                                       GridEvalScratch& scratch) const {
  if (k == 0) {
    return true;
  }
  for (std::size_t col = 0; col < cols(); ++col) {
    const geom::Vec2 p = grid_.point(row, col);
    const CandView view = point_view(row, p, scratch);
    if (covered_count_at_least(p, view, k) < k) {
      return false;
    }
  }
  return true;
}

}  // namespace fvc::core
