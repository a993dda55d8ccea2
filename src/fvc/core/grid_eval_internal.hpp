/// \file grid_eval_internal.hpp
/// \brief Helpers shared by the engine's two translation units:
/// grid_eval.cpp (index, sector table, boolean row sweep, point paths) and
/// grid_eval_stats.cpp (the stats path's row sweep).  Baseline code only:
/// the AVX2 kernel translation unit must not include this header (see
/// grid_eval_kernel_avx2.cpp).

#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "fvc/core/camera.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/round_half_away.hpp"
#include "fvc/geometry/angle.hpp"

namespace fvc::core::detail {

/// floor and ceil to an integer without a libm call (|v| far below 2^62).
inline std::int64_t floor_to_int(double v) {
  const auto t = static_cast<std::int64_t>(v);
  return t - static_cast<std::int64_t>(static_cast<double>(t) > v);
}
inline std::int64_t ceil_to_int(double v) {
  const auto t = static_cast<std::int64_t>(v);
  return t + static_cast<std::int64_t>(static_cast<double>(t) < v);
}

/// Diamond pseudo-angle of a nonzero vector: a monotone map of its polar
/// angle [0, 2*pi) onto [0, 4), one unit per quadrant (y/(|x|+|y|) in the
/// first).  Its slope against the angle lies in [1/2, 1], so a pseudo-angle
/// difference never exceeds the angle difference, and the computed value
/// is within 1e-15 of the exact one.  Signed zeros land on the same value
/// as unsigned ones (axis directions give exactly 0, 1, 2 and 3).
inline double pseudo_angle(double x, double y) {
  const double ax = std::abs(x);
  const double ay = std::abs(y);
  // Quadrant q = 0..3 counter-clockwise from +x, plus the fraction of it
  // swept: |y| / (|x| + |y|) in the even quadrants, 1 minus that in the
  // odd ones.  Written as 2 * (lower + odd) -/+ frac, with no select, so
  // directions arriving in random quadrants cost no branch mispredicts.
  const bool lower = y < 0.0;
  const bool odd = (lower & (x >= 0.0)) | (!lower & (x <= 0.0));
  const int odd_i = static_cast<int>(odd);
  const double frac = ay / (ax + ay);
  return static_cast<double>(2 * (static_cast<int>(lower) + odd_i)) +
         static_cast<double>(1 - 2 * odd_i) * frac;
}

/// A vector whose pseudo-angle is `t` in [0, 4) (the inverse map, up to
/// scale).
inline geom::Vec2 pseudo_direction(double t) {
  const double q = std::floor(t);
  const double u = t - q;
  if (q < 1.0) {
    return {1.0 - u, u};
  }
  if (q < 2.0) {
    return {-u, 1.0 - u};
  }
  if (q < 3.0) {
    return {u - 1.0, -u};
  }
  return {u, u - 1.0};
}

/// Size the per-point classify buffers for a span of `count` candidates.
inline void reserve_point(GridEvalScratch& scratch, std::size_t count) {
  if (scratch.dxs.size() < count) {
    scratch.dxs.resize(count);
    scratch.dys.resize(count);
    scratch.special.resize(count);
    scratch.pseudo.resize(count);
  }
}

/// True when mask words [lo, hi) equal the full words.
inline bool words_full(const std::uint64_t* mask, const std::uint64_t* full,
                       std::size_t lo, std::size_t hi) {
  for (std::size_t w = lo; w < hi; ++w) {
    if (mask[w] != full[w]) {
      return false;
    }
  }
  return true;
}

/// Largest circular gap of an already-sorted, normalized angle buffer.
/// Replicates `geom::max_circular_gap_info` (which normalizes — a no-op on
/// [0, 2*pi) inputs — sorts a copy, and scans) without the copy.
struct SortedGap {
  double width = geom::kTwoPi;
  double after = 0.0;
  bool has_after = false;
};

inline SortedGap max_gap_sorted(std::span<const double> sorted_dirs) {
  if (sorted_dirs.empty()) {
    return {};
  }
  SortedGap g;
  g.width = geom::kTwoPi - (sorted_dirs.back() - sorted_dirs.front());
  g.after = sorted_dirs.back();
  g.has_after = true;
  for (std::size_t i = 0; i + 1 < sorted_dirs.size(); ++i) {
    const double gap = sorted_dirs[i + 1] - sorted_dirs[i];
    if (gap > g.width) {
      g.width = gap;
      g.after = sorted_dirs[i];
    }
  }
  return g;
}

/// One candidate's scalar classification against a point.
struct EntryClass {
  double dx = 0.0;  ///< unwrapped displacement point - camera
  double dy = 0.0;
  double n2 = 0.0;  ///< squared distance
  bool covered = false;
  bool band_hit = false;  ///< decided by the exact-arithmetic fallback
};

/// The engine's scalar classify: the one definition of its coverage
/// arithmetic, which the lane template in grid_eval_kernel.hpp replicates
/// operation for operation.  Displacement via the per-point torus unwrap
/// (the subtraction, `d -= round(d)`, and the d >= 0.5 boundary fixup are
/// `geom::wrap_delta` bit-for-bit; wrap_delta's d < -0.5 fixup is dead
/// code, since a round-to-nearest remainder lies in [-0.5, +0.5]), hence
/// bit-identical to geom::displacement; then the radius test on the
/// squared distance and the trig-free field-of-view classifier — the
/// real-math condition
///     angular_distance(angle(d), orientation) <= fov/2
///       <=>  dot(d, u) >= |d| * cos(fov/2)        (u = unit orientation)
///       <=>  dot*|dot| >= q * |d|^2               (x*|x| is monotone)
/// decided outside a 1e-9 relative band around the threshold.  Inside the
/// band the scalar oracle's exact arithmetic decides (a point at the
/// camera itself is covered), so the covered SET always matches `covers`.
template <class View>
inline EntryClass classify_scalar(const View& view, std::size_t e, const geom::Vec2& p,
                                  bool torus, std::span<const Camera> cams) {
  EntryClass c;
  c.dx = p.x - view.sx()[e];
  c.dy = p.y - view.sy()[e];
  if (torus) {
    c.dx -= round_half_away(c.dx);
    if (c.dx >= 0.5) {
      c.dx -= 1.0;
    }
    c.dy -= round_half_away(c.dy);
    if (c.dy >= 0.5) {
      c.dy -= 1.0;
    }
  }
  c.n2 = c.dx * c.dx + c.dy * c.dy;
  const double dot = c.dx * view.cu()[e] + c.dy * view.su()[e];
  const double lhs = dot * std::abs(dot);
  const double rhs = view.q()[e] * c.n2;
  const double band = 1e-9 * c.n2;
  const bool in_radius = c.n2 <= view.r2()[e];
  const bool omni = std::bit_cast<std::uint64_t>(view.omni()[e]) != 0;
  c.covered = in_radius & (omni | (lhs - rhs > band));
  c.band_hit = in_radius & !omni & (std::abs(lhs - rhs) <= band);
  if (c.band_hit) [[unlikely]] {
    if (c.n2 == 0.0) {
      c.covered = true;  // point coincides with the camera
    } else {
      const Camera& cam = cams[view.ids[e]];
      c.covered = geom::angular_distance(std::atan2(c.dy, c.dx), cam.orientation) <=
                  0.5 * cam.fov;
    }
  }
  return c;
}

}  // namespace fvc::core::detail
