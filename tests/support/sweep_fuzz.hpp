/// \file sweep_fuzz.hpp
/// \brief Deterministic generator of adversarial engine configurations.
///
/// `fuzz_config(seed, index)` draws one (network, grid, theta) from a
/// fixed-seed stream: the same pair always gives the same configuration,
/// so a failure report names everything needed to replay it.  The draws
/// aim at the seams of the engine's exactness arguments (the row sweep's
/// chord, wedge and crossing margins, its column saturation, the sector
/// table's boundaries):
///
/// * torus and plane, grid sides 1 to 40, theta from 0.02 to exactly pi;
/// * heterogeneous radii, radii of 1/2 and more, and rows tangent to a
///   disc or a disc edge through a grid point, each also one ulp off;
/// * fovs of 2 pi, pi, pi -+ 1e-4, 1.5 pi, 4.0 and 1e-5 among random ones;
/// * cameras snapped onto grid rows, columns and points, within 1e-6 or
///   1e-9 of a row, on the torus wrap, coincident with another camera, or
///   aimed so that a field-of-view edge passes through a grid point;
/// * dense networks on coarse grids, whose rows saturate;
/// * long walks: cameras with a wide field of view just off a row, on
///   fine sector tables (theta down to 0.01), whose certified core crosses
///   more sector boundaries than the piece stage's kWalkSteps;
/// * cameras by the torus seam with chords across it, so certified pieces
///   wrap the seam;
/// * on grids of a power-of-two side, cameras at the offset (3/16, 4/16)
///   from a grid point with radius 5/16, so d^2 == r^2 holds exactly in
///   floating point and the closed disc's edge decides coverage.
///
/// New adversarial cases belong here, as another placement or draw.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::testsupport {

struct FuzzConfig {
  core::Network net;
  core::DenseGrid grid{1};
  double theta = 0.0;
};

inline FuzzConfig fuzz_config(std::uint64_t seed, std::uint64_t index) {
  using geom::kPi;
  using geom::kTwoPi;
  stats::Pcg32 rng = stats::make_child_rng(seed, index);
  auto below = [&rng](std::uint32_t n) { return stats::uniform_below(rng, n); };
  auto uniform = [&rng](double lo, double hi) { return stats::uniform_in(rng, lo, hi); };
  auto pick = [&below](const auto& values) {
    return values[below(static_cast<std::uint32_t>(std::size(values)))];
  };

  FuzzConfig cfg;
  const geom::SpaceMode mode = below(4) == 0 ? geom::SpaceMode::kPlane : geom::SpaceMode::kTorus;
  const bool dense = below(3) == 0;
  constexpr std::size_t kSides[] = {1, 2, 3, 4, 5, 6, 8, 13, 16, 24, 32, 40};
  const std::size_t side = dense ? pick(kSides) % 9 + 1 : (below(2) == 0 ? pick(kSides)
                                                                         : 1 + below(40));
  cfg.grid = core::DenseGrid(side);
  constexpr double kThetas[] = {kPi / 4.0, kPi / 12.0, 0.3 * kPi, 0.7 * kPi, kPi,
                                0.05,      0.02,       kPi / 2.0, 2.0 * kPi / 3.0};
  cfg.theta = below(3) == 0 ? uniform(0.02, kPi) : pick(kThetas);
  if (below(8) == 0) {  // a fine sector table: long walks
    cfg.theta = uniform(0.01, 0.06);
  }

  constexpr double kFovs[] = {kTwoPi, kPi,  kPi + 1e-4, kPi - 1e-4, 1.5 * kPi,
                              1e-5,   2.0,  1.0,        4.0,        0.5};
  auto fov = [&]() { return below(3) == 0 ? uniform(1e-3, kTwoPi) : pick(kFovs); };
  const double r_hi = dense ? 0.7 : (below(4) == 0 ? 0.6 : 0.25);
  auto radius = [&]() { return uniform(0.02, r_hi); };
  auto grid_point = [&]() {
    return cfg.grid.point(below(static_cast<std::uint32_t>(side)),
                          below(static_cast<std::uint32_t>(side)));
  };
  auto nudge = [&below](double v) {
    switch (below(3)) {
      case 0:
        return std::nextafter(v, 0.0);
      case 1:
        return std::nextafter(v, 2.0);
      default:
        return v;
    }
  };

  const std::size_t n = dense ? 20 + below(100) : 1 + below(24);
  std::vector<core::Camera> cams;
  cams.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::Camera c;
    c.position = {uniform(0.0, 1.0), uniform(0.0, 1.0)};
    c.orientation = uniform(0.0, kTwoPi);
    c.radius = radius();
    c.fov = fov();
    const geom::Vec2 g = grid_point();
    switch (below(14)) {
      case 0:  // on a grid row: dy == 0 there
        c.position.y = g.y;
        break;
      case 1:  // on a grid column
        c.position.x = g.x;
        break;
      case 2:  // on a grid point
        c.position = g;
        break;
      case 3: {  // within 1e-6 or 1e-9 of a row
        const double eps = below(2) == 0 ? 1e-6 : 1e-9;
        c.position.y = g.y + (below(2) == 0 ? eps : -eps);
        break;
      }
      case 4: {  // a field-of-view edge through a grid point
        const double to_g = std::atan2(g.y - c.position.y, g.x - c.position.x);
        c.orientation = to_g + (below(2) == 0 ? 0.5 : -0.5) * c.fov;
        c.radius = std::max(c.radius, std::hypot(g.x - c.position.x, g.y - c.position.y) + 0.01);
        break;
      }
      case 5: {  // a grid row tangent to the disc, or one ulp off
        c.radius = nudge(std::abs(g.y - c.position.y));
        break;
      }
      case 6: {  // the disc's edge through a grid point, or one ulp off
        c.radius = nudge(std::hypot(g.x - c.position.x, g.y - c.position.y));
        break;
      }
      case 7:  // on the torus wrap
        c.position.x = below(2) == 0 ? 0.0 : std::nextafter(1.0, 0.0);
        break;
      case 8:  // coincident with an earlier camera
        if (!cams.empty()) {
          c.position = cams[below(static_cast<std::uint32_t>(cams.size()))].position;
        }
        break;
      case 9:  // looking along a sector boundary (an axis or a diagonal)
        c.orientation = 0.25 * kPi * static_cast<double>(below(8));
        break;
      case 10: {  // a long walk: a wide core from just off a row
        c.position.y = g.y + (below(2) == 0 ? 1.0 : -1.0) * uniform(2e-5, 2e-3);
        c.fov = uniform(0.5 * kPi, kTwoPi);
        c.radius = uniform(0.1, 0.45);
        break;
      }
      case 11: {  // by the torus seam, its chord across it
        c.position.x = below(2) == 0 ? uniform(0.0, 0.02) : uniform(0.98, 1.0);
        c.position.y = g.y + uniform(-0.01, 0.01);
        c.radius = uniform(0.08, 0.3);
        c.fov = uniform(1.0, kTwoPi);
        break;
      }
      case 12:  // the disc's edge exactly on a grid point
        if ((side & (side - 1)) == 0) {
          // The grid point is dyadic, so every step is exact.  The offset
          // points inward: the camera stays in [0, 1]^2 on both spaces.
          double ox = 0.1875;
          double oy = 0.25;
          if (below(2) == 0) {
            std::swap(ox, oy);
          }
          c.position = {g.x < 0.5 ? g.x + ox : g.x - ox, g.y < 0.5 ? g.y + oy : g.y - oy};
          c.radius = 0.3125;
          c.orientation = std::atan2(g.y - c.position.y, g.x - c.position.x);
        }
        break;
      default:
        break;
    }
    if (mode == geom::SpaceMode::kPlane) {  // plane positions lie in [0, 1]^2
      c.position.x = std::clamp(c.position.x, 0.0, 1.0);
      c.position.y = std::clamp(c.position.y, 0.0, 1.0);
    }
    c.orientation = geom::normalize_angle(c.orientation);
    cams.push_back(c);
  }
  cfg.net = core::Network(std::move(cams), mode);
  return cfg;
}

}  // namespace fvc::testsupport
