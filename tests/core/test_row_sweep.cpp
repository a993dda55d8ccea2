// Adversarial tests for the row sweep behind the boolean scans
// (`row_events`, `row_all_*`).  The sweep certifies, per camera and grid
// row, core x-intervals the kernel surely covers, cut where the camera's
// viewed direction crosses a sector boundary, and sends every column of
// the camera's outer intervals outside those pieces (and every column of
// a degenerate camera) to the exact classify.  The cases here put grid
// points exactly on the seams of that rule: cameras on a grid row
// (dy = 0), field-of-view edges through grid points, rows tangent to a
// disc and disc edges through grid points (and one ulp either side),
// boundary crossings on column centres, fov = pi, fov > pi and
// fov = 1e-5, the torus seam, plane mode, radii of 1/2 and more,
// theta = pi, a theta whose masks need more than three words, one-point
// grids, rows that saturate, and a sector table past the sweep's cap.
// Every row answer must equal the scalar oracles under every supported
// kernel pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "support/forced_kernel.hpp"
#include "support/point_booleans.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using testsupport::ForcedKernel;
using testsupport::supported_kernels;

// The paper's angles, a remainder-arc angle, 2*theta > pi, theta = pi, and
// 0.05 (126 sufficient arcs: five mask words).
constexpr double kThetas[] = {kPi / 4.0, kPi / 12.0, 0.3 * kPi, 0.7 * kPi, kPi, 0.05};

Camera make_camera(double x, double y, double orientation, double radius, double fov) {
  Camera c;
  c.position = {x, y};
  c.orientation = geom::normalize_angle(orientation);
  c.radius = radius;
  c.fov = fov;
  return c;
}

// Row-level oracle answers of a grid, and a tally of the per-row outcomes
// (so a randomized check can show it was not vacuous).
struct RowOracles {
  std::vector<testsupport::PointOracle> rows;
  testsupport::PointOutcomes seen;
};

RowOracles row_oracles(const Network& net, const DenseGrid& grid, double theta) {
  RowOracles out;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    testsupport::PointOracle all{true, true, true};
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const geom::Vec2 p = grid.point(row, col);
      all.necessary = all.necessary && meets_necessary_condition(net, p, theta);
      all.full_view = all.full_view && full_view_covered(net, p, theta).covered;
      all.sufficient = all.sufficient && meets_sufficient_condition(net, p, theta);
    }
    out.rows.push_back(all);
    out.seen.add(all);
  }
  return out;
}

// Every boolean scan of every row against the oracles, under every
// supported kernel pin: `row_all_*` directly, and `row_events` under all
// four (need_full_view, need_sufficient) protocols of the trial runner.
// Returns the row outcomes seen.
testsupport::PointOutcomes expect_rows_match(const Network& net, const DenseGrid& grid,
                                             double theta,
                                             GridEvalCounters* counters = nullptr) {
  const RowOracles want = row_oracles(net, grid, theta);
  for (const KernelVariant variant : supported_kernels()) {
    const ForcedKernel pin(variant);
    const GridEvalEngine engine(net, grid, theta);
    GridEvalScratch scratch;
    scratch.counters = counters;
    for (std::size_t row = 0; row < grid.side(); ++row) {
      const testsupport::PointOracle& w = want.rows[row];
      SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(variant) << " theta="
                                      << theta << " side=" << grid.side() << " row=" << row);
      EXPECT_EQ(engine.row_all_necessary(row, scratch), w.necessary);
      EXPECT_EQ(engine.row_all_full_view(row, scratch), w.full_view);
      EXPECT_EQ(engine.row_all_sufficient(row, scratch), w.sufficient);
      for (const bool need_fv : {true, false}) {
        for (const bool need_suf : {true, false}) {
          const GridRowEvents ev = engine.row_events(row, scratch, need_fv, need_suf);
          EXPECT_EQ(ev.all_necessary, w.necessary);
          EXPECT_EQ(ev.all_full_view, w.necessary && need_fv && w.full_view);
          EXPECT_EQ(ev.all_sufficient, w.necessary && need_suf && w.sufficient &&
                                           (!need_fv || w.full_view));
        }
      }
    }
  }
  return want.seen;
}

// The one-point grid's answers under every pin (every row answer is that
// point's, so no other point can hide a wrong one).
void expect_point_match(const Network& net, double theta, GridEvalCounters* counters) {
  for (const KernelVariant variant : supported_kernels()) {
    const ForcedKernel pin(variant);
    SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(variant)
                                    << " theta=" << theta << " cameras=" << net.size());
    testsupport::expect_point_booleans(net, theta, counters);
  }
}

// The probe point of the one-point grid, (0.5, 0.5).
const geom::Vec2 kProbe = DenseGrid(1).point(0, 0);

// A camera at `probe + (ox, oy)` looking at the probe (or, with
// edge = -1 / +1, with the probe on one edge of its field of view) and
// reaching it.  Offsets that are dyadic fractions keep the displacement
// exact, so axis and diagonal offsets are exact sector boundaries.
Camera probe_camera(double ox, double oy, double fov, int edge) {
  const double to_probe = std::atan2(-oy, -ox);
  return make_camera(kProbe.x + ox, kProbe.y + oy, to_probe + 0.5 * fov * edge,
                     std::hypot(ox, oy) + 0.01, fov);
}

// Radius `r` nudged by `step` ulps (-1, 0 or +1).
double nudge(double r, std::uint32_t step) {
  return step == 0 ? r : std::nextafter(r, step == 1 ? 0.0 : 1.0);
}

// Random networks around the one-point grid's probe: dyadic axis and
// diagonal offsets (directions exactly on the theta = pi/4 boundaries, the
// crossing on the column centre), cameras on the probe's row (dy = 0),
// lenses with the probe on an edge, rows tangent to a disc, discs whose
// edge passes through the probe, and fovs of pi, above pi and 1e-5.
Network probe_network(stats::Pcg32& rng) {
  std::vector<Camera> cams;
  constexpr double kFovs[] = {kTwoPi, 2.0, 1.0, kPi, 1.5 * kPi, 1e-5};
  auto fov = [&rng, &kFovs]() { return kFovs[stats::uniform_below(rng, 6)]; };
  auto dyadic = [&rng]() {
    const double a = static_cast<double>(1 + stats::uniform_below(rng, 24)) / 64.0;
    return stats::uniform_below(rng, 2) == 0 ? -a : a;
  };
  const std::size_t count = 1 + stats::uniform_below(rng, 14);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = dyadic();
    const double b = dyadic();
    switch (stats::uniform_below(rng, 7)) {
      case 0:  // diagonal: |dx| == |dy|
        cams.push_back(probe_camera(a, stats::uniform_below(rng, 2) == 0 ? a : -a, fov(), 0));
        break;
      case 1:  // on the probe's column: dx == 0
        cams.push_back(probe_camera(0.0, b, fov(), 0));
        break;
      case 2:  // on the probe's row: dy == 0
        cams.push_back(probe_camera(a, 0.0, fov(), 0));
        break;
      case 3: {  // the probe on a field-of-view edge
        const double f = stats::uniform_below(rng, 2) == 0 ? 2.0 : 1.0;
        cams.push_back(probe_camera(a, b, f, stats::uniform_below(rng, 2) == 0 ? -1 : 1));
        break;
      }
      case 4: {  // the probe's row tangent to the disc, or one ulp either side
        Camera c = probe_camera(a, b, fov(), 0);
        c.radius = nudge(std::abs(b), stats::uniform_below(rng, 3));
        cams.push_back(c);
        break;
      }
      case 5: {  // the disc's edge through the probe, or one ulp either side
        Camera c = probe_camera(stats::uniform_in(rng, -0.3, 0.3),
                                stats::uniform_in(rng, -0.3, 0.3), fov(), 0);
        c.radius = nudge(std::hypot(kProbe.x - c.position.x, kProbe.y - c.position.y),
                         stats::uniform_below(rng, 3));
        cams.push_back(c);
        break;
      }
      default:  // anywhere
        cams.push_back(probe_camera(a, b, fov(), 0));
        break;
    }
  }
  return Network(std::move(cams), geom::SpaceMode::kTorus);
}

TEST(RowSweep, ProbeSeamsMatchOraclesUnderEveryKernel) {
  GridEvalCounters counters;
  testsupport::PointOutcomes seen;
  for (const double theta : kThetas) {
    stats::Pcg32 rng = stats::make_child_rng(2201, static_cast<std::uint64_t>(theta * 1e6));
    for (int net_i = 0; net_i < 60; ++net_i) {
      const Network net = probe_network(rng);
      seen.add(testsupport::point_oracle(net, theta));
      SCOPED_TRACE(testing::Message() << "net=" << net_i);
      expect_point_match(net, theta, &counters);
    }
  }
  seen.expect_both_outcomes();
  // Both halves of the sweep ran: points decided from certified pieces
  // alone, and verify-list classifies (band hits among them).
  EXPECT_GT(counters.swept_points, 0U);
  EXPECT_GT(counters.candidates_total, 0U);
  EXPECT_GT(counters.trig_fallbacks, 0U);
}

// One camera whose disc edge or lens edge (of any fov, reflex ones
// included) passes through the probe, at theta = pi: the single
// necessary arc is the whole circle, so the
// necessary answer is exactly whether the kernel covers the probe — the
// certified core must never take a column the kernel rejects, and the
// outer interval must never drop one it accepts.
TEST(RowSweep, SingleCameraAtDiscAndLensEdges) {
  stats::Pcg32 rng = stats::make_child_rng(2205, 0);
  GridEvalCounters counters;
  testsupport::PointOutcomes seen;
  for (int i = 0; i < 1500; ++i) {
    const double ox = stats::uniform_in(rng, -0.3, 0.3);
    const double oy = stats::uniform_in(rng, -0.3, 0.3);
    const bool lens_edge = stats::uniform_below(rng, 2) == 0;
    const double fov = lens_edge ? stats::uniform_in(rng, 0.01, 6.2) : kTwoPi;
    Camera c = probe_camera(ox, oy, fov, lens_edge ? (i % 2 == 0 ? -1 : 1) : 0);
    if (!lens_edge) {
      const double dx = kProbe.x - c.position.x;
      const double dy = kProbe.y - c.position.y;
      const double r = i % 3 == 0 ? std::hypot(dx, dy) : std::sqrt(dx * dx + dy * dy);
      c.radius = nudge(r, stats::uniform_below(rng, 3));
    }
    const Network net(std::vector<Camera>{c}, geom::SpaceMode::kTorus);
    seen.add(testsupport::point_oracle(net, kPi));
    SCOPED_TRACE(testing::Message() << "i=" << i);
    expect_point_match(net, kPi, &counters);
  }
  EXPECT_GT(seen.count[0][0], 0U);
  EXPECT_GT(seen.count[0][1], 0U);
  // The probe sits in every camera's margin, so each answer came from the
  // verify list.
  EXPECT_GT(counters.candidates_total, 0U);
}

// Random cameras on a power-of-two grid, snapped so that the seams land on
// grid points: on grid rows and columns, at grid-aligned diagonal offsets,
// with field-of-view edges through grid points, tangent to rows, with
// disc edges through grid points, near the torus seam, and with radii of
// 1/2 and more.
Network grid_network(const DenseGrid& grid, geom::SpaceMode mode, stats::Pcg32& rng) {
  const std::size_t side = grid.side();
  const double h = 1.0 / static_cast<double>(side);
  auto line = [&rng, side, h]() {  // a grid row's or column's coordinate
    return (static_cast<double>(stats::uniform_below(rng, static_cast<std::uint32_t>(side))) +
            0.5) *
           h;
  };
  auto wrap = [mode](double v) {
    if (mode == geom::SpaceMode::kTorus) {
      return v - std::floor(v);
    }
    return std::clamp(v, 0.0, 1.0);
  };
  constexpr double kFovs[] = {kTwoPi, 2.0, 1.0, kPi, 1.5 * kPi, 1e-5};
  std::vector<Camera> cams;
  const std::size_t count = 4 + stats::uniform_below(rng, 40);
  for (std::size_t i = 0; i < count; ++i) {
    double x = stats::uniform_in(rng, 0.0, 1.0);
    double y = stats::uniform_in(rng, 0.0, 1.0);
    const double fov = kFovs[stats::uniform_below(rng, 6)];
    double radius = stats::uniform_in(rng, 0.05, 0.35);
    double orientation = stats::uniform_in(rng, 0.0, kTwoPi);
    switch (stats::uniform_below(rng, 8)) {
      case 0:  // on a grid row
        y = line();
        break;
      case 1:  // on a grid column
        x = line();
        break;
      case 2: {  // a grid point at an exact diagonal offset
        const double k = static_cast<double>(1 + stats::uniform_below(rng, 3)) * h;
        x = wrap(line() + (stats::uniform_below(rng, 2) == 0 ? k : -k));
        y = wrap(line() + (stats::uniform_below(rng, 2) == 0 ? k : -k));
        break;
      }
      case 3: {  // a field-of-view edge through a grid point
        double dx = line() - x;
        double dy = line() - y;
        if (mode == geom::SpaceMode::kTorus) {
          dx -= std::round(dx);
          dy -= std::round(dy);
        }
        orientation = std::atan2(dy, dx) + (stats::uniform_below(rng, 2) == 0 ? 0.5 : -0.5) * fov;
        radius = std::max(radius, std::hypot(dx, dy) + 0.01);
        break;
      }
      case 4: {  // a grid row tangent to the disc, or one ulp either side
        double dy = line() - y;
        if (mode == geom::SpaceMode::kTorus) {
          dy -= std::round(dy);
        }
        radius = nudge(std::abs(dy), stats::uniform_below(rng, 3));
        break;
      }
      case 7: {  // a disc's edge through a grid point, or one ulp either side
        double dx = line() - x;
        double dy = line() - y;
        if (mode == geom::SpaceMode::kTorus) {
          dx -= std::round(dx);
          dy -= std::round(dy);
        }
        radius = nudge(std::sqrt(dx * dx + dy * dy), stats::uniform_below(rng, 3));
        break;
      }
      case 5:  // near the torus seam (the plane's edge)
        x = stats::uniform_below(rng, 2) == 0 ? stats::uniform_in(rng, 0.0, 0.02)
                                                : stats::uniform_in(rng, 0.98, 1.0);
        break;
      default:  // a radius of 1/2 or more
        radius = stats::uniform_below(rng, 2) == 0 ? 0.5 : stats::uniform_in(rng, 0.5, 0.9);
        break;
    }
    cams.push_back(make_camera(wrap(x), wrap(y), orientation, radius, fov));
  }
  return Network(std::move(cams), mode);
}

TEST(RowSweep, GridSeamsMatchOraclesUnderEveryKernel) {
  GridEvalCounters counters;
  testsupport::PointOutcomes seen[2];
  for (const geom::SpaceMode mode : {geom::SpaceMode::kTorus, geom::SpaceMode::kPlane}) {
    for (const double theta : kThetas) {
      stats::Pcg32 rng = stats::make_child_rng(
          2202 + static_cast<std::uint64_t>(mode), static_cast<std::uint64_t>(theta * 1e6));
      for (int net_i = 0; net_i < 8; ++net_i) {
        const DenseGrid grid(std::size_t{4} << stats::uniform_below(rng, 3));  // 4, 8, 16
        const Network net = grid_network(grid, mode, rng);
        SCOPED_TRACE(testing::Message() << "plane=" << (mode == geom::SpaceMode::kPlane)
                                        << " net=" << net_i);
        const testsupport::PointOutcomes s = expect_rows_match(net, grid, theta, &counters);
        for (std::size_t pred = 0; pred < 3; ++pred) {
          for (std::size_t v = 0; v < 2; ++v) {
            seen[static_cast<std::size_t>(mode)].count[pred][v] += s.count[pred][v];
          }
        }
      }
    }
  }
  seen[0].expect_both_outcomes();
  seen[1].expect_both_outcomes();
  EXPECT_GT(counters.swept_points, 0U);
  EXPECT_GT(counters.candidates_total, 0U);
}

// Dense coverage around the torus seam: every camera's pieces wrap past
// x = 0 or x = 1, so a difference array split at the seam that lost or
// doubled a column would flip a row.
TEST(RowSweep, PiecesWrapAcrossTheTorusSeam) {
  stats::Pcg32 rng = stats::make_child_rng(2203, 0);
  std::vector<Camera> cams;
  for (int i = 0; i < 600; ++i) {
    const double x = stats::uniform_below(rng, 2) == 0 ? stats::uniform_in(rng, 0.0, 0.06)
                                                       : stats::uniform_in(rng, 0.94, 1.0);
    cams.push_back(make_camera(x, stats::uniform_in(rng, 0.0, 1.0),
                               stats::uniform_in(rng, 0.0, kTwoPi),
                               stats::uniform_in(rng, 0.3, 0.48),
                               stats::uniform_below(rng, 4) == 0 ? 2.0 : kTwoPi));
  }
  const Network net(std::move(cams), geom::SpaceMode::kTorus);
  GridEvalCounters counters;
  testsupport::PointOutcomes seen;
  for (const double theta : {kPi / 4.0, kPi / 3.0, kPi / 2.0, kPi}) {
    const testsupport::PointOutcomes s = expect_rows_match(net, DenseGrid(12), theta, &counters);
    for (std::size_t pred = 0; pred < 3; ++pred) {
      for (std::size_t v = 0; v < 2; ++v) {
        seen.count[pred][v] += s.count[pred][v];
      }
    }
  }
  seen.expect_both_outcomes();
  EXPECT_GT(counters.swept_points, 0U);
}

// Cameras exactly on grid rows (dy = 0) and on every boundary direction of
// the grid point they face, alone: nothing may be certified, so every
// covering camera comes from the verify list.
TEST(RowSweep, CamerasOnGridRowsAreVerifiedNotCertified) {
  const DenseGrid grid(8);
  std::vector<Camera> cams;
  for (std::size_t row = 0; row < 8; ++row) {
    const double y = grid.point(row, 0).y;
    cams.push_back(make_camera(grid.point(row, row).x, y, 0.0, 0.3, kTwoPi));
    cams.push_back(make_camera(grid.point(row, (row + 3) % 8).x, y, kPi, 0.3, 2.0));
  }
  const Network net(std::move(cams), geom::SpaceMode::kTorus);
  for (const double theta : kThetas) {
    GridEvalCounters counters;
    expect_rows_match(net, grid, theta, &counters);
    EXPECT_GT(counters.candidates_total, 0U);
  }
}

// A well-covered one-point grid at a theta whose masks need more than three
// words (and at theta = pi, a single full-circle necessary arc) is decided
// from certified pieces alone.
TEST(RowSweep, DenseCoverageIsSweptAtEveryTheta) {
  stats::Pcg32 rng = stats::make_child_rng(2204, 0);
  std::vector<Camera> cams;
  for (int i = 0; i < 2000; ++i) {
    const double dir = stats::uniform_in(rng, 0.0, kTwoPi);
    const double rho = stats::uniform_in(rng, 0.02, 0.3);
    cams.push_back(make_camera(kProbe.x + rho * std::cos(dir), kProbe.y + rho * std::sin(dir),
                               0.0, rho + 0.01, kTwoPi));
  }
  const Network net(std::move(cams), geom::SpaceMode::kTorus);
  for (const double theta : {0.05, kPi}) {
    GridEvalCounters counters;
    expect_point_match(net, theta, &counters);
    const testsupport::PointOracle want = testsupport::point_oracle(net, theta);
    EXPECT_TRUE(want.necessary && want.full_view && want.sufficient) << theta;
    EXPECT_GT(counters.swept_points, 0U) << theta;
  }
}

// A sector table too large to sweep against the grid's columns (theta =
// 0.002: over 3000 intervals, times 341 column slots, is above the
// sweep's 2^20 cap): every point takes the whole-span decision, which
// must match the oracles just the same.
TEST(RowSweep, HugeSectorTablesFallBackToWholeSpans) {
  const DenseGrid grid(340);
  stats::Pcg32 rng = stats::make_child_rng(2206, 0);
  const Network net = grid_network(grid, geom::SpaceMode::kTorus, rng);
  GridEvalCounters counters;
  expect_rows_match(net, grid, 0.002, &counters);
  EXPECT_GT(counters.points, 0U);
  EXPECT_GT(counters.candidates_total, 0U);
  EXPECT_EQ(counters.swept_points, 0U);
}

}  // namespace
}  // namespace fvc::core
