// Adversarial tests for the engine's sector-occupancy decision (the boolean
// scans `row_events` / `row_all_*`).  The decision locates each covering
// camera's viewed direction among the arc boundaries of the 2*theta and
// theta sector partitions; a direction near a boundary must take the
// oracle's exact atan2 path instead, and a full view the masks cannot
// prove must take the sorted max-gap path.  The generator here aims at
// exactly those seams: directions on arc boundaries (same x or same y as
// the point, |dx| == |dy| offsets, every partition boundary including the
// remainder arc's), exact 2*theta gaps, coincident and collinear cameras,
// cameras at the point, and cameras whose field-of-view edge passes
// through it.  Every answer must equal the scalar oracles under every
// supported kernel pin.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fvc/core/grid_eval.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
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

// The paper's angles, a remainder-arc angle (0.3*pi: 2*pi/theta is not an
// integer), angles around and above pi/2 (2*theta > pi: overlapping
// necessary arcs) and theta = pi (one full-circle necessary arc).
constexpr double kThetas[] = {kPi / 12.0, kPi / 6.0, kPi / 4.0, kPi / 3.0, 0.3 * kPi,
                              0.45 * kPi, kPi / 2.0, 0.7 * kPi, kPi};

// The probe point: the single point of DenseGrid(1).
const geom::Vec2 kProbe = DenseGrid(1).point(0, 0);

// A camera at `probe + offset` looking back at the probe, reaching it.
// `edge` rotates the lens so the probe sits on its field-of-view edge.
Camera camera_at(const geom::Vec2& offset, double fov, bool edge) {
  Camera c;
  c.position = {kProbe.x + offset.x, kProbe.y + offset.y};
  const double to_probe = std::atan2(-offset.y, -offset.x);
  c.orientation = geom::normalize_angle(edge ? to_probe + 0.5 * fov : to_probe);
  c.radius = std::hypot(offset.x, offset.y) + 0.01;
  c.fov = fov;
  return c;
}

// Every arc boundary of both partitions, as viewed directions.
std::vector<double> boundary_directions(double theta) {
  std::vector<double> out;
  for (const double w : {2.0 * theta, theta}) {
    for (const geom::Arc& a : geom::sector_partition(w)) {
      out.push_back(a.start);
      out.push_back(geom::normalize_angle(a.start + a.width));
    }
  }
  return out;
}

// One adversarial network around the probe.
Network adversarial_network(double theta, stats::Pcg32& rng) {
  const std::vector<double> bounds = boundary_directions(theta);
  std::vector<Camera> cams;
  auto fov = [&rng]() {
    constexpr double kFovs[] = {kTwoPi, 2.0, 1.0, 0.3};
    return kFovs[stats::uniform_below(rng, 4)];
  };
  auto reach = [&rng]() { return stats::uniform_in(rng, 0.02, 0.3); };
  auto polar = [](double dir, double rho) {
    return geom::Vec2{rho * std::cos(dir), rho * std::sin(dir)};
  };
  const std::size_t count = stats::uniform_below(rng, 36);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Vec2 off;
    switch (stats::uniform_below(rng, 5)) {
      case 0: {  // an arc boundary of either partition
        off = polar(bounds[stats::uniform_below(
                        rng, static_cast<std::uint32_t>(bounds.size()))],
                    reach());
        break;
      }
      case 1: {  // an exact axis or diagonal offset: dx == 0, dy == 0 or |dx| == |dy|
        const double d = reach();
        const double sx = stats::uniform_below(rng, 2) == 0 ? -d : d;
        const double sy = stats::uniform_below(rng, 2) == 0 ? -d : d;
        switch (stats::uniform_below(rng, 3)) {
          case 0:
            off = {sx, 0.0};
            break;
          case 1:
            off = {0.0, sy};
            break;
          default:
            off = {sx, sy};
            break;
        }
        break;
      }
      case 2: {  // a ring of directions exactly 2*theta apart
        const double start = bounds[stats::uniform_below(
            rng, static_cast<std::uint32_t>(bounds.size()))];
        for (double a = 0.0; a < kTwoPi - 1e-12; a += 2.0 * theta) {
          cams.push_back(camera_at(polar(start + a, reach()), kTwoPi, false));
        }
        continue;
      }
      case 3:  // the point itself
        cams.push_back(camera_at({0.0, 0.0}, fov(), false));
        continue;
      default:  // anywhere
        off = polar(stats::uniform_in(rng, 0.0, kTwoPi), reach());
        break;
    }
    const double f = fov();
    const bool edge = f < kTwoPi && stats::uniform_below(rng, 4) == 0;
    cams.push_back(camera_at(off, f, edge));
    switch (stats::uniform_below(rng, 4)) {
      case 0:  // coincident twin
        cams.push_back(cams.back());
        break;
      case 1:  // collinear: same direction, another distance
        cams.push_back(camera_at({0.5 * off.x, 0.5 * off.y}, kTwoPi, false));
        break;
      default:
        break;
    }
  }
  return Network(std::move(cams), geom::SpaceMode::kTorus);
}

TEST(SectorOccupancy, AdversarialBoundariesMatchOraclesUnderEveryKernel) {
  GridEvalCounters counters;
  testsupport::PointOutcomes seen;
  for (const double theta : kThetas) {
    stats::Pcg32 rng =
        stats::make_child_rng(1515, static_cast<std::uint64_t>(theta * 1e6));
    for (int net_i = 0; net_i < 40; ++net_i) {
      const Network net = adversarial_network(theta, rng);
      seen.add(testsupport::point_oracle(net, theta));
      for (const KernelVariant variant : supported_kernels()) {
        const ForcedKernel pin(variant);
        SCOPED_TRACE(testing::Message() << "theta=" << theta << " net=" << net_i
                                        << " kernel=" << kernel_name(variant)
                                        << " cameras=" << net.size());
        testsupport::expect_point_booleans(net, theta, &counters);
      }
    }
  }
  seen.expect_both_outcomes();
  // The exact paths actually ran: boundary directions took the atan2 band
  // path and lenses with the point on their edge the field-of-view band.
  EXPECT_GT(counters.atan2_calls, 0U);
  EXPECT_GT(counters.trig_fallbacks, 0U);
  EXPECT_GT(counters.occupancy_points, 0U);
}

// Directions exactly on every boundary and nowhere else: every direction
// is a band hit, so the masks come only from the exact path and full view
// from the sorted path — and the answer is still the oracle's.
TEST(SectorOccupancy, OnlyBoundaryDirectionsTakeTheExactPath) {
  for (const double theta : kThetas) {
    std::vector<Camera> cams;
    for (const double dir : boundary_directions(theta)) {
      const geom::Vec2 off{0.2 * std::cos(dir), 0.2 * std::sin(dir)};
      cams.push_back(camera_at(off, kTwoPi, false));
    }
    const Network net(std::move(cams), geom::SpaceMode::kTorus);
    GridEvalCounters counters;
    SCOPED_TRACE(testing::Message() << "theta=" << theta);
    testsupport::expect_point_booleans(net, theta, &counters);
    EXPECT_EQ(counters.occupancy_points, 0U);
    EXPECT_GT(counters.atan2_calls, 0U);
  }
}

// A well-covered point is decided from occupancy alone: no atan2, no sort,
// and an exact classify only for the few covering cameras the row sweep
// cannot certify (here one camera 1.5e-6 from the probe's row).
TEST(SectorOccupancy, DenseCoverageDecidedWithoutAtan2) {
  stats::Pcg32 rng = stats::make_child_rng(1516, 0);
  std::vector<Camera> cams;
  for (int i = 0; i < 400; ++i) {
    const double dir = stats::uniform_in(rng, 0.0, kTwoPi);
    const double rho = stats::uniform_in(rng, 0.02, 0.3);
    cams.push_back(camera_at({rho * std::cos(dir), rho * std::sin(dir)}, kTwoPi, false));
  }
  const Network net(std::move(cams), geom::SpaceMode::kTorus);
  const DenseGrid grid(1);
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  GridEvalScratch scratch;
  GridEvalCounters counters;
  scratch.counters = &counters;
  const GridRowEvents ev = engine.row_events(0, scratch, true, true);
  EXPECT_TRUE(ev.all_necessary);
  EXPECT_TRUE(ev.all_full_view);
  EXPECT_TRUE(ev.all_sufficient);
  EXPECT_EQ(counters.points, 1U);
  EXPECT_EQ(counters.occupancy_points, 1U);
  EXPECT_EQ(counters.atan2_calls, 0U);
  EXPECT_LE(counters.directions_total, counters.candidates_total);
  EXPECT_LE(counters.candidates_total, 4U);
}

}  // namespace
}  // namespace fvc::core
