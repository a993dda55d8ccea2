// Adversarial tests for the engine's region-stats path (`block_stats`,
// `row_stats`, `evaluate`, and through them the parallel scan and the
// serve tile cache).  The stats path decides each point from sector
// occupancy and bounds its max gap from a pseudo-angle bin bitmap; a point
// takes the exact atan2 -> sort -> gap path only when full view is still
// open or its gap could move the block's running extremes.  The generator
// here puts small camera patterns around the points of a multi-point grid
// and aims at the seams of that rule: the same pattern translated to
// several points (max gaps equal or one ulp apart), rings of directions
// exactly 2*theta apart evaluated at theta = gap / 2 and one ulp either
// side, directions on bin boundaries and on the 2*pi -> 0 wrap, points
// with no, one, or two coincident covering cameras, and cameras at the
// point.  `evaluate`, the fold of `block_stats` over every row partition,
// and `api::Session::query_region` must all equal `evaluate_region_scalar`
// bit for bit under every supported kernel pin.  A second generator aims
// at the seams of the stats row sweep's outer column sets (see
// `SweepSeamsMatchTheOracleUnderEveryKernel`).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fvc/api/session.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "support/forced_kernel.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using testsupport::ForcedKernel;
using testsupport::supported_kernels;

constexpr std::size_t kSide = 7;  // 2^6 row partitions

// The paper's angles, a remainder-arc angle and angles above pi/2.
constexpr double kThetas[] = {kPi / 6.0, kPi / 4.0, 0.3 * kPi, kPi / 2.0, 0.7 * kPi};

void expect_bitwise_equal(const RegionCoverageStats& want, const RegionCoverageStats& got) {
  EXPECT_EQ(want.total_points, got.total_points);
  EXPECT_EQ(want.covered_1, got.covered_1);
  EXPECT_EQ(want.necessary_ok, got.necessary_ok);
  EXPECT_EQ(want.full_view_ok, got.full_view_ok);
  EXPECT_EQ(want.sufficient_ok, got.sufficient_ok);
  EXPECT_EQ(want.k_covered_ok, got.k_covered_ok);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.min_max_gap),
            std::bit_cast<std::uint64_t>(got.min_max_gap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.max_max_gap),
            std::bit_cast<std::uint64_t>(got.max_max_gap));
}

// A camera at `p + offset` looking back at `p` and reaching it, but no
// other grid point when |offset| is below half the grid spacing.
Camera camera_at(const geom::Vec2& p, const geom::Vec2& offset, double fov) {
  Camera c;
  c.position = {p.x + offset.x, p.y + offset.y};
  c.orientation = geom::normalize_angle(std::atan2(-offset.y, -offset.x));
  c.radius = std::hypot(offset.x, offset.y) * (1.0 + 1e-3) + 1e-12;
  c.fov = fov;
  return c;
}

// A camera `reach` to the right of `p` and one ulp below it: its viewed
// direction lies a few 1e-16 rad below 2*pi, which the oracle's
// fl(atan2 + pi) may round to 2*pi and so to 0, and whose pseudo-angle may
// round to 4 (the wrap back to bin 0) or stay in the last bin.
Camera wrap_camera(const geom::Vec2& p, double reach) {
  Camera cam = camera_at(p, {reach, 0.0}, kTwoPi);
  cam.position.y = std::nextafter(p.y, -1.0);
  return cam;
}

// A pattern is a list of camera offsets (relative to its point) with
// their lenses; translating it to several points repeats its max gap up
// to the rounding of the translated displacements.
struct Pattern {
  std::vector<std::pair<geom::Vec2, double>> cams;  // offset, fov
  // When nonzero: one more camera this far to the right of the point and
  // one ulp below it, whose viewed direction rounds to the 2*pi -> 0 wrap.
  double below = 0.0;
};

Pattern random_pattern(double theta, stats::Pcg32& rng) {
  const double spacing = 1.0 / static_cast<double>(kSide);
  auto reach = [&] { return spacing * stats::uniform_in(rng, 0.15, 0.45); };
  auto fov = [&] {
    constexpr double kFovs[] = {kTwoPi, 2.0, 1.0};
    return kFovs[stats::uniform_below(rng, 3)];
  };
  auto polar = [](double dir, double rho) {
    return geom::Vec2{rho * std::cos(dir), rho * std::sin(dir)};
  };
  Pattern pat;
  switch (stats::uniform_below(rng, 7)) {
    case 0:  // no camera
      break;
    case 1:  // one camera
      pat.cams.push_back({polar(stats::uniform_in(rng, 0.0, kTwoPi), reach()), fov()});
      break;
    case 2: {  // two coincident cameras
      const geom::Vec2 off = polar(stats::uniform_in(rng, 0.0, kTwoPi), reach());
      pat.cams.push_back({off, kTwoPi});
      pat.cams.push_back({off, kTwoPi});
      break;
    }
    case 3: {  // a ring of directions exactly 2*theta apart
      const double start = stats::uniform_in(rng, 0.0, kTwoPi);
      for (double a = 0.0; a < kTwoPi - 1e-12; a += 2.0 * theta) {
        pat.cams.push_back({polar(start + a, reach()), kTwoPi});
      }
      break;
    }
    case 4: {  // directions on gap-bin boundaries: exact dyadic offsets
      const std::size_t k = 2 + stats::uniform_below(rng, 10);
      for (std::size_t i = 0; i < k; ++i) {
        // Pseudo-angle b / 64 (bin b of 256) is the direction of
        // (1 - u, u) in the first quadrant, rotated by quarter turns.
        const double u = static_cast<double>(stats::uniform_below(rng, 64)) / 64.0;
        const double s = spacing * 0.25;
        geom::Vec2 v{s * (1.0 - u), s * u};
        for (std::uint32_t q = stats::uniform_below(rng, 4); q > 0; --q) {
          v = {-v.y, v.x};
        }
        pat.cams.push_back({v, kTwoPi});
      }
      break;
    }
    case 5: {  // the 2*pi -> 0 wrap: dy == 0 with dx < 0, and dy one ulp off
      const double s = spacing * 0.3;
      pat.cams.push_back({{s, 0.0}, kTwoPi});
      pat.below = spacing * (stats::uniform_below(rng, 2) == 0 ? 0.3 : 0.45);
      pat.cams.push_back({polar(stats::uniform_in(rng, 0.5, 5.5), reach()), kTwoPi});
      break;
    }
    default: {  // a camera at the point plus a few anywhere
      pat.cams.push_back({{0.0, 0.0}, fov()});
      for (std::uint32_t k = stats::uniform_below(rng, 5); k > 0; --k) {
        pat.cams.push_back({polar(stats::uniform_in(rng, 0.0, kTwoPi), reach()), fov()});
      }
      break;
    }
  }
  return pat;
}

// A kSide x kSide grid whose points each carry one of a few patterns, so
// most patterns repeat at several points.
Network pattern_network(double theta, stats::Pcg32& rng) {
  const DenseGrid grid(kSide);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 5; ++i) {
    patterns.push_back(random_pattern(theta, rng));
  }
  std::vector<Camera> cams;
  for (std::size_t r = 0; r < kSide; ++r) {
    for (std::size_t c = 0; c < kSide; ++c) {
      const geom::Vec2 p = grid.point(r, c);
      const Pattern& pat = patterns[stats::uniform_below(rng, 5)];
      for (const auto& [off, fov] : pat.cams) {
        cams.push_back(camera_at(p, off, fov));
      }
      if (pat.below != 0.0) {
        cams.push_back(wrap_camera(p, pat.below));
      }
    }
  }
  return Network(std::move(cams), geom::SpaceMode::kTorus);
}

// theta, plus theta such that 2*theta equals the oracle's max gap at some
// point exactly and one ulp either side of it.
std::vector<double> thetas_for(const Network& net, double theta) {
  std::vector<double> out{theta};
  const DenseGrid grid(kSide);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const FullViewResult fv = full_view_covered(net, grid.point(i / kSide, i % kSide), theta);
    if (fv.covering_count >= 3) {
      const double g = fv.max_gap;
      for (const double gap : {g, std::nextafter(g, 0.0), std::nextafter(g, 10.0)}) {
        if (gap / 2.0 <= kPi) {
          out.push_back(gap / 2.0);
        }
      }
      break;
    }
  }
  return out;
}

// The fold of `block_stats` over the row partition whose block ends are
// the set bits of `cuts` (bit r: a block ends after row r).
RegionCoverageStats partition_fold(const GridEvalEngine& engine, std::uint32_t cuts,
                                   GridEvalScratch& scratch) {
  GridRowStats acc;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < kSide; ++r) {
    if (r + 1 == kSide || ((cuts >> r) & 1U) != 0) {
      acc.fold(engine.block_stats(begin, r + 1, scratch), begin == 0);
      begin = r + 1;
    }
  }
  return acc.region(kSide * kSide);
}

void expect_stats_paths_match(const Network& net, double theta,
                              GridEvalCounters& counters) {
  const DenseGrid grid(kSide);
  const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
  const GridEvalEngine engine(net, grid, theta);
  GridEvalScratch scratch;
  scratch.counters = &counters;
  expect_bitwise_equal(want, engine.evaluate(scratch));
  for (std::uint32_t cuts = 0; cuts < (1U << (kSide - 1)); ++cuts) {
    SCOPED_TRACE(testing::Message() << "cuts=" << cuts);
    expect_bitwise_equal(want, partition_fold(engine, cuts, scratch));
  }
  api::SessionConfig cfg;
  cfg.cameras.assign(net.cameras().begin(), net.cameras().end());
  cfg.theta = theta;
  cfg.grid_side = kSide;
  cfg.tile_rows = 2;
  cfg.threads = 2;
  api::Session session(std::move(cfg));
  expect_bitwise_equal(want, session.query_region(0.0, 1.0).stats);
}

TEST(RegionStats, AdversarialPatternsMatchTheOracleUnderEveryKernel) {
  GridEvalCounters counters;
  std::size_t full_view_mixed = 0;  // scans with points both in and out of full view
  for (const double base : kThetas) {
    stats::Pcg32 rng = stats::make_child_rng(1616, static_cast<std::uint64_t>(base * 1e6));
    for (int net_i = 0; net_i < 6; ++net_i) {
      const Network net = pattern_network(base, rng);
      for (const double theta : thetas_for(net, base)) {
        const RegionCoverageStats want =
            evaluate_region_scalar(net, DenseGrid(kSide), theta);
        full_view_mixed += static_cast<std::size_t>(want.full_view_ok > 0 &&
                                                    want.full_view_ok < want.total_points);
        for (const KernelVariant variant : supported_kernels()) {
          const ForcedKernel pin(variant);
          SCOPED_TRACE(testing::Message()
                       << "theta=" << theta << " base=" << base << " net=" << net_i
                       << " kernel=" << kernel_name(variant) << " cameras=" << net.size());
          expect_stats_paths_match(net, theta, counters);
        }
      }
    }
  }
  EXPECT_GT(full_view_mixed, 0U);
  // Both branches ran: points pruned with no atan2 or sort, and points
  // that paid atan2 (band hits or the exact gap path).
  EXPECT_GT(counters.occupancy_points, 0U);
  EXPECT_LT(counters.occupancy_points, counters.points);
  EXPECT_GT(counters.atan2_calls, 0U);
}

// One pattern of random directions translated to every point: the max
// gaps agree to an ulp or two, so most points tie the running extremes and
// take the exact path; the result is still the oracle's.  A wider spread
// of patterns then prunes most points.
TEST(RegionStats, TranslatedPatternTiesAndPruning) {
  const double spacing = 1.0 / static_cast<double>(kSide);
  const DenseGrid grid(kSide);
  stats::Pcg32 rng = stats::make_child_rng(1617, 0);
  std::vector<geom::Vec2> offsets;
  for (int i = 0; i < 12; ++i) {
    const double dir = stats::uniform_in(rng, 0.0, kTwoPi);
    const double rho = spacing * stats::uniform_in(rng, 0.15, 0.45);
    offsets.push_back({rho * std::cos(dir), rho * std::sin(dir)});
  }
  auto build = [&](bool vary) {
    std::vector<Camera> cams;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const geom::Vec2 p = grid.point(i / kSide, i % kSide);
      // With `vary`, each point drops a different camera of the pattern.
      for (std::size_t k = 0; k < offsets.size(); ++k) {
        if (!vary || k != i % offsets.size()) {
          cams.push_back(camera_at(p, offsets[k], kTwoPi));
        }
      }
    }
    return Network(std::move(cams), geom::SpaceMode::kTorus);
  };
  for (const bool vary : {false, true}) {
    SCOPED_TRACE(testing::Message() << "vary=" << vary);
    const Network net = build(vary);
    GridEvalCounters counters;
    expect_stats_paths_match(net, kPi / 4.0, counters);
    EXPECT_GT(counters.atan2_calls, 0U);
    if (vary) {
      EXPECT_GT(counters.occupancy_points, 0U);
    }
  }
}

// The 2*pi -> 0 wrap at every point of the grid: on the lowest row the
// oracle's direction for the camera below rounds to 0 while its
// pseudo-angle is 4 or just below it, so the camera is binned at the far
// end of the circle from its oracle direction; higher rows keep it just
// below 2*pi.
TEST(RegionStats, WrapDirectionsMatchTheOracle) {
  const double spacing = 1.0 / static_cast<double>(kSide);
  const DenseGrid grid(kSide);
  for (const double reach : {0.3 * spacing, 0.45 * spacing}) {
    std::vector<Camera> cams;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const geom::Vec2 p = grid.point(i / kSide, i % kSide);
      cams.push_back(wrap_camera(p, reach));
      for (const double dir : {2.0, 4.0}) {
        cams.push_back(
            camera_at(p, {0.3 * spacing * std::cos(dir), 0.3 * spacing * std::sin(dir)},
                      kTwoPi));
      }
    }
    const Network net(std::move(cams), geom::SpaceMode::kTorus);
    // On the lowest row the camera below the point is seen at direction 0.
    const std::vector<double> dirs = net.viewed_directions(grid.point(0, 0));
    ASSERT_EQ(dirs.size(), 3U);
    EXPECT_EQ(std::count(dirs.begin(), dirs.end(), 0.0), 1);
    for (const double theta : {kPi / 4.0, kPi / 2.0, 0.7 * kPi}) {
      SCOPED_TRACE(testing::Message() << "reach=" << reach << " theta=" << theta);
      GridEvalCounters counters;
      expect_stats_paths_match(net, theta, counters);
    }
  }
}

// The seams of the stats row sweep's outer column sets: every scan path
// must equal the oracle on a grid of `side` under every kernel pin, and
// the sweep counters must be equal across pins.
void expect_sweep_seam(const Network& net, std::size_t side, double theta) {
  const DenseGrid grid(side);
  const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
  GridEvalCounters first;
  bool have_first = false;
  for (const KernelVariant variant : supported_kernels()) {
    const ForcedKernel pin(variant);
    SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(variant) << " side=" << side
                                    << " theta=" << theta << " cameras=" << net.size());
    const GridEvalEngine engine(net, grid, theta);
    GridEvalScratch scratch;
    GridEvalCounters counters;
    scratch.counters = &counters;
    expect_bitwise_equal(want, engine.evaluate(scratch));
    // Every row its own block, then two blocks split in the middle.
    GridRowStats acc;
    for (std::size_t r = 0; r < side; ++r) {
      acc.fold(engine.block_stats(r, r + 1, scratch), r == 0);
    }
    expect_bitwise_equal(want, acc.region(grid.size()));
    if (side > 1) {
      GridRowStats halves = engine.block_stats(0, side / 2, scratch);
      halves.fold(engine.block_stats(side / 2, side, scratch), false);
      expect_bitwise_equal(want, halves.region(grid.size()));
    }
    if (net.mode() == geom::SpaceMode::kTorus) {  // a Session serves the torus
      api::SessionConfig cfg;
      cfg.cameras.assign(net.cameras().begin(), net.cameras().end());
      cfg.theta = theta;
      cfg.grid_side = side;
      cfg.tile_rows = 2;
      cfg.threads = 2;
      api::Session session(std::move(cfg));
      expect_bitwise_equal(want, session.query_region(0.0, 1.0).stats);
    }
    if (!have_first) {
      first = counters;
      have_first = true;
    } else {
      EXPECT_EQ(counters.stats_rows, first.stats_rows);
      EXPECT_EQ(counters.stats_camera_rows, first.stats_camera_rows);
      EXPECT_EQ(counters.stats_pairs, first.stats_pairs);
      EXPECT_EQ(counters.stats_replays, first.stats_replays);
      EXPECT_EQ(counters.candidates_total, first.candidates_total);
      EXPECT_EQ(counters.atan2_calls, first.atan2_calls);
      EXPECT_EQ(counters.occupancy_points, first.occupancy_points);
    }
  }
}

Camera seam_camera(geom::Vec2 pos, double orientation, double radius, double fov) {
  Camera c;
  c.position = pos;
  c.orientation = geom::normalize_angle(orientation);
  c.radius = radius;
  c.fov = fov;
  return c;
}

TEST(RegionStats, SweepSeamsMatchTheOracleUnderEveryKernel) {
  stats::Pcg32 rng = stats::make_child_rng(1619, 0);
  auto uniform = [&rng](double lo, double hi) { return stats::uniform_in(rng, lo, hi); };
  constexpr std::size_t kSeamSide = 16;
  const DenseGrid grid(kSeamSide);
  auto row_y = [&](std::size_t r) { return grid.point(r, 0).y; };
  auto col_x = [&](std::size_t c) { return grid.point(0, c).x; };
  for (const geom::SpaceMode mode : {geom::SpaceMode::kTorus, geom::SpaceMode::kPlane}) {
    SCOPED_TRACE(testing::Message() << "plane=" << (mode == geom::SpaceMode::kPlane));
    // |dy| below the sweep's 1e-5 (whole chords verified), on a row, and
    // just either side of the limit.
    {
      std::vector<Camera> cams;
      for (const double off : {0.0, 3e-6, -7e-6, 1e-5, -1e-5, 1.1e-5}) {
        for (const double fov : {kTwoPi, 2.0, 4.0}) {
          cams.push_back(seam_camera({uniform(0.0, 1.0), row_y(3) + off}, uniform(0.0, kTwoPi),
                                     uniform(0.05, 0.3), fov));
        }
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, kPi / 4.0);
    }
    // Outer half-chords of 0.49 and more: the whole row on the torus, the
    // plane's ends clamped.
    {
      std::vector<Camera> cams;
      for (const double radius : {0.49, 0.495, 0.6, 0.8}) {
        cams.push_back(seam_camera({uniform(0.0, 1.0), row_y(5) + 1e-3}, uniform(0.0, kTwoPi),
                                   radius, uniform(0.5, kTwoPi)));
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, kPi / 4.0);
    }
    // Outer ranges across the torus seam and past the plane's ends.
    {
      std::vector<Camera> cams;
      for (int i = 0; i < 12; ++i) {
        const double x = i % 2 == 0 ? uniform(0.0, 0.03) : uniform(0.97, 1.0);
        cams.push_back(seam_camera({x, uniform(0.0, 1.0)}, uniform(0.0, kTwoPi),
                                   uniform(0.1, 0.3), i % 3 == 0 ? kTwoPi : uniform(1.0, 5.0)));
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, kPi / 3.0);
    }
    // Reflex wedges (fov 3.5 and 4.0): two outer parts per row.
    {
      std::vector<Camera> cams;
      for (int i = 0; i < 24; ++i) {
        cams.push_back(seam_camera({uniform(0.0, 1.0), uniform(0.0, 1.0)}, uniform(0.0, kTwoPi),
                                   uniform(0.1, 0.35), i % 2 == 0 ? 3.5 : 4.0));
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, kPi / 4.0);
    }
    // Cameras on grid points, and field-of-view edges through grid points.
    {
      std::vector<Camera> cams;
      for (int i = 0; i < 16; ++i) {
        const geom::Vec2 g = grid.point(stats::uniform_below(rng, kSeamSide),
                                        stats::uniform_below(rng, kSeamSide));
        if (i % 2 == 0) {
          cams.push_back(seam_camera(g, uniform(0.0, kTwoPi), uniform(0.1, 0.3),
                                     i % 4 == 0 ? kTwoPi : 2.0));
        } else {
          const geom::Vec2 pos{uniform(0.0, 1.0), uniform(0.0, 1.0)};
          const double fov = uniform(0.5, 3.0);
          const double to_g = std::atan2(g.y - pos.y, g.x - pos.x);
          cams.push_back(seam_camera(pos, to_g + (i % 4 == 1 ? 0.5 : -0.5) * fov,
                                     std::hypot(g.x - pos.x, g.y - pos.y) + 0.05, fov));
        }
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, kPi / 4.0);
    }
    // Rows where every point takes the exact gap: the same ring at every
    // point of row 8, each ring's max gap 2 * theta within rounding, so
    // full view stays open at every point of the row.
    {
      const double theta = kPi / 4.0;
      std::vector<Camera> cams;
      for (std::size_t c = 0; c < kSeamSide; ++c) {
        const geom::Vec2 p{col_x(c), row_y(8)};
        for (int k = 0; k < 4; ++k) {
          const double dir = 2.0 * theta * k + 0.1;
          const double rho = 0.3 / static_cast<double>(kSeamSide);
          cams.push_back(camera_at(p, {rho * std::cos(dir), rho * std::sin(dir)}, kTwoPi));
        }
      }
      expect_sweep_seam(Network(cams, mode), kSeamSide, theta);
    }
    // theta = 0.05 (a fine sector table, several mask words) and a grid of
    // side 1.
    {
      std::vector<Camera> cams;
      for (int i = 0; i < 40; ++i) {
        cams.push_back(seam_camera({uniform(0.0, 1.0), uniform(0.0, 1.0)}, uniform(0.0, kTwoPi),
                                   uniform(0.05, 0.5), i % 2 == 0 ? kTwoPi : uniform(0.5, 6.0)));
      }
      const Network net(cams, mode);
      expect_sweep_seam(net, kSeamSide, 0.05);
      expect_sweep_seam(net, 1, kPi / 4.0);
      expect_sweep_seam(net, 1, 0.05);
    }
  }
}

// The counters keep their sorted-path meaning on the stats path: every
// point and candidate counted, every covering direction consumed, and
// atan2 paid only where it is made.
TEST(RegionStats, CountersCountEveryPointAndDirection) {
  const DenseGrid grid(kSide);
  stats::Pcg32 rng = stats::make_child_rng(1618, 0);
  const Network net = pattern_network(kPi / 4.0, rng);
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  GridEvalScratch scratch;
  GridEvalCounters counters;
  scratch.counters = &counters;
  (void)engine.evaluate(scratch);
  std::uint64_t directions = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    directions += net.viewed_directions(grid.point(i / kSide, i % kSide)).size();
  }
  EXPECT_EQ(counters.points, grid.size());
  EXPECT_EQ(counters.directions_total, directions);
  EXPECT_LE(counters.atan2_calls, directions);
  EXPECT_EQ(counters.candidates_per_point.total(), grid.size());
}

}  // namespace
}  // namespace fvc::core
