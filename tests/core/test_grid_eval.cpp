// Differential tests for the batched grid-evaluation engine: every engine
// result must be **bit-identical** to the scalar oracles
// (`full_view_covered`, `meets_necessary_condition`,
// `meets_sufficient_condition`, `evaluate_region_scalar`) over randomized
// heterogeneous deployments — uniform and Poisson, torus and plane,
// boundary cameras, and points covered by zero or one camera.  Double
// comparisons deliberately use EXPECT_EQ / ASSERT_EQ (exact equality), not
// a tolerance: the engine's contract is exact replication of the scalar
// floating-point arithmetic.

#include "fvc/core/grid_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/poisson.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "support/point_booleans.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;

// The paper's representative effective angles (theta = phi/2 - alpha).
constexpr double kThetas[] = {kPi / 12.0, kPi / 6.0, kPi / 4.0, kPi / 3.0};

// Random heterogeneous profile: 2 or 3 groups with mixed radii and fovs.
HeterogeneousProfile random_profile(stats::Pcg32& rng) {
  const std::size_t u = 2 + stats::uniform_below(rng, 2);
  std::vector<CameraGroupSpec> groups(u);
  double remaining = 1.0;
  for (std::size_t y = 0; y < u; ++y) {
    CameraGroupSpec& g = groups[y];
    if (y + 1 == u) {
      g.fraction = remaining;
    } else {
      g.fraction = remaining * stats::uniform_in(rng, 0.2, 0.8);
      remaining -= g.fraction;
    }
    g.radius = stats::uniform_in(rng, 0.05, 0.35);
    g.fov = stats::uniform_in(rng, 0.5, kTwoPi);
  }
  return HeterogeneousProfile(std::move(groups));
}

// Assert the engine reproduces every scalar oracle bit-for-bit on `net`.
void expect_bit_identical(const Network& net, const DenseGrid& grid, double theta) {
  const GridEvalEngine engine(net, grid, theta);
  GridEvalScratch scratch;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const geom::Vec2 p = grid.point(row, col);
      const FullViewResult got = engine.point_full_view(row, col, scratch);
      const FullViewResult want = full_view_covered(net, p, theta);
      ASSERT_EQ(got.covered, want.covered)
          << "theta=" << theta << " row=" << row << " col=" << col;
      ASSERT_EQ(got.max_gap, want.max_gap)
          << "theta=" << theta << " row=" << row << " col=" << col;
      ASSERT_EQ(got.covering_count, want.covering_count)
          << "theta=" << theta << " row=" << row << " col=" << col;
      ASSERT_EQ(got.witness_unsafe_direction.has_value(),
                want.witness_unsafe_direction.has_value());
      if (want.witness_unsafe_direction.has_value()) {
        ASSERT_EQ(*got.witness_unsafe_direction, *want.witness_unsafe_direction);
      }
      ASSERT_EQ(engine.point_necessary(row, col, scratch),
                meets_necessary_condition(net, p, theta))
          << "theta=" << theta << " row=" << row << " col=" << col;
      ASSERT_EQ(engine.point_sufficient(row, col, scratch),
                meets_sufficient_condition(net, p, theta))
          << "theta=" << theta << " row=" << row << " col=" << col;
    }
  }
  const RegionCoverageStats got = engine.evaluate(scratch);
  const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
  EXPECT_EQ(got.total_points, want.total_points);
  EXPECT_EQ(got.covered_1, want.covered_1);
  EXPECT_EQ(got.necessary_ok, want.necessary_ok);
  EXPECT_EQ(got.full_view_ok, want.full_view_ok);
  EXPECT_EQ(got.sufficient_ok, want.sufficient_ok);
  EXPECT_EQ(got.k_covered_ok, want.k_covered_ok);
  EXPECT_EQ(got.min_max_gap, want.min_max_gap);
  EXPECT_EQ(got.max_max_gap, want.max_max_gap);
}

// 25 seeds x 4 thetas = 100 random uniform torus networks.
TEST(GridEvalDifferential, UniformTorusBitIdenticalToScalarOracles) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    stats::Pcg32 rng = stats::make_child_rng(1001, seed);
    const HeterogeneousProfile profile = random_profile(rng);
    const std::size_t n = 3 + stats::uniform_below(rng, 58);
    const Network net = deploy::deploy_uniform_network(profile, n, rng);
    const DenseGrid grid(6);
    for (const double theta : kThetas) {
      expect_bit_identical(net, grid, theta);
    }
  }
}

// 25 seeds x 4 thetas = 100 random Poisson torus networks (count varies,
// including occasional zero-camera realizations at low density).
TEST(GridEvalDifferential, PoissonTorusBitIdenticalToScalarOracles) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    stats::Pcg32 rng = stats::make_child_rng(2002, seed);
    const HeterogeneousProfile profile = random_profile(rng);
    const double density = stats::uniform_in(rng, 1.0, 60.0);
    const Network net = deploy::deploy_poisson_network(profile, density, rng);
    const DenseGrid grid(6);
    for (const double theta : kThetas) {
      expect_bit_identical(net, grid, theta);
    }
  }
}

// Plane mode with cameras forced onto the region boundary: wraparound is
// off and the engine's candidate windows are clamped instead of wrapped.
TEST(GridEvalDifferential, PlaneModeBoundaryCamerasBitIdentical) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stats::Pcg32 rng = stats::make_child_rng(3003, seed);
    std::vector<Camera> cams;
    const std::size_t n = 4 + stats::uniform_below(rng, 20);
    for (std::size_t i = 0; i < n; ++i) {
      Camera c;
      c.position = {stats::uniform01(rng), stats::uniform01(rng)};
      // Pin every fourth camera to an edge or corner of the unit square.
      if (i % 4 == 0) {
        c.position.x = (i % 8 == 0) ? 0.0 : 1.0;
      }
      if (i % 6 == 0) {
        c.position.y = (i % 12 == 0) ? 0.0 : 1.0;
      }
      c.orientation = stats::uniform_in(rng, 0.0, kTwoPi);
      c.radius = stats::uniform_in(rng, 0.05, 0.6);
      c.fov = stats::uniform_in(rng, 0.5, kTwoPi);
      cams.push_back(c);
    }
    const Network net(std::move(cams), geom::SpaceMode::kPlane);
    const DenseGrid grid(6);
    for (const double theta : kThetas) {
      expect_bit_identical(net, grid, theta);
    }
  }
}

// Zero covering cameras everywhere: the engine must reproduce the
// documented empty-span semantics (not covered, max_gap = 2*pi, witness 0).
TEST(GridEvalDifferential, EmptyNetworkMatchesEmptySpanSemantics) {
  const Network net;
  const DenseGrid grid(5);
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  GridEvalScratch scratch;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const FullViewResult r = engine.point_full_view(row, col, scratch);
      EXPECT_FALSE(r.covered);
      EXPECT_EQ(r.max_gap, kTwoPi);
      EXPECT_EQ(r.covering_count, 0u);
      ASSERT_TRUE(r.witness_unsafe_direction.has_value());
      EXPECT_EQ(*r.witness_unsafe_direction, 0.0);
      EXPECT_FALSE(engine.point_necessary(row, col, scratch));
      EXPECT_FALSE(engine.point_sufficient(row, col, scratch));
    }
  }
  expect_bit_identical(net, grid, kPi / 4.0);
}

// A single omnidirectional camera: points are covered by exactly zero or
// one camera, and one viewed direction can never close the circle.
TEST(GridEvalDifferential, SingleCameraZeroOrOneCoverage) {
  Camera c;
  c.position = {0.5, 0.5};
  c.orientation = 0.0;
  c.radius = 0.3;
  c.fov = kTwoPi;
  const Network net({c});
  const DenseGrid grid(7);
  for (const double theta : kThetas) {
    expect_bit_identical(net, grid, theta);
  }
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  GridEvalScratch scratch;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const FullViewResult r = engine.point_full_view(row, col, scratch);
      EXPECT_LE(r.covering_count, 1u);
      EXPECT_FALSE(r.covered);  // one direction never full-view covers
    }
  }
}

// Cameras ring a single grid point at exact sector-boundary angles, so the
// gathered viewed directions land on (or within an ulp of) the partition
// arc endpoints — the harshest case for the engine's fmod-free circular
// delta to agree with geom::ccw_delta in the oracles.
TEST(GridEvalDifferential, SectorBoundaryViewedDirections) {
  const DenseGrid grid(1);  // single point at (0.5, 0.5)
  const geom::Vec2 p = grid.point(0, 0);
  for (const double theta : {kPi / 12.0, kPi / 6.0, kPi / 4.0, kPi / 3.0, 0.9}) {
    const std::size_t k = static_cast<std::size_t>(std::ceil(kTwoPi / theta));
    std::vector<Camera> cams;
    for (std::size_t j = 0; j < k; ++j) {
      // Viewed direction of camera S at P is the angle of P->S, so placing
      // S at p + d*(cos a, sin a) makes the viewed direction (about) a.
      const double a = static_cast<double>(j) * theta;
      Camera c;
      c.position = {p.x + 0.05 * std::cos(a), p.y + 0.05 * std::sin(a)};
      c.orientation = a + kPi;  // face the point
      c.radius = 0.1;
      c.fov = kTwoPi;
      cams.push_back(c);
    }
    const Network net(std::move(cams));
    expect_bit_identical(net, grid, theta);
  }
}

TEST(GridEvalEngine, CandidateListsContainEveryCoveringCamera) {
  stats::Pcg32 rng = stats::make_child_rng(4004, 0);
  for (int trial = 0; trial < 10; ++trial) {
    const HeterogeneousProfile profile = random_profile(rng);
    const Network net = deploy::deploy_uniform_network(profile, 40, rng);
    const DenseGrid grid(6);
    const GridEvalEngine engine(net, grid, kPi / 4.0);
    grid.for_each([&](std::size_t, const geom::Vec2& p) {
      const std::span<const std::uint32_t> cand = engine.candidates(p);
      for (const std::size_t cam : net.covering_cameras(p)) {
        EXPECT_NE(std::find(cand.begin(), cand.end(), static_cast<std::uint32_t>(cam)),
                  cand.end())
            << "covering camera " << cam << " missing from candidate bin";
      }
    });
  }
}

TEST(GridEvalEngine, RowStatsSumToEvaluate) {
  stats::Pcg32 rng = stats::make_child_rng(5005, 0);
  const HeterogeneousProfile profile = random_profile(rng);
  const Network net = deploy::deploy_uniform_network(profile, 50, rng);
  const DenseGrid grid(8);
  const double theta = kPi / 4.0;
  const GridEvalEngine engine(net, grid, theta);
  GridEvalScratch scratch;
  RegionCoverageStats sum;
  sum.total_points = grid.size();
  for (std::size_t row = 0; row < engine.rows(); ++row) {
    const GridRowStats rs = engine.row_stats(row, scratch);
    sum.covered_1 += rs.covered_1;
    sum.necessary_ok += rs.necessary_ok;
    sum.full_view_ok += rs.full_view_ok;
    sum.sufficient_ok += rs.sufficient_ok;
    sum.k_covered_ok += rs.k_covered_ok;
    if (row == 0) {
      sum.min_max_gap = rs.min_max_gap;
      sum.max_max_gap = rs.max_max_gap;
    } else {
      sum.min_max_gap = std::min(sum.min_max_gap, rs.min_max_gap);
      sum.max_max_gap = std::max(sum.max_max_gap, rs.max_max_gap);
    }
  }
  const RegionCoverageStats whole = engine.evaluate(scratch);
  EXPECT_EQ(sum.covered_1, whole.covered_1);
  EXPECT_EQ(sum.necessary_ok, whole.necessary_ok);
  EXPECT_EQ(sum.full_view_ok, whole.full_view_ok);
  EXPECT_EQ(sum.sufficient_ok, whole.sufficient_ok);
  EXPECT_EQ(sum.k_covered_ok, whole.k_covered_ok);
  EXPECT_EQ(sum.min_max_gap, whole.min_max_gap);
  EXPECT_EQ(sum.max_max_gap, whole.max_max_gap);
}

TEST(GridEvalEngine, RowScansAgreeWithScalarCounts) {
  stats::Pcg32 rng = stats::make_child_rng(6006, 0);
  for (int trial = 0; trial < 8; ++trial) {
    const HeterogeneousProfile profile = random_profile(rng);
    const Network net = deploy::deploy_uniform_network(profile, 60, rng);
    const DenseGrid grid(6);
    const double theta = kThetas[static_cast<std::size_t>(trial) % 4];
    const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
    const GridEvalEngine engine(net, grid, theta);
    GridEvalScratch scratch;
    bool all_nec = true;
    bool all_suf = true;
    bool all_fv = true;
    for (std::size_t row = 0; row < engine.rows(); ++row) {
      all_nec = all_nec && engine.row_all_necessary(row, scratch);
      all_suf = all_suf && engine.row_all_sufficient(row, scratch);
      all_fv = all_fv && engine.row_all_full_view(row, scratch);
    }
    EXPECT_EQ(all_nec, want.all_necessary());
    EXPECT_EQ(all_suf, want.all_sufficient());
    EXPECT_EQ(all_fv, want.all_full_view());
    // row_events with the trial-runner protocol reproduces the same bits.
    bool ev_fv = true;
    bool ev_suf = true;
    bool ev_nec = true;
    for (std::size_t row = 0; row < engine.rows() && ev_nec; ++row) {
      const GridRowEvents re = engine.row_events(row, scratch, ev_fv, ev_suf);
      ev_nec = re.all_necessary;
      ev_fv = ev_fv && re.all_full_view;
      ev_suf = ev_suf && re.all_sufficient;
    }
    EXPECT_EQ(ev_nec, want.all_necessary());
    if (ev_nec) {
      EXPECT_EQ(ev_fv, want.all_full_view());
      EXPECT_EQ(ev_suf, want.all_sufficient());
    }
  }
}

// The row-level test above compares grid-wide ANDs only, so a wrong point
// can hide behind a failing one.  Check the boolean scans one probe point at
// a time instead (each network translated so the probe is the single point
// of a DenseGrid(1)), over the paper's angles plus a remainder-arc angle and
// angles with 2*theta > pi.
TEST(GridEvalEngine, BooleanScansMatchOraclesAtEveryProbePoint) {
  constexpr double thetas[] = {kPi / 12.0, kPi / 6.0, kPi / 4.0, kPi / 3.0,
                               0.3 * kPi,  0.7 * kPi, kPi};
  stats::Pcg32 rng = stats::make_child_rng(6116, 0);
  testsupport::PointOutcomes seen;
  for (std::size_t trial = 0; trial < 14; ++trial) {
    const HeterogeneousProfile profile = random_profile(rng);
    const std::size_t n = 20 + stats::uniform_below(rng, 300);
    const Network net = deploy::deploy_uniform_network(profile, n, rng);
    const double theta = thetas[trial % std::size(thetas)];
    for (int k = 0; k < 30; ++k) {
      const geom::Vec2 p{stats::uniform01(rng), stats::uniform01(rng)};
      SCOPED_TRACE(testing::Message() << "trial=" << trial << " theta=" << theta
                                      << " p=(" << p.x << ", " << p.y << ")");
      const Network centered = testsupport::centered_on(net, p);
      testsupport::expect_point_booleans(centered, theta);
      seen.add(testsupport::point_oracle(centered, theta));
    }
  }
  // Both outcomes of every predicate occurred, so no check was vacuous.
  seen.expect_both_outcomes();
}

TEST(GridEvalEngine, PublicEntryPointsUseTheEngine) {
  // evaluate_region is documented as engine-backed and bit-identical to the
  // scalar path; lock the equivalence at the public-API level too.
  stats::Pcg32 rng = stats::make_child_rng(7007, 0);
  const HeterogeneousProfile profile = random_profile(rng);
  const Network net = deploy::deploy_uniform_network(profile, 80, rng);
  const DenseGrid grid(9);
  for (const double theta : kThetas) {
    const RegionCoverageStats a = evaluate_region(net, grid, theta);
    const RegionCoverageStats b = evaluate_region_scalar(net, grid, theta);
    EXPECT_EQ(a.covered_1, b.covered_1);
    EXPECT_EQ(a.necessary_ok, b.necessary_ok);
    EXPECT_EQ(a.full_view_ok, b.full_view_ok);
    EXPECT_EQ(a.sufficient_ok, b.sufficient_ok);
    EXPECT_EQ(a.k_covered_ok, b.k_covered_ok);
    EXPECT_EQ(a.min_max_gap, b.min_max_gap);
    EXPECT_EQ(a.max_max_gap, b.max_max_gap);
  }
}

TEST(GridEvalEngine, ValidatesTheta) {
  const Network net;
  const DenseGrid grid(4);
  EXPECT_THROW(GridEvalEngine(net, grid, 0.0), std::invalid_argument);
  EXPECT_THROW(GridEvalEngine(net, grid, -1.0), std::invalid_argument);
  EXPECT_THROW(GridEvalEngine(net, grid, kPi + 0.01), std::invalid_argument);
  EXPECT_NO_THROW(GridEvalEngine(net, grid, kPi));
}

}  // namespace
}  // namespace fvc::core
