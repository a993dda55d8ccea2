// Differential tests of the candidate index over clustered and uniform
// deployments.  The contract under test is the index's core promise: it
// only decides which duplicate-free *superset* of the covering cameras the
// classify kernel inspects, so every per-point direction list and every
// aggregate statistic is bit-identical to the scalar oracles
// (`full_view_covered`, `meets_*_condition`, `evaluate_region_scalar`),
// across deployment families (uniform, Matern, Gaussian cluster, strip
// hotspot), kernels, thread counts and grains.  Double comparisons go
// through std::bit_cast<uint64_t> so even a sign-of-zero divergence would
// fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fvc/core/coverage.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/cluster.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "support/forced_kernel.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using testsupport::ForcedKernel;
using testsupport::supported_kernels;

// Heterogeneous profile with an omnidirectional group (same shape as
// test_grid_eval_kernels.cpp) so omni and sector lanes share batches.
HeterogeneousProfile random_profile_with_omni(stats::Pcg32& rng) {
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
    g.fov = (y == 0) ? kTwoPi : stats::uniform_in(rng, 0.5, kTwoPi);
  }
  return HeterogeneousProfile(std::move(groups));
}

// The deployment families the suite sweeps.  Each is deterministic per
// seed; all use the same profile draw so only the POSITION process varies.
enum class Family { kUniform, kMatern, kGaussian, kStrip };
constexpr Family kFamilies[] = {Family::kUniform, Family::kMatern,
                                Family::kGaussian, Family::kStrip};

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kMatern: return "matern";
    case Family::kGaussian: return "gaussian";
    case Family::kStrip: return "strip";
  }
  return "?";
}

Network deploy_family(Family f, std::uint64_t seed) {
  stats::Pcg32 rng = stats::make_child_rng(8101, seed);
  const HeterogeneousProfile profile = random_profile_with_omni(rng);
  switch (f) {
    case Family::kUniform:
      return deploy::deploy_uniform_network(profile, 3 + stats::uniform_below(rng, 58),
                                            rng);
    case Family::kMatern: {
      deploy::ClusterConfig cfg;
      cfg.parent_intensity = 4.0;
      cfg.mean_children = 8.0;
      cfg.spread = 0.04;
      return deploy::deploy_matern_cluster_network(profile, cfg, rng);
    }
    case Family::kGaussian: {
      deploy::GaussianClusterConfig cfg;
      cfg.count = 3 + stats::uniform_below(rng, 58);
      cfg.clusters = 1 + stats::uniform_below(rng, 3);
      cfg.sigma = 0.015;
      return deploy::deploy_gaussian_cluster_network(profile, cfg, rng);
    }
    case Family::kStrip: {
      deploy::StripHotspotConfig cfg;
      cfg.count = 3 + stats::uniform_below(rng, 58);
      cfg.center = stats::uniform01(rng);
      cfg.half_width = 0.03;
      cfg.hot_fraction = 0.85;
      return deploy::deploy_strip_hotspot_network(profile, cfg, rng);
    }
  }
  return Network();
}

void expect_stats_identical(const RegionCoverageStats& ref,
                            const RegionCoverageStats& got, const std::string& what) {
  EXPECT_EQ(ref.total_points, got.total_points) << what;
  EXPECT_EQ(ref.covered_1, got.covered_1) << what;
  EXPECT_EQ(ref.necessary_ok, got.necessary_ok) << what;
  EXPECT_EQ(ref.full_view_ok, got.full_view_ok) << what;
  EXPECT_EQ(ref.sufficient_ok, got.sufficient_ok) << what;
  EXPECT_EQ(ref.k_covered_ok, got.k_covered_ok) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.min_max_gap),
            std::bit_cast<std::uint64_t>(got.min_max_gap))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.max_max_gap),
            std::bit_cast<std::uint64_t>(got.max_max_gap))
      << what;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Assert the engine reproduces every scalar oracle bit-for-bit on `net`:
// the sorted direction list and the three predicates at every grid point,
// and the whole-grid aggregate.
void expect_matches_oracles(const Network& net, const DenseGrid& grid, double theta,
                            const std::string& what) {
  const GridEvalEngine engine(net, grid, theta);
  GridEvalScratch scratch;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const geom::Vec2 p = grid.point(row, col);
      const std::string at =
          what + " row=" + std::to_string(row) + " col=" + std::to_string(col);
      std::vector<double> want_dirs = net.viewed_directions(p);
      std::sort(want_dirs.begin(), want_dirs.end());
      const std::span<const double> got_dirs = engine.sorted_directions(row, col, scratch);
      ASSERT_EQ(got_dirs.size(), want_dirs.size()) << at;
      for (std::size_t j = 0; j < want_dirs.size(); ++j) {
        ASSERT_EQ(bits(got_dirs[j]), bits(want_dirs[j])) << at << " dir=" << j;
      }
      const FullViewResult got = engine.point_full_view(row, col, scratch);
      const FullViewResult want = full_view_covered(net, p, theta);
      ASSERT_EQ(got.covered, want.covered) << at;
      ASSERT_EQ(bits(got.max_gap), bits(want.max_gap)) << at;
      ASSERT_EQ(got.covering_count, want.covering_count) << at;
      ASSERT_EQ(engine.point_necessary(row, col, scratch),
                meets_necessary_condition(net, p, theta))
          << at;
      ASSERT_EQ(engine.point_sufficient(row, col, scratch),
                meets_sufficient_condition(net, p, theta))
          << at;
    }
  }
  expect_stats_identical(evaluate_region_scalar(net, grid, theta),
                         engine.evaluate(scratch), what);
}

// The full differential sweep: deployment families x kernel variants
// (scalar and every supported alternative) against the scalar oracles, at
// a theta that keeps the full-view predicate non-trivial.  8 seeds per
// family keep cluster geometry varied (wrap-straddling clusters, empty
// bands, single-cluster piles) while the suite stays fast.
TEST(CandidateIndex, BitIdenticalAcrossFamiliesIndexesAndKernels) {
  const DenseGrid grid(6);
  const double theta = kPi / 4.0;
  for (const Family fam : kFamilies) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Network net = deploy_family(fam, seed);
      for (const KernelVariant kernel : supported_kernels()) {
        const ForcedKernel pin_kernel(kernel);
        expect_matches_oracles(net, grid, theta,
                               std::string("family=") + family_name(fam) +
                                   " seed=" + std::to_string(seed) +
                                   " kernel=" + std::string(kernel_name(kernel)));
      }
    }
  }
}

// The parallel scan reuses one engine (and its row-slice scratch) across
// blocks; every (threads, grain) combination must still fold to the
// scalar oracle's result bitwise.  Threads 3 with grain 1 maximises slice
// rebuilds (rows interleave across workers); grain 0 is the default.
TEST(CandidateIndex, ParallelScansBitIdenticalAcrossThreadsAndGrains) {
  const DenseGrid grid(16);
  const double theta = kPi / 3.0;
  for (const Family fam : {Family::kUniform, Family::kGaussian, Family::kStrip}) {
    const Network net = deploy_family(fam, 3);
    const RegionCoverageStats ref = evaluate_region_scalar(net, grid, theta);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t grain : {std::size_t{1}, std::size_t{0}}) {
        const RegionCoverageStats got =
            sim::evaluate_region_parallel(net, grid, theta, threads, grain);
        expect_stats_identical(ref, got,
                               std::string("family=") + family_name(fam) +
                                   " threads=" + std::to_string(threads) +
                                   " grain=" + std::to_string(grain));
      }
    }
  }
}

// candidates(p) must be a duplicate-free superset of the cameras covering
// p — the structural half of the bit-identity argument (the kernel's exact
// tests do the rest).
TEST(CandidateIndex, CandidatesAreDuplicateFreeSupersets) {
  const DenseGrid grid(9);
  for (const Family fam : kFamilies) {
    const Network net = deploy_family(fam, 5);
    const GridEvalEngine engine(net, grid, kPi / 4.0);
    GridEvalScratch scratch;
    for (std::size_t row = 0; row < grid.side(); ++row) {
      for (std::size_t col = 0; col < grid.side(); ++col) {
        const geom::Vec2 p = grid.point(row, col);
        const std::span<const std::uint32_t> cand = engine.candidates(p);
        std::vector<std::uint32_t> sorted(cand.begin(), cand.end());
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
            << "duplicate candidate, family=" << family_name(fam);
        for (std::uint32_t i = 0; i < net.size(); ++i) {
          if (covers(net.cameras()[i], p)) {
            EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), i))
                << "covering camera " << i << " missing, family=" << family_name(fam);
          }
        }
        // The kernel-facing span is at least as selective a superset.
        const std::size_t width = engine.point_candidate_count(row, col, scratch);
        EXPECT_LE(width, net.size());
      }
    }
  }
}

// Sizing diagnostics: the pre-cap target, and the clamp bit raised (and
// exported) when the 4 * grid_side cap binds.
TEST(CandidateIndex, GridCapClampsAndIsReported) {
  stats::Pcg32 rng = stats::make_child_rng(8103, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.05, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 50, rng);

  // Unclamped: r = 0.05 targets 60 cells/side, under the 4 * 32 cap.
  {
    const GridEvalEngine engine(net, DenseGrid(32), kPi / 4.0);
    EXPECT_EQ(engine.cells_target(), 60u);
    EXPECT_EQ(engine.cells_per_side(), 60u);
    EXPECT_FALSE(engine.cells_clamped());
    obs::MetricsNode node("engine");
    engine.describe(node);
    EXPECT_DOUBLE_EQ(node.counter("cells_target"), 60.0);
    EXPECT_DOUBLE_EQ(node.counter("cells_clamped"), 0.0);
    EXPECT_GT(node.counter("index_bytes"), 0.0);
  }
  // A 4-point grid caps the index at 16 cells/side: the engine must honour
  // the cap and raise the clamp bit.
  {
    const GridEvalEngine engine(net, DenseGrid(4), kPi / 4.0);
    EXPECT_EQ(engine.cells_per_side(), 16u);
    EXPECT_TRUE(engine.cells_clamped());
    obs::MetricsNode node("engine");
    engine.describe(node);
    EXPECT_DOUBLE_EQ(node.counter("cells_clamped"), 1.0);
  }
}

// Beyond the historical clamp: a small-radius network must size past 256
// cells per side now that the bin scratch is heap-allocated.
TEST(CandidateIndex, ResolutionExceedsHistoricalClamp) {
  stats::Pcg32 rng = stats::make_child_rng(8104, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.008, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 200, rng);
  const DenseGrid grid(128);  // cap = 4 * 128 = 512 > 375 target
  const GridEvalEngine engine(net, grid, kPi / 4.0);
  EXPECT_EQ(engine.cells_target(), 375u);
  EXPECT_EQ(engine.cells_per_side(), 375u);
  EXPECT_FALSE(engine.cells_clamped());
  EXPECT_GT(engine.cells_per_side(), 256u);
}

// --- Pool order ---------------------------------------------------------
//
// The engine pools its per-camera kernel records in y-strip order (camera
// order within a strip) and translates pool slots back to camera ids for
// row slices, point views and `candidates(p)`.  These networks put camera
// order against strip order, so any slot read as a camera id (or the
// reverse) changes a result.

constexpr std::size_t kPoolSide = 7;  // 2^6 row partitions

// The fold of `block_stats` over the row partition whose block ends are
// the set bits of `cuts` (bit r: a block ends after row r).
RegionCoverageStats partition_fold(const GridEvalEngine& engine, std::uint32_t cuts,
                                   GridEvalScratch& scratch) {
  GridRowStats acc;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < kPoolSide; ++r) {
    if (r + 1 == kPoolSide || ((cuts >> r) & 1U) != 0) {
      acc.fold(engine.block_stats(begin, r + 1, scratch), begin == 0);
      begin = r + 1;
    }
  }
  return acc.region(kPoolSide * kPoolSide);
}

void expect_point_matches(const GridEvalEngine& engine, const Network& net,
                          const geom::Vec2& p, double theta, GridEvalScratch& scratch,
                          const std::string& at) {
  const PointEval got = engine.eval_point(p, scratch);
  const FullViewResult want = full_view_covered(net, p, theta);
  EXPECT_EQ(got.full_view.covered, want.covered) << at;
  EXPECT_EQ(bits(got.full_view.max_gap), bits(want.max_gap)) << at;
  EXPECT_EQ(got.full_view.covering_count, want.covering_count) << at;
  EXPECT_EQ(got.necessary, meets_necessary_condition(net, p, theta)) << at;
  EXPECT_EQ(got.sufficient, meets_sufficient_condition(net, p, theta)) << at;
}

// Every engine surface that crosses the pool, against the scalar oracles:
// `candidates(p)` (camera ids, duplicate-free, covering the `covers` set),
// `evaluate`, every row partition of `block_stats`, and `eval_point` on and
// off the lattice.
void expect_pool_order_invisible(const Network& net, double theta,
                                 const std::string& what) {
  const DenseGrid grid(kPoolSide);
  const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
  const GridEvalEngine engine(net, grid, theta);
  GridEvalScratch scratch;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const geom::Vec2 p = grid.point(i);
    const std::span<const std::uint32_t> cand = engine.candidates(p);
    std::vector<std::uint32_t> sorted(cand.begin(), cand.end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << what << " point=" << i;
    ASSERT_TRUE(sorted.empty() || sorted.back() < net.size()) << what << " point=" << i;
    for (std::uint32_t c = 0; c < net.size(); ++c) {
      if (covers(net.cameras()[c], p, net.mode())) {
        EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), c))
            << what << " point=" << i << " camera=" << c;
      }
    }
    expect_point_matches(engine, net, p, theta, scratch,
                         what + " point=" + std::to_string(i));
    const geom::Vec2 off{std::fmod(p.x + 0.37 / kPoolSide, 1.0),
                         std::fmod(p.y + 0.61 / kPoolSide, 1.0)};
    expect_point_matches(engine, net, off, theta, scratch,
                         what + " off-lattice point=" + std::to_string(i));
  }
  expect_stats_identical(want, engine.evaluate(scratch), what + " evaluate");
  for (std::uint32_t cuts = 0; cuts < (1U << (kPoolSide - 1)); ++cuts) {
    expect_stats_identical(want, partition_fold(engine, cuts, scratch),
                           what + " cuts=" + std::to_string(cuts));
  }
}

Network with_mode(const Network& net, geom::SpaceMode mode) {
  return Network(std::vector<Camera>(net.cameras().begin(), net.cameras().end()), mode);
}

// The uniform family with its cameras sorted by descending y: camera order
// runs exactly against strip order.
Network reversed_y(std::uint64_t seed) {
  const Network base = deploy_family(Family::kUniform, seed);
  std::vector<Camera> cams(base.cameras().begin(), base.cameras().end());
  std::stable_sort(cams.begin(), cams.end(), [](const Camera& a, const Camera& b) {
    return a.position.y > b.position.y;
  });
  return Network(std::move(cams));
}

// Two groups written alternately (an omni group and a sector group), so
// neighbouring cameras never share a fov and the strips mix both groups.
Network interleaved_groups(std::uint64_t seed) {
  stats::Pcg32 rng = stats::make_child_rng(8105, seed);
  std::vector<Camera> cams(40);
  for (std::size_t i = 0; i < cams.size(); ++i) {
    Camera& c = cams[i];
    c.position = {stats::uniform01(rng), stats::uniform01(rng)};
    c.orientation = stats::uniform_in(rng, 0.0, kTwoPi);
    c.radius = (i % 2 == 0) ? 0.2 : 0.3;
    c.fov = (i % 2 == 0) ? kTwoPi : stats::uniform_in(rng, 0.5, 3.0);
    c.group = static_cast<std::uint32_t>(i % 2);
  }
  return Network(std::move(cams));
}

// `count` uniform cameras in two groups of radius `r`: omnidirectional and
// a 1.5 rad sector.
Network uniform_radius(double r, std::size_t count, std::uint64_t seed) {
  stats::Pcg32 rng = stats::make_child_rng(8106, seed);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{0.5, r, kTwoPi}, {0.5, r, 1.5}});
  return deploy::deploy_uniform_network(profile, count, rng);
}

TEST(CandidateIndex, PoolOrderIsInvisible) {
  const double theta = kPi / 4.0;
  std::vector<std::pair<std::string, Network>> nets;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    nets.emplace_back("reversed-y seed=" + std::to_string(seed), reversed_y(seed));
    nets.emplace_back("interleaved seed=" + std::to_string(seed),
                      interleaved_groups(seed));
    nets.emplace_back("strip seed=" + std::to_string(seed),
                      deploy_family(Family::kStrip, seed));
  }
  nets.emplace_back("empty", Network());
  // r = 3 sizes the index to a single strip (cells_ == 1).
  nets.emplace_back("one-strip", uniform_radius(3.0, 12, 0));
  // r = 0.45 makes every torus window the whole row slice (whole_row_).
  nets.emplace_back("whole-row", uniform_radius(0.45, 30, 1));

  for (const KernelVariant kernel : supported_kernels()) {
    const ForcedKernel pin_kernel(kernel);
    for (const auto& [name, net] : nets) {
      for (const geom::SpaceMode mode :
           {geom::SpaceMode::kTorus, geom::SpaceMode::kPlane}) {
        const bool torus = mode == geom::SpaceMode::kTorus;
        expect_pool_order_invisible(with_mode(net, mode), theta,
                                    name + (torus ? " torus" : " plane") +
                                        " kernel=" + std::string(kernel_name(kernel)));
      }
    }
  }

  const DenseGrid grid(kPoolSide);
  EXPECT_EQ(GridEvalEngine(Network(), grid, theta).cells_per_side(), 1u);
  EXPECT_EQ(GridEvalEngine(nets[nets.size() - 2].second, grid, theta).cells_per_side(),
            1u);
  // A whole-row window hands every point the slice's full y band.
  const Network& wide = nets.back().second;
  const GridEvalEngine engine(wide, grid, theta);
  GridEvalScratch scratch;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(engine.point_candidate_count(i / kPoolSide, i % kPoolSide, scratch),
              engine.candidates(grid.point(i)).size());
  }
}

// Pool slot of camera `i` under the strip scatter: the cameras of lower
// strips come first, then the earlier cameras of its own strip.
std::size_t pool_slot(const Network& net, std::size_t cells, std::size_t i) {
  auto strip = [&](std::size_t c) {
    const auto sd = static_cast<double>(cells);
    return std::min<std::size_t>(
        static_cast<std::size_t>(std::max(net.cameras()[c].position.y, 0.0) * sd),
        cells - 1);
  };
  std::size_t slot = 0;
  for (std::size_t j = 0; j < net.size(); ++j) {
    slot += static_cast<std::size_t>(strip(j) < strip(i) ||
                                     (strip(j) == strip(i) && j < i));
  }
  return slot;
}

// The exact-arithmetic fallbacks read the Camera behind a view entry, so
// they must reach it by camera id, not pool slot.  A sector camera whose
// fov edge passes exactly through a grid point takes the band fallback
// (trig_fallbacks > 0) and sits at a pool slot other than its index; the
// slot equal to its index holds a decoy looking the other way, so reading
// the camera by slot would flip its coverage.  An omnidirectional camera
// exactly on another grid point takes the zero-distance path.  Fillers in
// the target's band keep its view wide enough for the lane kernels.
TEST(CandidateIndex, BandFallbackReadsCameraNotSlot) {
  const DenseGrid grid(4);
  const double theta = kPi / 4.0;
  const geom::Vec2 p = grid.point(2, 1);  // (0.375, 0.625)
  constexpr std::size_t kTarget = 3;
  std::vector<Camera> cams;
  for (std::size_t i = 0; i < 9; ++i) {
    Camera decoy;
    decoy.position = {0.1 * static_cast<double>(i) + 0.05, 0.05};
    decoy.orientation = kPi;
    decoy.radius = 0.3;
    decoy.fov = kPi / 2.0;
    cams.push_back(decoy);
  }
  // Target: 0.125 right and below p, looking along +x with a pi/2 fov, so
  // its upper fov edge (pi/4) runs through p.
  cams[kTarget].position = {p.x - 0.125, p.y - 0.125};
  cams[kTarget].orientation = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    Camera filler;
    const auto k = static_cast<double>(i);
    filler.position = {0.15 * k + 0.1, 0.55 + 0.03 * k};
    filler.orientation = 0.9 * k;
    filler.radius = 0.3;
    filler.fov = 1.0;
    cams.push_back(filler);
  }
  Camera omni;
  omni.position = grid.point(0, 3);
  omni.radius = 0.2;
  omni.fov = kTwoPi;
  cams.push_back(omni);

  for (const geom::SpaceMode mode : {geom::SpaceMode::kTorus, geom::SpaceMode::kPlane}) {
    const Network net(cams, mode);
    const std::string where = mode == geom::SpaceMode::kTorus ? "torus" : "plane";
    ASSERT_TRUE(covers(net.cameras()[kTarget], p, mode)) << where;
    Camera turned = net.cameras()[kTarget];
    turned.orientation = kPi;
    ASSERT_FALSE(covers(turned, p, mode)) << where;
    const std::size_t cells = GridEvalEngine(net, grid, theta).cells_per_side();
    const std::size_t slot = pool_slot(net, cells, kTarget);
    ASSERT_NE(slot, kTarget) << where;
    for (std::size_t j = 0; j < net.size(); ++j) {
      if (pool_slot(net, cells, j) == kTarget) {
        ASSERT_NE(net.cameras()[j].orientation, net.cameras()[kTarget].orientation)
            << where;
      }
    }

    const RegionCoverageStats want = evaluate_region_scalar(net, grid, theta);
    for (const KernelVariant kernel : supported_kernels()) {
      const ForcedKernel pin_kernel(kernel);
      const std::string what = where + " kernel=" + std::string(kernel_name(kernel));
      const GridEvalEngine engine(net, grid, theta);
      GridEvalCounters counters;
      GridEvalScratch scratch;
      scratch.counters = &counters;
      expect_stats_identical(want, engine.evaluate(scratch), what);
      EXPECT_GT(counters.trig_fallbacks, 0u) << what;
      GridRowStats acc;
      for (std::size_t r = 0; r < grid.side(); ++r) {
        acc.fold(engine.block_stats(r, r + 1, scratch), r == 0);
      }
      expect_stats_identical(want, acc.region(grid.size()), what + " per-row blocks");
      for (const geom::Vec2& q : {p, omni.position}) {
        expect_point_matches(engine, net, q, theta, scratch, what);
      }
      expect_matches_oracles(net, grid, theta, what);
    }
  }
}

}  // namespace
}  // namespace fvc::core
