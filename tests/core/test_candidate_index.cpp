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
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fvc/core/coverage.hpp"
#include "fvc/core/cpu_features.hpp"
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

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;

// RAII pin for the kernel seam, so the sweep can cross families x kernels
// without leaking a forced kernel into later tests.
class ForcedKernel {
 public:
  explicit ForcedKernel(KernelVariant v) { set_forced_kernel(v); }
  ~ForcedKernel() { set_forced_kernel(std::nullopt); }
  ForcedKernel(const ForcedKernel&) = delete;
  ForcedKernel& operator=(const ForcedKernel&) = delete;
};

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
      for (std::size_t kv = 0; kv < kKernelVariantCount; ++kv) {
        const auto kernel = static_cast<KernelVariant>(kv);
        if (!kernel_supported(kernel)) {
          continue;
        }
        ForcedKernel pin_kernel(kernel);
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
// rebuilds (rows interleave across workers); grain 0 exercises
// choose_grain's big blocks.
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

}  // namespace
}  // namespace fvc::core
