// Differential tests across the grid-eval kernel variants (cpu_features.hpp:
// scalar / avx2).  The contract under test is the dispatch layer's
// core promise: pinning any *supported* variant changes only speed — every
// per-point direction list, every boolean row scan, every aggregate
// statistic, and every answer of the layers above the engine (Monte-Carlo
// tallies, phase-scan points, Session point and region queries) is
// bit-identical to the scalar variant (which test_grid_eval.cpp in turn
// proves identical to the coverage oracles).  Double comparisons go through
// std::bit_cast<uint64_t> so even a sign-of-zero or NaN-payload divergence
// would fail.  Pinning an *unsupported* variant must throw, never silently
// fall back.

#include "fvc/core/grid_eval.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fvc/api/session.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/monte_carlo.hpp"
#include "fvc/sim/phase_scan.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"
#include "support/forced_kernel.hpp"

namespace fvc::core {
namespace {

using geom::kPi;
using geom::kTwoPi;
using testsupport::ForcedKernel;
using testsupport::supported_kernels;

std::vector<KernelVariant> all_variants() {
  std::vector<KernelVariant> out;
  for (std::size_t i = 0; i < kKernelVariantCount; ++i) {
    out.push_back(static_cast<KernelVariant>(i));
  }
  return out;
}

// Random heterogeneous profile (same shape as test_grid_eval.cpp), with an
// omnidirectional group forced in: fov = 2*pi exercises the kernel's omni
// bit-mask lanes alongside sector lanes in the same batch.
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

// Evaluate `net` with the kernel pinned to `v`: every sorted per-point
// direction list, every boolean row scan, and the whole-grid aggregate,
// flattened for comparison.
struct PinnedRun {
  std::vector<std::vector<double>> directions;  // per grid point, row-major
  // Per row: row_all_{necessary,full_view,sufficient,k_covered(2)}, then
  // row_events' three bits under each (need_full_view, need_sufficient).
  std::vector<bool> row_booleans;
  RegionCoverageStats stats;
};

PinnedRun run_pinned(KernelVariant v, const Network& net, const DenseGrid& grid,
                     double theta) {
  const ForcedKernel pin(v);
  const GridEvalEngine engine(net, grid, theta);
  EXPECT_EQ(engine.kernel(), v);
  GridEvalScratch scratch;
  PinnedRun run;
  for (std::size_t row = 0; row < grid.side(); ++row) {
    for (std::size_t col = 0; col < grid.side(); ++col) {
      const std::span<const double> dirs = engine.sorted_directions(row, col, scratch);
      run.directions.emplace_back(dirs.begin(), dirs.end());
    }
    run.row_booleans.push_back(engine.row_all_necessary(row, scratch));
    run.row_booleans.push_back(engine.row_all_full_view(row, scratch));
    run.row_booleans.push_back(engine.row_all_sufficient(row, scratch));
    run.row_booleans.push_back(engine.row_all_k_covered(row, 2, scratch));
    for (const bool need_fv : {true, false}) {
      for (const bool need_suf : {true, false}) {
        const GridRowEvents ev = engine.row_events(row, scratch, need_fv, need_suf);
        run.row_booleans.push_back(ev.all_necessary);
        run.row_booleans.push_back(ev.all_full_view);
        run.row_booleans.push_back(ev.all_sufficient);
      }
    }
  }
  run.stats = engine.evaluate(scratch);
  return run;
}

void expect_stats_identical(const RegionCoverageStats& ref,
                            const RegionCoverageStats& got) {
  EXPECT_EQ(ref.total_points, got.total_points);
  EXPECT_EQ(ref.covered_1, got.covered_1);
  EXPECT_EQ(ref.necessary_ok, got.necessary_ok);
  EXPECT_EQ(ref.full_view_ok, got.full_view_ok);
  EXPECT_EQ(ref.sufficient_ok, got.sufficient_ok);
  EXPECT_EQ(ref.k_covered_ok, got.k_covered_ok);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.min_max_gap),
            std::bit_cast<std::uint64_t>(got.min_max_gap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.max_max_gap),
            std::bit_cast<std::uint64_t>(got.max_max_gap));
}

// Bitwise equality of two pinned runs (direction lists ASSERT on the first
// divergence, after the row booleans and aggregates are compared).
void expect_runs_identical(const PinnedRun& ref, const PinnedRun& got,
                           KernelVariant v, double theta) {
  EXPECT_EQ(ref.row_booleans, got.row_booleans)
      << "kernel=" << kernel_name(v) << " theta=" << theta;
  expect_stats_identical(ref.stats, got.stats);
  ASSERT_EQ(ref.directions.size(), got.directions.size());
  for (std::size_t p = 0; p < ref.directions.size(); ++p) {
    ASSERT_EQ(ref.directions[p].size(), got.directions[p].size())
        << "kernel=" << kernel_name(v) << " theta=" << theta << " point=" << p;
    for (std::size_t j = 0; j < ref.directions[p].size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ref.directions[p][j]),
                std::bit_cast<std::uint64_t>(got.directions[p][j]))
          << "kernel=" << kernel_name(v) << " theta=" << theta << " point=" << p
          << " dir=" << j;
    }
  }
}

// Run every supported variant against the pinned-scalar reference.
void expect_all_variants_identical(const Network& net, const DenseGrid& grid,
                                   double theta) {
  const PinnedRun ref = run_pinned(KernelVariant::kScalar, net, grid, theta);
  for (const KernelVariant v : supported_kernels()) {
    if (v == KernelVariant::kScalar) {
      continue;
    }
    const PinnedRun got = run_pinned(v, net, grid, theta);
    expect_runs_identical(ref, got, v, theta);
  }
}

// The layers above the engine, run with the kernel pinned to `v`: a small
// Monte-Carlo tally, one phase-scan point, and a Session's batched point
// queries plus one region answer.  Each builds its own engines (in worker
// threads too), so the pin must reach all of them.
struct PipelineRun {
  sim::GridEventsEstimate tally;
  sim::PhasePoint phase;
  std::vector<api::PointAnswer> points;
  RegionCoverageStats region;
};

PipelineRun run_pipelines_pinned(KernelVariant v, const sim::TrialConfig& cfg,
                                 const Network& net, std::uint64_t seed) {
  const ForcedKernel pin(v);
  PipelineRun run;
  run.tally = sim::estimate_grid_events(cfg, 4, seed, 2);

  sim::PhaseScanConfig scan;
  scan.base = cfg;
  scan.q_values = {1.0};
  scan.trials = 3;
  scan.master_seed = seed;
  scan.threads = 2;
  const std::vector<sim::PhasePoint> points = sim::run_phase_scan(scan);
  EXPECT_EQ(points.size(), 1u);
  if (!points.empty()) {
    run.phase = points.front();
  }

  api::SessionConfig session_cfg;
  session_cfg.cameras.assign(net.cameras().begin(), net.cameras().end());
  session_cfg.theta = cfg.theta;
  session_cfg.grid_side = *cfg.grid_side;
  session_cfg.tile_rows = 2;
  session_cfg.threads = 2;
  api::Session session(std::move(session_cfg));
  stats::Pcg32 rng = stats::make_child_rng(7003, seed);
  std::vector<double> xs(16);
  std::vector<double> ys(16);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = stats::uniform_in(rng, 0.0, 1.0);
    ys[i] = stats::uniform_in(rng, 0.0, 1.0);
  }
  run.points.resize(xs.size());
  session.query_points(xs.data(), ys.data(), xs.size(), run.points.data());
  run.region = session.query_region(0.0, 1.0).stats;
  return run;
}

void expect_events_identical(const sim::GridEventsEstimate& ref,
                             const sim::GridEventsEstimate& got) {
  for (const auto member : {&sim::GridEventsEstimate::necessary,
                            &sim::GridEventsEstimate::full_view,
                            &sim::GridEventsEstimate::sufficient}) {
    EXPECT_EQ((ref.*member).trials, (got.*member).trials);
    EXPECT_EQ((ref.*member).successes, (got.*member).successes);
  }
}

void expect_pipelines_identical(const PipelineRun& ref, const PipelineRun& got) {
  expect_events_identical(ref.tally, got.tally);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.phase.weighted_area),
            std::bit_cast<std::uint64_t>(got.phase.weighted_area));
  expect_events_identical(ref.phase.events, got.phase.events);
  ASSERT_EQ(ref.points.size(), got.points.size());
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point query " << i);
    EXPECT_EQ(ref.points[i].covered, got.points[i].covered);
    EXPECT_EQ(ref.points[i].necessary, got.points[i].necessary);
    EXPECT_EQ(ref.points[i].sufficient, got.points[i].sufficient);
    EXPECT_EQ(ref.points[i].covering_count, got.points[i].covering_count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.points[i].max_gap),
              std::bit_cast<std::uint64_t>(got.points[i].max_gap));
  }
  expect_stats_identical(ref.region, got.region);
}

// Scalar is always supported and auto-dispatch only ever picks a variant
// the host can run; vector variants depend on the host.
TEST(GridEvalKernels, ScalarAndPreferredAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(KernelVariant::kScalar));
  EXPECT_TRUE(kernel_supported(preferred_kernel()));
  EXPECT_EQ(resolve_kernel(), preferred_kernel());
  EXPECT_EQ(supported_kernels().front(), KernelVariant::kScalar);
}

// 12 seeds x 3 thetas of randomized heterogeneous torus deployments with a
// guaranteed omnidirectional group.  n = 3..60 keeps many cells at 1-3
// candidates — counts not divisible by the 4-lane width — so the scalar
// remainder tail runs in the same pass as full batches.  Each seed also
// drives the Monte-Carlo, phase-scan and Session layers under every pin.
TEST(GridEvalKernels, RandomizedDeploymentsBitIdenticalAcrossVariants) {
  constexpr double thetas[] = {kPi / 6.0, kPi / 4.0, kPi};
  std::size_t phase_successes = 0;
  std::size_t phase_failures = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    stats::Pcg32 rng = stats::make_child_rng(7001, seed);
    const HeterogeneousProfile profile = random_profile_with_omni(rng);
    const std::size_t n = 3 + stats::uniform_below(rng, 58);
    const Network net = deploy::deploy_uniform_network(profile, n, rng);
    const DenseGrid grid(6);
    for (const double theta : thetas) {
      expect_all_variants_identical(net, grid, theta);
    }

    sim::TrialConfig cfg;
    cfg.profile = profile;
    cfg.n = n;
    cfg.theta = thetas[seed % 3];
    cfg.grid_side = grid.side();
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n
                                    << " theta=" << cfg.theta);
    const PipelineRun ref = run_pipelines_pinned(KernelVariant::kScalar, cfg, net, seed);
    phase_successes += ref.phase.events.necessary.successes;
    phase_failures +=
        ref.phase.events.necessary.trials - ref.phase.events.necessary.successes;
    for (const KernelVariant v : supported_kernels()) {
      if (v == KernelVariant::kScalar) {
        continue;
      }
      SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(v));
      expect_pipelines_identical(ref, run_pipelines_pinned(v, cfg, net, seed));
    }
  }
  // The phase point sits at the necessary CSA, so trials go both ways.
  EXPECT_GT(phase_successes, 0u);
  EXPECT_GT(phase_failures, 0u);
}

// A sparse network on a fine grid leaves most engine cells with zero
// candidates: the kernels must agree on (and survive) empty spans.
TEST(GridEvalKernels, SparseNetworkWithEmptyCells) {
  stats::Pcg32 rng = stats::make_child_rng(7002, 0);
  const HeterogeneousProfile profile(
      std::vector<CameraGroupSpec>{{1.0, 0.05, kTwoPi}});
  const Network net = deploy::deploy_uniform_network(profile, 2, rng);
  const DenseGrid grid(8);
  expect_all_variants_identical(net, grid, kPi / 4.0);
  // Fully empty network too.
  expect_all_variants_identical(Network(), grid, kPi / 4.0);
}

// Cell candidate counts 1..9 (every remainder class mod 4, plus counts
// below one batch): a single-cell-dominated network via one tight cluster.
TEST(GridEvalKernels, RemainderTailCountsAgree) {
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<Camera> cams;
    for (std::size_t i = 0; i < n; ++i) {
      Camera c;
      const double a = kTwoPi * static_cast<double>(i) / static_cast<double>(n);
      c.position = {0.5 + 0.02 * std::cos(a), 0.5 + 0.02 * std::sin(a)};
      c.orientation = a;
      c.radius = 0.3;
      c.fov = (i % 2 == 0) ? kTwoPi : 1.5;
      cams.push_back(c);
    }
    const Network net(std::move(cams), geom::SpaceMode::kTorus);
    const DenseGrid grid(5);
    expect_all_variants_identical(net, grid, kPi / 3.0);
  }
}

// Pinning a variant the build/CPU cannot execute must throw at engine
// construction (std::runtime_error from resolve_kernel), never fall back
// silently.  A value past the enum names a variant no build contains, so
// the throw is exercised on every host, beside avx2 wherever the build or
// the CPU lacks it.
TEST(GridEvalKernels, UnsupportedPinThrows) {
  const Network net;
  const DenseGrid grid(4);
  std::vector<KernelVariant> unsupported{static_cast<KernelVariant>(kKernelVariantCount)};
  for (const KernelVariant v : all_variants()) {
    if (!kernel_supported(v)) {
      unsupported.push_back(v);
    }
  }
  for (const KernelVariant v : unsupported) {
    EXPECT_FALSE(kernel_supported(v)) << "kernel=" << kernel_name(v);
    const ForcedKernel pin(v);
    EXPECT_THROW(GridEvalEngine(net, grid, kPi / 4.0), std::runtime_error)
        << "kernel=" << kernel_name(v);
  }
}

// Names and lane widths round-trip into the metrics keys the engine node
// exports: `kernel_<name>` = 1 and `kernel_lanes`.
TEST(GridEvalKernels, NamesRoundTripAndLanes) {
  EXPECT_EQ(kernel_name(KernelVariant::kScalar), "scalar");
  EXPECT_EQ(kernel_name(KernelVariant::kAvx2), "avx2");
  EXPECT_EQ(kernel_lanes(KernelVariant::kScalar), 1u);
  EXPECT_EQ(kernel_lanes(KernelVariant::kAvx2), 4u);
  for (const KernelVariant v : all_variants()) {
    obs::MetricsNode node("engine");
    describe_kernel(v, node);
    EXPECT_EQ(node.counter("kernel_" + std::string(kernel_name(v))), 1.0);
    EXPECT_EQ(node.counter("kernel_lanes"), static_cast<double>(kernel_lanes(v)));
  }
}

}  // namespace
}  // namespace fvc::core
