// Determinism contract of the simulation layer, extended to the batched
// grid-evaluation path: estimates are bit-identical for every thread count
// given the same master seed, distinct for distinct seeds, and the
// row-parallel region scan and the trial scan reproduce the serial (and
// scalar) results exactly.  All double comparisons use EXPECT_EQ: the
// contract is bit-identity, not tolerance.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/sim/monte_carlo.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/sim/trial.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {
namespace {

using geom::kPi;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

TrialConfig borderline_config(Deployment deployment) {
  // Two-group heterogeneous population sized so whole-grid events are
  // neither certain nor impossible — the regime where scheduling bugs
  // would actually show up as flipped bits.
  TrialConfig cfg;
  cfg.profile = core::HeterogeneousProfile(std::vector<core::CameraGroupSpec>{
      {0.6, 0.30, geom::kTwoPi}, {0.4, 0.22, 2.0}});
  cfg.n = 24;
  cfg.theta = kPi / 4.0;
  cfg.deployment = deployment;
  cfg.grid_side = 8;
  return cfg;
}

void expect_same_estimate(const EventEstimate& a, const EventEstimate& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.successes, b.successes);
}

TEST(Determinism, GridEventsIdenticalAcrossThreadCounts) {
  for (const Deployment dep : {Deployment::kUniform, Deployment::kPoisson}) {
    const TrialConfig cfg = borderline_config(dep);
    const GridEventsEstimate base = estimate_grid_events(cfg, 60, 42, 1);
    for (const std::size_t threads : kThreadCounts) {
      const GridEventsEstimate est = estimate_grid_events(cfg, 60, 42, threads);
      expect_same_estimate(est.necessary, base.necessary);
      expect_same_estimate(est.full_view, base.full_view);
      expect_same_estimate(est.sufficient, base.sufficient);
    }
  }
}

TEST(Determinism, FractionsIdenticalAcrossThreadCounts) {
  const TrialConfig cfg = borderline_config(Deployment::kPoisson);
  const FractionEstimate base = estimate_fractions(cfg, 40, 7, 1);
  for (const std::size_t threads : kThreadCounts) {
    const FractionEstimate est = estimate_fractions(cfg, 40, 7, threads);
    const stats::OnlineStats* got[] = {&est.covered_1,  &est.necessary,
                                       &est.full_view,  &est.sufficient,
                                       &est.k_covered,  &est.deployed_count};
    const stats::OnlineStats* want[] = {&base.covered_1,  &base.necessary,
                                        &base.full_view,  &base.sufficient,
                                        &base.k_covered,  &base.deployed_count};
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(got[i]->count(), want[i]->count());
      EXPECT_EQ(got[i]->mean(), want[i]->mean());
      EXPECT_EQ(got[i]->variance(), want[i]->variance());
      EXPECT_EQ(got[i]->min(), want[i]->min());
      EXPECT_EQ(got[i]->max(), want[i]->max());
    }
  }
}

TEST(Determinism, SameSeedSameTrialEventSequence) {
  const TrialConfig cfg = borderline_config(Deployment::kUniform);
  for (std::uint64_t t = 0; t < 20; ++t) {
    const std::uint64_t seed = stats::mix64(42, t);
    const TrialEvents a = run_trial_events(cfg, seed);
    const TrialEvents b = run_trial_events(cfg, seed);
    EXPECT_EQ(a.all_necessary, b.all_necessary);
    EXPECT_EQ(a.all_full_view, b.all_full_view);
    EXPECT_EQ(a.all_sufficient, b.all_sufficient);
  }
}

TEST(Determinism, DistinctSeedsGiveDistinctDeployments) {
  const TrialConfig cfg = borderline_config(Deployment::kUniform);
  const core::Network a = deploy(cfg, stats::mix64(1, 0));
  const core::Network b = deploy(cfg, stats::mix64(2, 0));
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Continuous positions from independent streams collide with probability
  // zero; these seeds are fixed, so this is a deterministic regression lock.
  const bool differs = a.camera(0).position.x != b.camera(0).position.x ||
                       a.camera(0).position.y != b.camera(0).position.y;
  EXPECT_TRUE(differs);
  // And the derived region statistics differ as well.
  const core::DenseGrid grid = cfg.grid();
  const core::RegionCoverageStats sa = core::evaluate_region(a, grid, cfg.theta);
  const core::RegionCoverageStats sb = core::evaluate_region(b, grid, cfg.theta);
  EXPECT_NE(sa.min_max_gap, sb.min_max_gap);
}

TEST(Determinism, ParallelRegionBitIdenticalToSerialAndScalar) {
  const TrialConfig cfg = borderline_config(Deployment::kUniform);
  const core::Network net = deploy(cfg, stats::mix64(9, 3));
  const core::DenseGrid grid(10);
  const core::RegionCoverageStats serial = core::evaluate_region(net, grid, cfg.theta);
  const core::RegionCoverageStats scalar =
      core::evaluate_region_scalar(net, grid, cfg.theta);
  for (const std::size_t threads : kThreadCounts) {
    const core::RegionCoverageStats par =
        evaluate_region_parallel(net, grid, cfg.theta, threads);
    for (const core::RegionCoverageStats* want : {&serial, &scalar}) {
      EXPECT_EQ(par.total_points, want->total_points);
      EXPECT_EQ(par.covered_1, want->covered_1);
      EXPECT_EQ(par.necessary_ok, want->necessary_ok);
      EXPECT_EQ(par.full_view_ok, want->full_view_ok);
      EXPECT_EQ(par.sufficient_ok, want->sufficient_ok);
      EXPECT_EQ(par.k_covered_ok, want->k_covered_ok);
      EXPECT_EQ(par.min_max_gap, want->min_max_gap);
      EXPECT_EQ(par.max_max_gap, want->max_max_gap);
    }
  }
}

TEST(Determinism, TrialEventsMatchScalarGridOracles) {
  const TrialConfig cfg = borderline_config(Deployment::kUniform);
  const core::DenseGrid grid = cfg.grid();
  for (std::uint64_t t = 0; t < 10; ++t) {
    const std::uint64_t seed = stats::mix64(33, t);
    const TrialEvents ev = run_trial_events(cfg, seed);
    const core::Network net = deploy(cfg, seed);
    const bool want_nec = core::grid_all_necessary(net, grid, cfg.theta);
    EXPECT_EQ(ev.all_necessary, want_nec) << "t=" << t;
    if (want_nec) {
      EXPECT_EQ(ev.all_full_view, core::grid_all_full_view(net, grid, cfg.theta))
          << "t=" << t;
      EXPECT_EQ(ev.all_sufficient, core::grid_all_sufficient(net, grid, cfg.theta))
          << "t=" << t;
    } else {
      // A necessary failure decides everything (trial semantics).
      EXPECT_FALSE(ev.all_full_view) << "t=" << t;
      EXPECT_FALSE(ev.all_sufficient) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace fvc::sim
