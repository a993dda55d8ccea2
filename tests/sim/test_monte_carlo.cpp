#include "fvc/sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/trial.hpp"

namespace fvc::sim {
namespace {

using core::HeterogeneousProfile;
using geom::kHalfPi;
using geom::kTwoPi;

TrialConfig fast_config() {
  TrialConfig cfg{HeterogeneousProfile::homogeneous(0.3, 2.5), 120, kHalfPi,
                  Deployment::kUniform, std::nullopt};
  cfg.grid_side = 10;
  return cfg;
}

TEST(EventEstimate, Accessors) {
  EventEstimate e;
  e.trials = 100;
  e.successes = 25;
  EXPECT_DOUBLE_EQ(e.p(), 0.25);
  const auto ci = e.wilson();
  EXPECT_LT(ci.lo, 0.25);
  EXPECT_GT(ci.hi, 0.25);
}

TEST(EstimateGridEvents, CountsAndNesting) {
  const GridEventsEstimate est = estimate_grid_events(fast_config(), 40, 7, 4);
  EXPECT_EQ(est.necessary.trials, 40u);
  EXPECT_EQ(est.full_view.trials, 40u);
  EXPECT_EQ(est.sufficient.trials, 40u);
  // Event nesting carries to counts.
  EXPECT_LE(est.sufficient.successes, est.full_view.successes);
  EXPECT_LE(est.full_view.successes, est.necessary.successes);
}

TEST(EstimateGridEvents, DeterministicAcrossThreadCounts) {
  const TrialConfig cfg = fast_config();
  const GridEventsEstimate a = estimate_grid_events(cfg, 30, 99, 1);
  const GridEventsEstimate b = estimate_grid_events(cfg, 30, 99, 8);
  EXPECT_EQ(a.necessary.successes, b.necessary.successes);
  EXPECT_EQ(a.full_view.successes, b.full_view.successes);
  EXPECT_EQ(a.sufficient.successes, b.sufficient.successes);
}

TEST(EstimateGridEvents, SeedChangesResults) {
  const TrialConfig cfg = fast_config();
  const GridEventsEstimate a = estimate_grid_events(cfg, 60, 1, 4);
  const GridEventsEstimate b = estimate_grid_events(cfg, 60, 2, 4);
  // With a borderline configuration the counts almost surely differ; allow
  // equality on at most two of the three events to keep flake risk tiny.
  const int same = (a.necessary.successes == b.necessary.successes ? 1 : 0) +
                   (a.full_view.successes == b.full_view.successes ? 1 : 0) +
                   (a.sufficient.successes == b.sufficient.successes ? 1 : 0);
  EXPECT_LE(same, 2);
}

TEST(EstimateGridEvents, Validation) {
  EXPECT_THROW((void)estimate_grid_events(fast_config(), 0, 1, 1),
               std::invalid_argument);
}

TEST(EstimateFractions, AllFractionsInUnitInterval) {
  const FractionEstimate est = estimate_fractions(fast_config(), 20, 11, 4);
  for (const auto* s : {&est.covered_1, &est.necessary, &est.full_view,
                        &est.sufficient, &est.k_covered}) {
    EXPECT_EQ(s->count(), 20u);
    EXPECT_GE(s->min(), 0.0);
    EXPECT_LE(s->max(), 1.0);
  }
  EXPECT_DOUBLE_EQ(est.deployed_count.mean(), 120.0);  // uniform: exact n
}

TEST(EstimateFractions, NestingOfMeans) {
  const FractionEstimate est = estimate_fractions(fast_config(), 25, 12, 4);
  EXPECT_LE(est.sufficient.mean(), est.full_view.mean() + 1e-12);
  EXPECT_LE(est.full_view.mean(), est.necessary.mean() + 1e-12);
  EXPECT_LE(est.necessary.mean(), est.covered_1.mean() + 1e-12);
}

TEST(EstimateFractions, PoissonDeployedCountVaries) {
  TrialConfig cfg = fast_config();
  cfg.deployment = Deployment::kPoisson;
  const FractionEstimate est = estimate_fractions(cfg, 30, 13, 4);
  EXPECT_NEAR(est.deployed_count.mean(), 120.0, 15.0);
  EXPECT_GT(est.deployed_count.stddev(), 1.0);
}

TEST(EstimateFractions, Validation) {
  EXPECT_THROW((void)estimate_fractions(fast_config(), 0, 1, 1),
               std::invalid_argument);
}

TEST(RunOptions, DefaultOptionsMatchPlainOverload) {
  const TrialConfig cfg = fast_config();
  const GridEventsEstimate plain = estimate_grid_events(cfg, 25, 17, 4);
  const GridEventsEstimate opt = estimate_grid_events(cfg, 25, 17, 4, RunOptions{});
  EXPECT_EQ(plain.necessary.successes, opt.necessary.successes);
  EXPECT_EQ(plain.full_view.successes, opt.full_view.successes);
  EXPECT_EQ(plain.sufficient.successes, opt.sufficient.successes);
}

TEST(RunOptions, MetricsCollectionDoesNotChangeEstimates) {
  const TrialConfig cfg = fast_config();
  const GridEventsEstimate plain = estimate_grid_events(cfg, 25, 17, 4);
  obs::MetricsNode node("estimate");
  RunOptions options;
  options.metrics = &node;
  const GridEventsEstimate metered = estimate_grid_events(cfg, 25, 17, 4, options);
  EXPECT_EQ(plain.necessary.successes, metered.necessary.successes);
  EXPECT_EQ(plain.full_view.successes, metered.full_view.successes);
  EXPECT_EQ(plain.sufficient.successes, metered.sufficient.successes);
}

TEST(RunOptions, MetricsTreeHasTrialsEngineAndPool) {
  obs::MetricsNode node("estimate");
  RunOptions options;
  options.metrics = &node;
  (void)estimate_grid_events(fast_config(), 10, 3, 4, options);
  const obs::MetricsNode* trials = node.find_child("trials");
  ASSERT_NE(trials, nullptr);
  EXPECT_DOUBLE_EQ(trials->counter("trials_requested"), 10.0);
  EXPECT_DOUBLE_EQ(trials->counter("trials_run"), 10.0);
  EXPECT_DOUBLE_EQ(trials->counter("trials_cancelled"), 0.0);
  ASSERT_NE(trials->find_histogram("trial_us"), nullptr);
  EXPECT_EQ(trials->find_histogram("trial_us")->total(), 10u);
  const obs::MetricsNode* engine = node.find_child("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->counter("points"), 0.0);
  EXPECT_GE(engine->counter("candidates_total"), engine->counter("directions_total"));
  // The boolean trial scan's sector-occupancy counters ride on the node.
  EXPECT_TRUE(engine->has_counter("atan2_calls"));
  EXPECT_TRUE(engine->has_counter("occupancy_points"));
  EXPECT_LE(engine->counter("occupancy_points"), engine->counter("points"));
  const obs::MetricsNode* pool = node.find_child("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->counter("workers"), 1.0);
  EXPECT_DOUBLE_EQ(pool->counter("tasks"), 10.0);
}

// TrialMetrics carries the boolean scan's sector-occupancy counters, and
// metering leaves the trial's events unchanged.
TEST(TrialMetricsRecord, CarriesOccupancyCounters) {
  const TrialConfig cfg = fast_config();
  TrialMetrics m;
  const TrialEvents metered = run_trial_events(cfg, 11, &m);
  const TrialEvents plain = run_trial_events(cfg, 11);
  EXPECT_EQ(metered.all_necessary, plain.all_necessary);
  EXPECT_EQ(metered.all_full_view, plain.all_full_view);
  EXPECT_EQ(metered.all_sufficient, plain.all_sufficient);
  EXPECT_GT(m.engine.points, 0U);
  EXPECT_GT(m.engine.occupancy_points, 0U);
  EXPECT_LE(m.engine.occupancy_points, m.engine.points);
  TrialMetrics twice = m;
  twice.merge(m);
  EXPECT_EQ(twice.engine.atan2_calls, 2 * m.engine.atan2_calls);
  EXPECT_EQ(twice.engine.occupancy_points, 2 * m.engine.occupancy_points);
}

TEST(RunOptions, MetricsTotalsDeterministicAcrossThreadCounts) {
  const TrialConfig cfg = fast_config();
  const auto run = [&](std::size_t threads) {
    obs::MetricsNode node("estimate");
    RunOptions options;
    options.metrics = &node;
    (void)estimate_grid_events(cfg, 20, 23, threads, options);
    return node.find_child("engine")->counter("points");
  };
  const double p1 = run(1);
  EXPECT_DOUBLE_EQ(run(4), p1);
  EXPECT_DOUBLE_EQ(run(8), p1);
}

TEST(RunOptions, ProgressReportsEveryTrialInOrder) {
  std::vector<std::size_t> seen;
  RunOptions options;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 12u);
    seen.push_back(done);
  };
  (void)estimate_grid_events(fast_config(), 12, 5, 4, options);
  ASSERT_EQ(seen.size(), 12u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i + 1);  // serialized under the progress mutex
  }
}

TEST(RunOptions, CancellationYieldsPartialEstimate) {
  obs::CancellationToken cancel;
  RunOptions options;
  options.cancel = &cancel;
  std::size_t fired = 0;
  options.progress = [&](std::size_t done, std::size_t) {
    ++fired;
    if (done >= 3) {
      cancel.request_stop();
    }
  };
  const GridEventsEstimate est =
      estimate_grid_events(fast_config(), 50, 5, 1, options);
  // Single-threaded: exactly the trials before the stop request ran.
  EXPECT_EQ(est.necessary.trials, 3u);
  EXPECT_EQ(fired, 3u);
  EXPECT_LE(est.necessary.successes, est.necessary.trials);
}

TEST(RunOptions, PreCancelledRunReportsZeroTrials) {
  obs::CancellationToken cancel;
  cancel.request_stop();
  RunOptions options;
  options.cancel = &cancel;
  obs::MetricsNode node("estimate");
  options.metrics = &node;
  const GridEventsEstimate est =
      estimate_grid_events(fast_config(), 8, 5, 2, options);
  EXPECT_EQ(est.necessary.trials, 0u);
  EXPECT_EQ(est.necessary.successes, 0u);
  EXPECT_DOUBLE_EQ(node.find_child("trials")->counter("trials_cancelled"), 8.0);
}

TEST(EstimateGridEvents, MoreAreaMoreCoverage) {
  TrialConfig small = fast_config();
  small.profile = HeterogeneousProfile::homogeneous(0.15, 1.0);
  TrialConfig large = fast_config();
  large.profile = HeterogeneousProfile::homogeneous(0.4, kTwoPi);
  const GridEventsEstimate a = estimate_grid_events(small, 40, 5, 4);
  const GridEventsEstimate b = estimate_grid_events(large, 40, 5, 4);
  EXPECT_LE(a.necessary.successes, b.necessary.successes);
}

}  // namespace
}  // namespace fvc::sim
