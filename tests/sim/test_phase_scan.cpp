#include "fvc/sim/phase_scan.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fvc/analysis/csa.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/run_metrics.hpp"

namespace fvc::sim {
namespace {

using core::HeterogeneousProfile;
using geom::kHalfPi;

PhaseScanConfig small_scan() {
  PhaseScanConfig cfg;
  cfg.base = TrialConfig{HeterogeneousProfile::homogeneous(0.2, 2.0), 150, kHalfPi,
                         Deployment::kUniform, std::nullopt};
  cfg.base.grid_side = 10;
  cfg.q_values = {0.4, 1.0, 3.0};
  cfg.trials = 25;
  cfg.master_seed = 5;
  cfg.threads = 4;
  return cfg;
}

TEST(PhaseScan, DialsWeightedAreaToQTimesCsa) {
  const auto points = run_phase_scan(small_scan());
  ASSERT_EQ(points.size(), 3u);
  const double csa = analysis::csa_necessary(150.0, kHalfPi);
  for (const auto& pt : points) {
    EXPECT_NEAR(pt.weighted_area, pt.q * csa, 1e-9);
  }
}

TEST(PhaseScan, CoverageIncreasesWithQ) {
  const auto points = run_phase_scan(small_scan());
  // Necessary-condition success counts must be (weakly) increasing in q,
  // and strongly separated between the extremes.
  EXPECT_LE(points[0].events.necessary.successes, points[2].events.necessary.successes);
  EXPECT_LT(points[0].events.necessary.p() + 0.3, points[2].events.necessary.p() + 1e-9);
}

TEST(PhaseScan, EventNestingPerPoint) {
  const auto points = run_phase_scan(small_scan());
  for (const auto& pt : points) {
    EXPECT_LE(pt.events.sufficient.successes, pt.events.full_view.successes);
    EXPECT_LE(pt.events.full_view.successes, pt.events.necessary.successes);
  }
}

TEST(PhaseScan, Deterministic) {
  const auto a = run_phase_scan(small_scan());
  const auto b = run_phase_scan(small_scan());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].events.necessary.successes, b[i].events.necessary.successes);
    EXPECT_EQ(a[i].events.full_view.successes, b[i].events.full_view.successes);
  }
}

TEST(PhaseScan, PreCancelledScanReturnsNoPoints) {
  PhaseScanConfig cfg = small_scan();
  obs::CancellationToken cancel;
  cancel.request_stop();
  cfg.cancel = &cancel;
  EXPECT_TRUE(run_phase_scan(cfg).empty());
}

TEST(PhaseScan, CancellationMidScanReturnsCompletedPoints) {
  PhaseScanConfig cfg = small_scan();
  obs::CancellationToken cancel;
  cfg.cancel = &cancel;
  std::size_t reports = 0;
  const std::size_t total_trials = cfg.q_values.size() * cfg.trials;
  cfg.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, total_trials);
    ++reports;
    // Trip the token once the first q-point has fully completed; the scan
    // must keep that point's result and stop before starting the next one.
    if (done >= cfg.trials) {
      cancel.request_stop();
    }
  };
  const auto points = run_phase_scan(cfg);
  ASSERT_EQ(points.size(), 1u) << "only the completed point survives";
  EXPECT_DOUBLE_EQ(points[0].q, cfg.q_values[0]);
  EXPECT_GE(reports, cfg.trials);
}

TEST(PhaseScan, ProgressIsMonotoneAcrossTheWholeScan) {
  PhaseScanConfig cfg = small_scan();
  const std::size_t total_trials = cfg.q_values.size() * cfg.trials;
  std::vector<std::size_t> dones;
  cfg.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, total_trials);
    dones.push_back(done);
  };
  const auto points = run_phase_scan(cfg);
  ASSERT_EQ(points.size(), cfg.q_values.size());
  ASSERT_FALSE(dones.empty());
  // The per-point callbacks are rebased by i * trials, so the done counter
  // must climb monotonically across point boundaries and finish at 100%.
  for (std::size_t i = 1; i < dones.size(); ++i) {
    EXPECT_GE(dones[i], dones[i - 1]) << "progress went backwards at " << i;
  }
  EXPECT_EQ(dones.back(), total_trials);
}

TEST(PhaseScan, ProgressCallbackDoesNotChangeResults) {
  const auto plain = run_phase_scan(small_scan());
  PhaseScanConfig cfg = small_scan();
  cfg.progress = [](std::size_t, std::size_t) {};
  const auto observed = run_phase_scan(cfg);
  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].events.necessary.successes,
              observed[i].events.necessary.successes);
    EXPECT_EQ(plain[i].events.full_view.successes,
              observed[i].events.full_view.successes);
  }
}

TEST(PhaseScan, MetricsFillPerPointSubtrees) {
  PhaseScanConfig cfg = small_scan();
  obs::MetricsNode node("phase");
  cfg.metrics = &node;
  const auto points = run_phase_scan(cfg);
  ASSERT_EQ(points.size(), cfg.q_values.size());
  for (std::size_t i = 0; i < cfg.q_values.size(); ++i) {
    const obs::MetricsNode* point = node.find_child("q_" + std::to_string(i));
    ASSERT_NE(point, nullptr) << i;
    EXPECT_DOUBLE_EQ(point->counter("q"), cfg.q_values[i]);
    ASSERT_NE(point->find_child("trials"), nullptr) << i;
    EXPECT_DOUBLE_EQ(point->find_child("trials")->counter("trials_run"),
                     static_cast<double>(cfg.trials));
  }
}

TEST(PhaseScan, MetricsCollectionDoesNotChangeResults) {
  const auto plain = run_phase_scan(small_scan());
  PhaseScanConfig cfg = small_scan();
  obs::MetricsNode node("phase");
  cfg.metrics = &node;
  const auto metered = run_phase_scan(cfg);
  ASSERT_EQ(plain.size(), metered.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].events.necessary.successes,
              metered[i].events.necessary.successes);
    EXPECT_EQ(plain[i].events.full_view.successes,
              metered[i].events.full_view.successes);
    EXPECT_EQ(plain[i].events.sufficient.successes,
              metered[i].events.sufficient.successes);
  }
}

TEST(PhaseScan, Validation) {
  PhaseScanConfig cfg = small_scan();
  cfg.q_values.clear();
  EXPECT_THROW((void)run_phase_scan(cfg), std::invalid_argument);
  cfg = small_scan();
  cfg.trials = 0;
  EXPECT_THROW((void)run_phase_scan(cfg), std::invalid_argument);
  cfg = small_scan();
  cfg.q_values = {0.0};
  EXPECT_THROW((void)run_phase_scan(cfg), std::invalid_argument);
}

using Tallies = std::vector<std::size_t>;

Tallies tallies_of(const std::vector<PhasePoint>& points) {
  Tallies t;
  for (const PhasePoint& pt : points) {
    t.insert(t.end(), {pt.index, pt.events.necessary.successes,
                       pt.events.full_view.successes, pt.events.sufficient.successes,
                       pt.events.full_view.trials});
  }
  return t;
}

TEST(PhaseScan, TalliesIdenticalAcrossThreadCountsAndShards) {
  PhaseScanConfig cfg = small_scan();
  cfg.q_values = {0.6, 1.2, 1.8, 2.4, 3.0};
  cfg.trials = 12;
  cfg.threads = 1;
  const Tallies serial = tallies_of(run_phase_scan(cfg));
  ASSERT_EQ(serial.size(), 5u * cfg.q_values.size());
  for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
    cfg.threads = threads;
    EXPECT_EQ(tallies_of(run_phase_scan(cfg)), serial) << "threads=" << threads;
  }
  // Two disjoint shards of the q grid recombine into the whole scan.
  cfg.threads = 3;
  const std::vector<std::uint64_t> even = {0, 2, 4};
  const std::vector<std::uint64_t> odd = {1, 3};
  cfg.point_indices = even;
  const std::vector<PhasePoint> a = run_phase_scan(cfg);
  cfg.point_indices = odd;
  const std::vector<PhasePoint> b = run_phase_scan(cfg);
  std::vector<PhasePoint> merged(cfg.q_values.size());
  for (const PhasePoint& pt : a) {
    merged[pt.index] = pt;
  }
  for (const PhasePoint& pt : b) {
    merged[pt.index] = pt;
  }
  EXPECT_EQ(tallies_of(merged), serial);
}

// Descending q puts the cheap points (early exits) last, so their trials
// finish before the expensive earlier points do; on_point must still see
// the points strictly in order.
TEST(PhaseScan, OnPointArrivesInPointOrderWhenLatePointsAreCheap) {
  PhaseScanConfig cfg = small_scan();
  cfg.q_values = {3.0, 2.0, 1.0, 0.5, 0.3};
  cfg.trials = 12;
  std::vector<std::size_t> order;
  cfg.on_point = [&](const PhasePoint& pt) { order.push_back(pt.index); };
  const auto points = run_phase_scan(cfg);
  ASSERT_EQ(points.size(), cfg.q_values.size());
  ASSERT_EQ(order.size(), cfg.q_values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(points[i].index, i);
  }
}

// One section runs every point's trials, and each q_<i> node covers the
// wall time since the previous point finished: its pool node's busy time
// is the workers' trial time inside that interval.  Every trial lies
// inside the scan's intervals and a worker runs one trial at a time, so
// the pool nodes partition the trials' time exactly, and no point's busy
// time exceeds its capacity.
TEST(PhaseScan, PointPoolNodesPartitionTheScan) {
  PhaseScanConfig cfg = small_scan();
  obs::MetricsNode node("phase");
  cfg.metrics = &node;
  ASSERT_EQ(run_phase_scan(cfg).size(), cfg.q_values.size());
  double busy = 0.0;
  double trial_time = 0.0;
  for (std::size_t i = 0; i < cfg.q_values.size(); ++i) {
    const obs::MetricsNode* point = node.find_child("q_" + std::to_string(i));
    ASSERT_NE(point, nullptr) << i;
    const obs::MetricsNode* pool = point->find_child("pool");
    ASSERT_NE(pool, nullptr) << i;
    EXPECT_DOUBLE_EQ(pool->counter("tasks"), static_cast<double>(cfg.trials));
    const double capacity =
        pool->counter("workers") * static_cast<double>(point->elapsed_ns());
    EXPECT_DOUBLE_EQ(pool->counter("busy_ns") + pool->counter("idle_ns"), capacity) << i;
    busy += pool->counter("busy_ns");
    trial_time += static_cast<double>(point->find_child("trials")->elapsed_ns());
  }
  EXPECT_DOUBLE_EQ(busy, trial_time);
}

}  // namespace
}  // namespace fvc::sim
