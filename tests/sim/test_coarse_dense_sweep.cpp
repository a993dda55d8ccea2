// Coarse grids over dense networks: a row holds far more cameras than
// columns, so the row sweep's work depends on stopping once the row's
// columns saturate.  The guard is a count, not a time: the sweep may
// compute intervals for no more (camera, row) pairs than the row-level
// saturation schedule it replaced did on the same trials.  The recorded
// counts come from that schedule (check after 8 * cols cameras, then
// every 2 * cols), instrumented on these exact configurations: the
// `simulate --n 20000 --radius 0.3` shapes below, trials seeded
// mix64(1, t) as `simulate --seed 1` seeds them.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "fvc/core/camera_group.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/sim/trial.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {
namespace {

struct Shape {
  double fov;
  double theta;
  std::size_t grid_side;
  std::uint64_t recorded_camera_rows;  ///< the replaced schedule's count
};

TEST(CoarseDenseSweep, CameraRowsWithinTheRowSaturationSchedulesCount) {
  // simulate --n 20000 --radius 0.3 --fov 6.283 --theta 1.5708 --grid-side 48
  // simulate --n 20000 --radius 0.3 --fov 2.0 --grid-side 24 (theta pi/2)
  const Shape shapes[] = {{6.283, 1.5708, 48, 153600}, {2.0, geom::kHalfPi, 24, 67776}};
  for (const Shape& s : shapes) {
    TrialConfig cfg;
    cfg.n = 20000;
    cfg.theta = s.theta;
    cfg.profile = core::HeterogeneousProfile::homogeneous(0.3, s.fov);
    cfg.grid_side = s.grid_side;
    TrialMetrics total;
    for (std::uint64_t t = 0; t < 8; ++t) {
      TrialMetrics m;
      (void)run_trial_events(cfg, stats::mix64(1, t), &m);
      total.merge(m);
    }
    SCOPED_TRACE(testing::Message() << "fov=" << s.fov << " grid_side=" << s.grid_side);
    EXPECT_GT(total.engine.sweep_rows, 0U);
    EXPECT_GT(total.engine.sweep_camera_rows, 0U);
    EXPECT_LE(total.engine.sweep_camera_rows, s.recorded_camera_rows);
  }
}

}  // namespace
}  // namespace fvc::sim
