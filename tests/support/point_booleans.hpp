/// \file point_booleans.hpp
/// \brief Per-point check of the engine's boolean scans against the scalar
/// oracles.
///
/// The boolean scans (`row_events`, `row_all_*`) answer per row, so a
/// grid-wide comparison can hide a wrong point behind a failing one.  These
/// helpers put one probe point alone on a grid: the network is translated
/// on the torus so that the probe lands on the single point of
/// `DenseGrid(1)`, and every row answer is then that point's answer.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"

namespace fvc::testsupport {

/// `net` translated on the torus so that `p` maps to (0.5, 0.5), the
/// single point of `DenseGrid(1)` (the Network constructor wraps).
inline core::Network centered_on(const core::Network& net, const geom::Vec2& p) {
  std::vector<core::Camera> cams(net.cameras().begin(), net.cameras().end());
  for (core::Camera& c : cams) {
    c.position.x += 0.5 - p.x;
    c.position.y += 0.5 - p.y;
  }
  return core::Network(std::move(cams), geom::SpaceMode::kTorus);
}

/// Oracle answers at the single point of `DenseGrid(1)`.
struct PointOracle {
  bool necessary = false;
  bool full_view = false;
  bool sufficient = false;
};

inline PointOracle point_oracle(const core::Network& net, double theta) {
  const geom::Vec2 p = core::DenseGrid(1).point(0, 0);
  return {core::meets_necessary_condition(net, p, theta),
          core::full_view_covered(net, p, theta).covered,
          core::meets_sufficient_condition(net, p, theta)};
}

/// Tally of oracle outcomes, to show a randomized check was not vacuous.
struct PointOutcomes {
  std::size_t count[3][2] = {};  ///< [necessary, full view, sufficient][false, true]

  void add(const PointOracle& o) {
    ++count[0][o.necessary ? 1 : 0];
    ++count[1][o.full_view ? 1 : 0];
    ++count[2][o.sufficient ? 1 : 0];
  }

  /// Every predicate was seen both holding and failing.
  void expect_both_outcomes() const {
    for (std::size_t pred = 0; pred < 3; ++pred) {
      EXPECT_GT(count[pred][0], 0U) << "predicate " << pred << " never failed";
      EXPECT_GT(count[pred][1], 0U) << "predicate " << pred << " never held";
    }
  }
};

/// Expect every boolean scan of the one-point grid to reproduce the
/// oracles at its point: `row_all_*` directly, and `row_events` under all
/// four (need_full_view, need_sufficient) protocols of the trial runner.
/// The engine is built here, so a kernel pin active at the call applies.
inline void expect_point_booleans(const core::Network& net, double theta,
                                  core::GridEvalCounters* counters = nullptr) {
  const core::DenseGrid grid(1);
  const PointOracle want = point_oracle(net, theta);
  const core::GridEvalEngine engine(net, grid, theta);
  core::GridEvalScratch scratch;
  scratch.counters = counters;
  EXPECT_EQ(engine.row_all_necessary(0, scratch), want.necessary);
  EXPECT_EQ(engine.row_all_full_view(0, scratch), want.full_view);
  EXPECT_EQ(engine.row_all_sufficient(0, scratch), want.sufficient);
  for (const bool need_fv : {true, false}) {
    for (const bool need_suf : {true, false}) {
      const core::GridRowEvents ev = engine.row_events(0, scratch, need_fv, need_suf);
      const bool fv = want.necessary && need_fv && want.full_view;
      const bool suf = want.necessary && need_suf && want.sufficient &&
                       (!need_fv || want.full_view);
      SCOPED_TRACE(testing::Message()
                   << "need_fv=" << need_fv << " need_suf=" << need_suf);
      EXPECT_EQ(ev.all_necessary, want.necessary);
      EXPECT_EQ(ev.all_full_view, fv);
      EXPECT_EQ(ev.all_sufficient, suf);
    }
  }
}

}  // namespace fvc::testsupport
