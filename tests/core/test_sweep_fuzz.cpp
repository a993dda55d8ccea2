// Standing differential fuzz of the boolean scans: every `row_all_*` and
// all four `row_events` protocols of every row, on a fixed-seed stream of
// adversarial configurations (tests/support/sweep_fuzz.hpp), must equal
// the scalar oracles bit for bit under every supported kernel pin.  Each
// scratch serves the rows in turn with the trial runner's mix of need
// sets, so the sweep's cache key, column saturation and checkpoints are
// exercised as well as its margins.  A failure names the (seed, index)
// that replays it.  The engine counters of each configuration (the
// sweep's work, the exact classifies, the points swept with no classify,
// the atan2 calls, the cameras the piece stage left to the scalar pass)
// must be equal under every pin too: the pinned kernels differ in speed
// only, so every skip, finish and checkpoint falls on the same camera.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "support/forced_kernel.hpp"
#include "support/point_booleans.hpp"
#include "support/sweep_fuzz.hpp"

namespace fvc::core {
namespace {

constexpr std::uint64_t kSeed = 2301;
constexpr std::uint64_t kConfigs = 4000;

// The counters every kernel pin must leave equal.
void expect_same_work(const GridEvalCounters& got, const GridEvalCounters& want) {
  EXPECT_EQ(got.sweep_rows, want.sweep_rows);
  EXPECT_EQ(got.sweep_camera_rows, want.sweep_camera_rows);
  EXPECT_EQ(got.sweep_pieces, want.sweep_pieces);
  EXPECT_EQ(got.sweep_verify, want.sweep_verify);
  EXPECT_EQ(got.sweep_skipped, want.sweep_skipped);
  EXPECT_EQ(got.sweep_walk_fallback, want.sweep_walk_fallback);
  EXPECT_EQ(got.candidates_total, want.candidates_total);
  EXPECT_EQ(got.swept_points, want.swept_points);
  EXPECT_EQ(got.atan2_calls, want.atan2_calls);
}

TEST(SweepFuzz, RowAnswersMatchOraclesOnAdversarialConfigs) {
  const std::vector<KernelVariant> kernels = testsupport::supported_kernels();
  testsupport::PointOutcomes seen;
  GridEvalCounters counters;  // every configuration under the first pin
  for (std::uint64_t index = 0; index < kConfigs; ++index) {
    const testsupport::FuzzConfig cfg = testsupport::fuzz_config(kSeed, index);
    const std::size_t side = cfg.grid.side();
    std::vector<testsupport::PointOracle> want(side, {true, true, true});
    for (std::size_t row = 0; row < side; ++row) {
      for (std::size_t col = 0; col < side; ++col) {
        const geom::Vec2 p = cfg.grid.point(row, col);
        testsupport::PointOracle& w = want[row];
        w.necessary = w.necessary && meets_necessary_condition(cfg.net, p, cfg.theta);
        w.full_view = w.full_view && full_view_covered(cfg.net, p, cfg.theta).covered;
        w.sufficient = w.sufficient && meets_sufficient_condition(cfg.net, p, cfg.theta);
      }
      seen.add(want[row]);
    }
    GridEvalCounters first;
    for (const KernelVariant variant : kernels) {
      const testsupport::ForcedKernel pin(variant);
      const GridEvalEngine engine(cfg.net, cfg.grid, cfg.theta);
      GridEvalScratch scratch;
      GridEvalCounters config_counters;
      scratch.counters = &config_counters;
      for (std::size_t row = 0; row < side; ++row) {
        const testsupport::PointOracle& w = want[row];
        SCOPED_TRACE(testing::Message()
                     << "replay: fuzz_config(" << kSeed << ", " << index
                     << ") kernel=" << kernel_name(variant) << " theta=" << cfg.theta
                     << " side=" << side << " cameras=" << cfg.net.size() << " row=" << row);
        // Narrow need sets first, so a sweep cached for one is asked for
        // a wider one next.
        ASSERT_EQ(engine.row_all_necessary(row, scratch), w.necessary);
        ASSERT_EQ(engine.row_all_sufficient(row, scratch), w.sufficient);
        ASSERT_EQ(engine.row_all_full_view(row, scratch), w.full_view);
        for (const bool need_fv : {false, true}) {
          for (const bool need_suf : {false, true}) {
            const GridRowEvents ev = engine.row_events(row, scratch, need_fv, need_suf);
            ASSERT_EQ(ev.all_necessary, w.necessary);
            ASSERT_EQ(ev.all_full_view, w.necessary && need_fv && w.full_view);
            ASSERT_EQ(ev.all_sufficient, w.necessary && need_suf && w.sufficient &&
                                             (!need_fv || w.full_view));
          }
        }
      }
      if (variant == kernels.front()) {
        first = config_counters;
        counters.merge(config_counters);
      } else {
        SCOPED_TRACE(testing::Message() << "counters: fuzz_config(" << kSeed << ", " << index
                                        << ") kernel=" << kernel_name(variant));
        expect_same_work(config_counters, first);
        ASSERT_FALSE(testing::Test::HasFailure());
      }
    }
  }
  // Not vacuous: every predicate both held and failed on some row, and
  // the sweep saturated columns and skipped cameras.
  seen.expect_both_outcomes();
  EXPECT_GT(counters.sweep_skipped, 0U);
  EXPECT_GT(counters.sweep_pieces, 0U);
  EXPECT_GT(counters.sweep_verify, 0U);
  EXPECT_GT(counters.sweep_walk_fallback, 0U);
}

}  // namespace
}  // namespace fvc::core
