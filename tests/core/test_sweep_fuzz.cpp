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
// The same stream drives the stats path (`StatsPathMatchesTheOracle...`):
// `evaluate`, `block_stats` over a random row partition and
// `api::Session::query_region` must equal `evaluate_region_scalar` bit for
// bit under every pin, with the stats sweep's counters equal across pins.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fvc/api/session.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/stats/rng.hpp"
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

bool same_stats(const RegionCoverageStats& a, const RegionCoverageStats& b) {
  return a.total_points == b.total_points && a.covered_1 == b.covered_1 &&
         a.necessary_ok == b.necessary_ok && a.full_view_ok == b.full_view_ok &&
         a.sufficient_ok == b.sufficient_ok && a.k_covered_ok == b.k_covered_ok &&
         std::bit_cast<std::uint64_t>(a.min_max_gap) == std::bit_cast<std::uint64_t>(b.min_max_gap) &&
         std::bit_cast<std::uint64_t>(a.max_max_gap) == std::bit_cast<std::uint64_t>(b.max_max_gap);
}

TEST(SweepFuzz, StatsPathMatchesTheOracleOnAdversarialConfigs) {
  const std::vector<KernelVariant> kernels = testsupport::supported_kernels();
  GridEvalCounters counters;  // every configuration under the first pin
  for (std::uint64_t index = 0; index < kConfigs; ++index) {
    const testsupport::FuzzConfig cfg = testsupport::fuzz_config(kSeed, index);
    const std::size_t side = cfg.grid.side();
    const RegionCoverageStats want = evaluate_region_scalar(cfg.net, cfg.grid, cfg.theta);
    // A random row partition, the same under every pin.
    std::vector<std::size_t> cuts;
    for (std::size_t r = 1; r < side; ++r) {
      if (stats::mix64(index, r) % 3 == 0) {
        cuts.push_back(r);
      }
    }
    cuts.push_back(side);
    GridEvalCounters first;
    for (const KernelVariant variant : kernels) {
      const testsupport::ForcedKernel pin(variant);
      SCOPED_TRACE(testing::Message()
                   << "replay: fuzz_config(" << kSeed << ", " << index
                   << ") kernel=" << kernel_name(variant) << " theta=" << cfg.theta
                   << " side=" << side << " cameras=" << cfg.net.size());
      const GridEvalEngine engine(cfg.net, cfg.grid, cfg.theta);
      GridEvalScratch scratch;
      GridEvalCounters config_counters;
      scratch.counters = &config_counters;
      ASSERT_TRUE(same_stats(engine.evaluate(scratch), want));
      GridRowStats acc;
      std::size_t begin = 0;
      for (const std::size_t end : cuts) {
        acc.fold(engine.block_stats(begin, end, scratch), begin == 0);
        begin = end;
      }
      ASSERT_TRUE(same_stats(acc.region(cfg.grid.size()), want));
      if (cfg.net.mode() == geom::SpaceMode::kTorus && index % 4 == 0) {
        api::SessionConfig scfg;
        scfg.cameras.assign(cfg.net.cameras().begin(), cfg.net.cameras().end());
        scfg.theta = cfg.theta;
        scfg.grid_side = side;
        scfg.tile_rows = 1 + index % 3;
        scfg.threads = 2;
        api::Session session(std::move(scfg));
        ASSERT_TRUE(same_stats(session.query_region(0.0, 1.0).stats, want));
      }
      if (variant == kernels.front()) {
        first = config_counters;
        counters.merge(config_counters);
      } else {
        EXPECT_EQ(config_counters.stats_rows, first.stats_rows);
        EXPECT_EQ(config_counters.stats_camera_rows, first.stats_camera_rows);
        EXPECT_EQ(config_counters.stats_pairs, first.stats_pairs);
        EXPECT_EQ(config_counters.stats_replays, first.stats_replays);
        EXPECT_EQ(config_counters.candidates_total, first.candidates_total);
        EXPECT_EQ(config_counters.directions_total, first.directions_total);
        EXPECT_EQ(config_counters.atan2_calls, first.atan2_calls);
        EXPECT_EQ(config_counters.occupancy_points, first.occupancy_points);
        EXPECT_EQ(config_counters.trig_fallbacks, first.trig_fallbacks);
        ASSERT_FALSE(testing::Test::HasFailure());
      }
    }
  }
  // Not vacuous: the pair stage ran and left pairs to the scalar replay.
  EXPECT_GT(counters.stats_pairs, 0U);
  EXPECT_GT(counters.stats_replays, 0U);
  EXPECT_GT(counters.atan2_calls, 0U);
}

}  // namespace
}  // namespace fvc::core
