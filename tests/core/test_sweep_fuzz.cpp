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
// And it drives the per-point accessors (`PointAccessorsMatch...`): the
// grid-point ones (`sorted_directions`, `point_*`, `row_all_k_covered`),
// which read the row's stats sweep, at every grid point, and `eval_point`,
// which classifies the pool's y band in place, at off-lattice points on
// strip boundaries, on the torus seam and at random, all against the
// scalar oracles bit for bit under every pin.  On the torus configurations
// it also drives the serve layer's point path (`SessionPointPath...`):
// `api::Session::query_points` and `handle_query`'s `points` op at every
// grid point and at the same off-lattice points, against
// `Session::query_point` bit for bit under every pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "fvc/api/client.hpp"
#include "fvc/api/server.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
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

// The Session over a torus configuration, as the stats test builds it.
api::Session fuzz_session(const testsupport::FuzzConfig& cfg, std::uint64_t index) {
  api::SessionConfig scfg;
  scfg.cameras.assign(cfg.net.cameras().begin(), cfg.net.cameras().end());
  scfg.theta = cfg.theta;
  scfg.grid_side = cfg.grid.side();
  scfg.tile_rows = 1 + index % 3;
  scfg.threads = 2;
  return api::Session(std::move(scfg));
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
        api::Session session = fuzz_session(cfg, index);
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The oracle's answers at one point.
struct PointWant {
  std::vector<double> dirs;  ///< sorted viewed directions
  FullViewResult full_view;
  bool necessary = false;
  bool sufficient = false;
};

// The network overloads of the oracles, with one gather of the directions.
PointWant point_want(const Network& net, const geom::Vec2& p, double theta) {
  PointWant w;
  w.dirs = net.viewed_directions(p);
  w.full_view = full_view_covered(w.dirs, theta);
  w.necessary = meets_necessary_condition(w.dirs, theta);
  w.sufficient = meets_sufficient_condition(w.dirs, theta);
  std::sort(w.dirs.begin(), w.dirs.end());
  return w;
}

void expect_full_view(const FullViewResult& got, const FullViewResult& want) {
  ASSERT_EQ(got.covered, want.covered);
  ASSERT_EQ(bits(got.max_gap), bits(want.max_gap));
  ASSERT_EQ(got.covering_count, want.covering_count);
  ASSERT_EQ(got.witness_unsafe_direction.has_value(), want.witness_unsafe_direction.has_value());
  if (want.witness_unsafe_direction.has_value()) {
    ASSERT_EQ(bits(*got.witness_unsafe_direction), bits(*want.witness_unsafe_direction));
  }
}

// Off-lattice probe points of a configuration whose index has `cells`
// strips: on strip boundaries and one ulp either side, on the torus seam
// (0, 1, and just outside [0, 1]), and at random.
std::vector<geom::Vec2> off_lattice_points(std::size_t cells, std::uint64_t index) {
  std::uint64_t draw = 0;
  auto unit = [&]() {
    return static_cast<double>(stats::mix64(index, draw++) >> 11) * 0x1.0p-53;
  };
  std::vector<geom::Vec2> pts;
  const auto sd = static_cast<double>(cells);
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, cells / 2, cells - 1, cells}) {
    const double y = static_cast<double>(k) / sd;
    for (const double v : {std::nextafter(y, -1.0), y, std::nextafter(y, 2.0)}) {
      pts.push_back({unit(), v});
    }
  }
  const double below1 = std::nextafter(1.0, 0.0);
  const double tiny = -std::numeric_limits<double>::denorm_min();
  pts.insert(pts.end(), {{0.0, 0.0}, {below1, below1}, {1.0, 1.0}, {tiny, unit()},
                         {unit(), tiny}, {1.0, unit()}, {unit(), 1.0}, {below1, 0.0}});
  for (int i = 0; i < 4; ++i) {
    pts.push_back({unit(), unit()});
  }
  return pts;
}

TEST(SweepFuzz, PointAccessorsMatchTheOraclesOnAdversarialConfigs) {
  const std::vector<KernelVariant> kernels = testsupport::supported_kernels();
  GridEvalCounters counters;  // every configuration under the first pin
  for (std::uint64_t index = 0; index < kConfigs; ++index) {
    const testsupport::FuzzConfig cfg = testsupport::fuzz_config(kSeed, index);
    const std::size_t side = cfg.grid.side();
    std::vector<PointWant> want;
    std::vector<std::size_t> row_min_count(side, ~std::size_t{0});
    for (std::size_t row = 0; row < side; ++row) {
      for (std::size_t col = 0; col < side; ++col) {
        want.push_back(point_want(cfg.net, cfg.grid.point(row, col), cfg.theta));
        row_min_count[row] = std::min(row_min_count[row], want.back().full_view.covering_count);
      }
    }
    const std::vector<geom::Vec2> off = off_lattice_points(
        GridEvalEngine(cfg.net, cfg.grid, cfg.theta).cells_per_side(), index);
    std::vector<PointWant> off_want;
    for (const geom::Vec2& p : off) {
      off_want.push_back(point_want(cfg.net, p, cfg.theta));
    }
    GridEvalCounters first;
    for (const KernelVariant variant : kernels) {
      const testsupport::ForcedKernel pin(variant);
      const GridEvalEngine engine(cfg.net, cfg.grid, cfg.theta);
      GridEvalScratch scratch;
      GridEvalCounters config_counters;
      scratch.counters = &config_counters;
      for (std::size_t row = 0; row < side; ++row) {
        SCOPED_TRACE(testing::Message()
                     << "replay: fuzz_config(" << kSeed << ", " << index
                     << ") kernel=" << kernel_name(variant) << " theta=" << cfg.theta
                     << " side=" << side << " cameras=" << cfg.net.size() << " row=" << row);
        for (std::size_t col = 0; col < side; ++col) {
          SCOPED_TRACE(testing::Message() << "col=" << col);
          const PointWant& w = want[row * side + col];
          const std::span<const double> dirs = engine.sorted_directions(row, col, scratch);
          ASSERT_EQ(dirs.size(), w.dirs.size());
          for (std::size_t j = 0; j < dirs.size(); ++j) {
            ASSERT_EQ(bits(dirs[j]), bits(w.dirs[j])) << "dir=" << j;
          }
          expect_full_view(engine.point_full_view(row, col, scratch), w.full_view);
          ASSERT_EQ(engine.point_necessary(row, col, scratch), w.necessary);
          ASSERT_EQ(engine.point_sufficient(row, col, scratch), w.sufficient);
          ASSERT_GE(engine.point_candidate_count(row, col, scratch), w.full_view.covering_count);
        }
        for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
          ASSERT_EQ(engine.row_all_k_covered(row, k, scratch), row_min_count[row] >= k)
              << "k=" << k;
        }
        // A stats scan on the same scratch replaces its sweep: the next
        // row's accessors must sweep again, not read this row's lists.
        (void)engine.row_stats(side - 1 - row, scratch);
      }
      for (std::size_t i = 0; i < off.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "replay: fuzz_config(" << kSeed << ", " << index
                                        << ") kernel=" << kernel_name(variant) << " point=("
                                        << off[i].x << ", " << off[i].y << ")");
        const PointEval got = engine.eval_point(off[i], scratch);
        expect_full_view(got.full_view, off_want[i].full_view);
        ASSERT_EQ(got.necessary, off_want[i].necessary);
        ASSERT_EQ(got.sufficient, off_want[i].sufficient);
      }
      if (variant == kernels.front()) {
        first = config_counters;
        counters.merge(config_counters);
      } else {
        SCOPED_TRACE(testing::Message() << "counters: fuzz_config(" << kSeed << ", " << index
                                        << ") kernel=" << kernel_name(variant));
        EXPECT_EQ(config_counters.points, first.points);
        EXPECT_EQ(config_counters.candidates_total, first.candidates_total);
        EXPECT_EQ(config_counters.directions_total, first.directions_total);
        EXPECT_EQ(config_counters.atan2_calls, first.atan2_calls);
        EXPECT_EQ(config_counters.trig_fallbacks, first.trig_fallbacks);
        EXPECT_EQ(config_counters.stats_rows, first.stats_rows);
        EXPECT_EQ(config_counters.stats_pairs, first.stats_pairs);
        EXPECT_EQ(config_counters.stats_replays, first.stats_replays);
        ASSERT_FALSE(testing::Test::HasFailure());
      }
    }
  }
  // Not vacuous: the accessors' sweeps left pairs to the scalar replay,
  // and band hits took the exact-arithmetic fallback.
  EXPECT_GT(counters.stats_replays, 0U);
  EXPECT_GT(counters.trig_fallbacks, 0U);
}

void expect_same_answer(const api::PointAnswer& got, const api::PointAnswer& want) {
  ASSERT_EQ(got.covered, want.covered);
  ASSERT_EQ(got.necessary, want.necessary);
  ASSERT_EQ(got.sufficient, want.sufficient);
  ASSERT_EQ(bits(got.max_gap), bits(want.max_gap));
  ASSERT_EQ(got.covering_count, want.covering_count);
}

TEST(SweepFuzz, SessionPointPathMatchesQueryPointOnAdversarialConfigs) {
  const std::vector<KernelVariant> kernels = testsupport::supported_kernels();
  std::size_t configs = 0;
  std::size_t covered = 0;
  for (std::uint64_t index = 0; index < kConfigs; ++index) {
    const testsupport::FuzzConfig cfg = testsupport::fuzz_config(kSeed, index);
    if (cfg.net.mode() != geom::SpaceMode::kTorus || index % 4 != 0) {
      continue;  // the configurations the stats test serves through a Session
    }
    ++configs;
    const std::size_t side = cfg.grid.side();
    std::vector<double> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < cfg.grid.size(); ++i) {
      xs.push_back(cfg.grid.point(i).x);
      ys.push_back(cfg.grid.point(i).y);
    }
    for (const geom::Vec2& p : off_lattice_points(
             GridEvalEngine(cfg.net, cfg.grid, cfg.theta).cells_per_side(), index)) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    const std::size_t n = xs.size();
    std::vector<api::PointAnswer> want(n);
    {
      api::Session reference = fuzz_session(cfg, index);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = reference.query_point(xs[i], ys[i]);
        covered += want[i].covered ? 1 : 0;
      }
    }
    for (const KernelVariant variant : kernels) {
      const testsupport::ForcedKernel pin(variant);
      api::Session session = fuzz_session(cfg, index);
      std::vector<api::PointAnswer> got(n);
      session.query_points(xs.data(), ys.data(), n, got.data());
      const api::WireObject resp =
          api::parse_flat_object(api::handle_query(session, api::points_request(xs, ys)));
      ASSERT_TRUE(api::get_bool(resp, "ok"));
      const std::vector<double>& wire_covered = api::get_numbers(resp, "covered");
      const std::vector<double>& wire_necessary = api::get_numbers(resp, "necessary");
      const std::vector<double>& wire_sufficient = api::get_numbers(resp, "sufficient");
      const std::vector<double>& wire_gap = api::get_numbers(resp, "max_gap");
      const std::vector<double>& wire_count = api::get_numbers(resp, "covering_count");
      ASSERT_EQ(wire_covered.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(testing::Message()
                     << "replay: fuzz_config(" << kSeed << ", " << index
                     << ") kernel=" << kernel_name(variant) << " theta=" << cfg.theta
                     << " side=" << side << " point=(" << xs[i] << ", " << ys[i] << ")");
        expect_same_answer(got[i], want[i]);
        api::PointAnswer wire;
        wire.covered = wire_covered[i] != 0.0;
        wire.necessary = wire_necessary[i] != 0.0;
        wire.sufficient = wire_sufficient[i] != 0.0;
        wire.max_gap = wire_gap[i];
        wire.covering_count = static_cast<std::size_t>(wire_count[i]);
        expect_same_answer(wire, want[i]);
      }
    }
  }
  // Not vacuous: many configurations, and points both covered and not.
  EXPECT_GT(configs, 500U);
  EXPECT_GT(covered, 0U);
}

// A camera at the dyadic Pythagorean offset (-3/16, 4/16) from a grid
// point with radius 5/16: d^2 == r^2 holds exactly, so the closed disc
// covers the point, and one ulp less radius does not.  The counts are
// absolute, not a comparison with the oracle, so a change to the oracle's
// boundary fails here as well as in the differential tests.
TEST(SweepFuzz, ExactBoundaryCameraCoversItsGridPoint) {
  const DenseGrid grid(8);
  constexpr std::size_t kRow = 2;
  constexpr std::size_t kCol = 5;
  const geom::Vec2 g = grid.point(kRow, kCol);  // (11/16, 5/16)
  const double theta = geom::kPi / 4.0;
  for (const double radius : {0.3125, std::nextafter(0.3125, 0.0)}) {
    const std::size_t want = radius == 0.3125 ? 1 : 0;
    Camera cam;
    cam.position = {g.x - 0.1875, g.y + 0.25};
    cam.orientation = 0.0;
    cam.radius = radius;
    cam.fov = geom::kTwoPi;
    for (const geom::SpaceMode mode : {geom::SpaceMode::kTorus, geom::SpaceMode::kPlane}) {
      SCOPED_TRACE(testing::Message() << "radius=" << radius << " torus="
                                      << (mode == geom::SpaceMode::kTorus));
      const Network net({cam}, mode);
      EXPECT_EQ(full_view_covered(net, g, theta).covering_count, want);
      for (const KernelVariant variant : testsupport::supported_kernels()) {
        const testsupport::ForcedKernel pin(variant);
        const GridEvalEngine engine(net, grid, theta);
        GridEvalScratch scratch;
        EXPECT_EQ(engine.point_full_view(kRow, kCol, scratch).covering_count, want);
        EXPECT_EQ(engine.eval_point(g, scratch).full_view.covering_count, want);
        if (mode == geom::SpaceMode::kTorus) {
          api::SessionConfig scfg;
          scfg.cameras = {cam};
          scfg.theta = theta;
          scfg.grid_side = grid.side();
          api::Session session(std::move(scfg));
          api::PointAnswer ans;
          session.query_points(&g.x, &g.y, 1, &ans);
          EXPECT_EQ(ans.covering_count, want);
          EXPECT_EQ(session.query_point(g.x, g.y).covering_count, want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fvc::core
