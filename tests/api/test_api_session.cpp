/// Session facade tests: what-if edit -> scoped invalidation -> re-query
/// matches a fresh build bit-exactly; LRU eviction accounting; digest
/// changes on every edit (and round-trips with content).

#include "fvc/api/session.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fvc/api/tile_cache.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc {
namespace {

constexpr double kTheta = geom::kHalfPi;
constexpr std::size_t kSide = 32;
constexpr std::size_t kTileRows = 8;  // 4 tiles over 32 rows

std::vector<core::Camera> test_cameras(std::size_t n = 60, std::size_t seed = 7) {
  const auto profile = core::HeterogeneousProfile::homogeneous(0.2, 2.0);
  stats::Pcg32 rng(seed);
  const core::Network net = deploy::deploy_uniform_network(profile, n, rng);
  return {net.cameras().begin(), net.cameras().end()};
}

api::Session make_session(std::vector<core::Camera> cameras,
                          double theta = kTheta,
                          std::size_t cache_tiles = 1024) {
  api::SessionConfig cfg;
  cfg.cameras = std::move(cameras);
  cfg.theta = theta;
  cfg.grid_side = kSide;
  cfg.tile_rows = kTileRows;
  cfg.cache_tiles = cache_tiles;
  cfg.threads = 3;
  return api::Session(std::move(cfg));
}

void expect_same_stats(const core::RegionCoverageStats& a,
                       const core::RegionCoverageStats& b) {
  EXPECT_EQ(a.total_points, b.total_points);
  EXPECT_EQ(a.covered_1, b.covered_1);
  EXPECT_EQ(a.necessary_ok, b.necessary_ok);
  EXPECT_EQ(a.full_view_ok, b.full_view_ok);
  EXPECT_EQ(a.sufficient_ok, b.sufficient_ok);
  EXPECT_EQ(a.k_covered_ok, b.k_covered_ok);
  // Bit-exact, not approximate: the whole point of the cache contract.
  EXPECT_EQ(a.min_max_gap, b.min_max_gap);
  EXPECT_EQ(a.max_max_gap, b.max_max_gap);
}

/// The served region answer must equal a *fresh* session's answer over the
/// same strip — the "cold rebuild" a one-shot CLI run would do.
void expect_matches_fresh(api::Session& session, double y_lo, double y_hi) {
  api::Session fresh = make_session(
      [&] {
        std::vector<core::Camera> cams;
        cams.reserve(session.camera_count());
        for (std::size_t i = 0; i < session.camera_count(); ++i) {
          cams.push_back(session.camera(i));
        }
        return cams;
      }(),
      session.theta());
  const api::RegionAnswer got = session.query_region(y_lo, y_hi);
  const api::RegionAnswer want = fresh.query_region(y_lo, y_hi);
  EXPECT_EQ(got.row_begin, want.row_begin);
  EXPECT_EQ(got.row_end, want.row_end);
  expect_same_stats(got.stats, want.stats);
}

TEST(ApiSession, PointQueryRunsTheScalarOracles) {
  api::Session session = make_session(test_cameras());
  const core::Network net(test_cameras());
  const geom::Vec2 p{0.375, 0.625};
  const api::PointAnswer ans = session.query_point(p.x, p.y);
  const core::FullViewResult fv = core::full_view_covered(net, p, kTheta);
  EXPECT_EQ(ans.covered, fv.covered);
  EXPECT_EQ(ans.max_gap, fv.max_gap);
  EXPECT_EQ(ans.covering_count, fv.covering_count);
  EXPECT_EQ(ans.necessary, core::meets_necessary_condition(net, p, kTheta));
  EXPECT_EQ(ans.sufficient, core::meets_sufficient_condition(net, p, kTheta));
}

TEST(ApiSession, WholeGridQueryMatchesOneShotEvaluation) {
  api::Session session = make_session(test_cameras());
  const core::Network net(test_cameras());
  const core::DenseGrid grid(kSide);
  const core::RegionCoverageStats want = core::evaluate_region(net, grid, kTheta);
  // The point-at-a-time oracle too, not only the engine the session runs.
  const core::RegionCoverageStats oracle = core::evaluate_region_scalar(net, grid, kTheta);
  const api::RegionAnswer got = session.query_region(0.0, 1.0);
  EXPECT_EQ(got.row_begin, 0u);
  EXPECT_EQ(got.row_end, kSide);
  EXPECT_EQ(got.tiles_total, kSide / kTileRows);
  EXPECT_EQ(got.tiles_computed, kSide / kTileRows);
  expect_same_stats(got.stats, want);
  expect_same_stats(got.stats, oracle);
  // Re-query: answered entirely from the cache, still bit-identical.
  const api::RegionAnswer again = session.query_region(0.0, 1.0);
  EXPECT_EQ(again.tiles_cached, kSide / kTileRows);
  EXPECT_EQ(again.tiles_computed, 0u);
  expect_same_stats(again.stats, want);
  expect_same_stats(again.stats, oracle);
}

TEST(ApiSession, StripWidensToWholeTilesAndReportsRows) {
  api::Session session = make_session(test_cameras());
  // Rows with centers in [0.3, 0.55]: rows 10..17 -> tiles [8, 24).
  const api::RegionAnswer ans = session.query_region(0.3, 0.55);
  EXPECT_EQ(ans.row_begin, 8u);
  EXPECT_EQ(ans.row_end, 24u);
  EXPECT_EQ(ans.tiles_total, 2u);
  EXPECT_EQ(ans.stats.total_points, (24u - 8u) * kSide);
  expect_matches_fresh(session, 0.3, 0.55);
}

TEST(ApiSession, EmptyStripReturnsZeroRows) {
  api::Session session = make_session(test_cameras());
  // No cell center lies in [0, 1/(2*side)): centers start at 0.5/side.
  const api::RegionAnswer ans = session.query_region(0.0, 0.25 / kSide);
  EXPECT_EQ(ans.row_begin, 0u);
  EXPECT_EQ(ans.row_end, 0u);
  EXPECT_EQ(ans.tiles_total, 0u);
  EXPECT_EQ(ans.stats.total_points, 0u);
}

TEST(ApiSession, DigestChangesOnEveryEditAndRoundTrips) {
  api::Session session = make_session(test_cameras());
  const std::uint64_t base = session.digest();

  core::Camera extra;
  extra.position = {0.5, 0.5};
  extra.radius = 0.25;
  extra.fov = 2.0;
  const std::uint64_t after_add = session.add_camera(extra);
  EXPECT_NE(after_add, base);

  core::Camera moved = session.camera(0);
  moved.position.x = 0.987654321;
  const std::uint64_t after_move = session.move_camera(0, moved);
  EXPECT_NE(after_move, after_add);

  const std::uint64_t after_theta = session.set_theta(kTheta / 2.0);
  EXPECT_NE(after_theta, after_move);

  // Unwind every edit: the digest is content-derived, so the sequence
  // returns to the exact starting value.
  (void)session.set_theta(kTheta);
  (void)session.move_camera(0, test_cameras()[0]);
  const std::uint64_t back = session.remove_camera(session.camera_count() - 1);
  EXPECT_EQ(back, base);
  EXPECT_EQ(session.digest(), base);
}

TEST(ApiSession, WhatIfEditsRequeryBitIdenticalToFreshBuild) {
  api::Session session = make_session(test_cameras());
  (void)session.query_region(0.0, 1.0);  // warm every tile

  core::Camera extra;
  extra.position = {0.25, 0.125};
  extra.orientation = 0.5;
  extra.radius = 0.1;
  extra.fov = 2.0;
  (void)session.add_camera(extra);
  expect_matches_fresh(session, 0.0, 1.0);

  core::Camera moved = session.camera(3);
  moved.position = {0.875, 0.875};
  (void)session.move_camera(3, moved);
  expect_matches_fresh(session, 0.0, 1.0);

  (void)session.remove_camera(session.camera_count() - 1);
  expect_matches_fresh(session, 0.0, 1.0);

  (void)session.set_theta(geom::kPi / 3.0);
  expect_matches_fresh(session, 0.0, 1.0);
  expect_matches_fresh(session, 0.4, 0.6);
}

TEST(ApiSession, InvalidationIsScopedToTilesTheEditCanReach) {
  api::Session session = make_session(test_cameras());
  (void)session.query_region(0.0, 1.0);  // 4 tiles cached

  // A small camera near the top of the unit square: its disk (r = 0.05
  // around y = 0.125) reaches only tile 0 (rows 0-7, centers < 0.25).
  core::Camera local;
  local.position = {0.5, 0.125};
  local.radius = 0.05;
  local.fov = 2.0;
  (void)session.add_camera(local);
  EXPECT_EQ(session.cache().stats().carried_forward, 3u);

  const api::RegionAnswer ans = session.query_region(0.0, 1.0);
  EXPECT_EQ(ans.tiles_cached, 3u);    // carried clean tiles hit
  EXPECT_EQ(ans.tiles_computed, 1u);  // only the dirty tile re-evaluated
  expect_matches_fresh(session, 0.0, 1.0);

  // theta edits dirty nothing (theta is part of the tile key): all four
  // tiles carry forward, and the old-theta entries hit again on revert.
  const std::uint64_t carried_before = session.cache().stats().carried_forward;
  (void)session.set_theta(geom::kPi / 2.5);
  EXPECT_EQ(session.cache().stats().carried_forward, carried_before + 4u);
  (void)session.set_theta(kTheta);
  const api::RegionAnswer revert = session.query_region(0.0, 1.0);
  EXPECT_EQ(revert.tiles_cached, 4u);
  EXPECT_EQ(revert.tiles_computed, 0u);
}

TEST(ApiSession, LruEvictionAccounting) {
  // Capacity 2 under a 4-tile grid: the whole-grid query must evict.
  api::Session session = make_session(test_cameras(), kTheta, 2);
  const core::Network net(test_cameras());
  const core::DenseGrid grid(kSide);
  const core::RegionCoverageStats want = core::evaluate_region(net, grid, kTheta);

  const api::RegionAnswer first = session.query_region(0.0, 1.0);
  expect_same_stats(first.stats, want);
  const api::TileCacheStats& cs = session.cache().stats();
  EXPECT_EQ(cs.misses, 4u);
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.evictions, 2u);  // tiles 0 and 1 displaced by 2 and 3
  EXPECT_EQ(session.cache().size(), 2u);
  EXPECT_EQ(session.cache().capacity(), 2u);

  // The last two tiles (rows 16-31) survived; querying them is all hits.
  const api::RegionAnswer tail = session.query_region(0.55, 1.0);
  EXPECT_EQ(tail.tiles_cached, 2u);
  EXPECT_EQ(tail.tiles_computed, 0u);
  EXPECT_EQ(cs.hits, 2u);

  // A full re-query recomputes the evicted half yet folds identically.
  const api::RegionAnswer again = session.query_region(0.0, 1.0);
  EXPECT_EQ(again.tiles_computed, 2u);
  expect_same_stats(again.stats, want);
}

TEST(ApiSession, ConstructionAndQueryValidation) {
  EXPECT_THROW(make_session(test_cameras(), 0.0), std::invalid_argument);
  EXPECT_THROW(make_session(test_cameras(), geom::kPi + 0.1),
               std::invalid_argument);
  {
    api::SessionConfig cfg;
    cfg.cameras = test_cameras();
    cfg.tile_rows = 0;
    EXPECT_THROW(api::Session{std::move(cfg)}, std::invalid_argument);
  }
  api::Session session = make_session(test_cameras());
  EXPECT_THROW((void)session.query_region(0.6, 0.4), std::invalid_argument);
  EXPECT_THROW((void)session.remove_camera(session.camera_count()),
               std::out_of_range);
  EXPECT_THROW((void)session.move_camera(session.camera_count(),
                                         session.camera(0)),
               std::out_of_range);
  // A rejected edit leaves the session serving its previous deployment.
  const std::uint64_t base = session.digest();
  EXPECT_THROW((void)session.set_theta(-1.0), std::invalid_argument);
  EXPECT_EQ(session.digest(), base);
  EXPECT_EQ(session.theta(), kTheta);
}

TEST(TileCache, LookupInsertEvictAndClear) {
  api::TileCache cache(2);
  EXPECT_THROW(api::TileCache{0}, std::invalid_argument);

  const auto key = [](std::uint32_t row) {
    api::TileKey k;
    k.digest = 1;
    k.theta_bits = 2;
    k.k = 3;
    k.row_begin = row;
    k.row_end = row + 8;
    return k;
  };
  core::GridRowStats value;
  value.covered_1 = 11;
  core::GridRowStats out;
  EXPECT_FALSE(cache.lookup(key(0), out));
  cache.insert(key(0), value);
  value.covered_1 = 22;
  cache.insert(key(8), value);
  ASSERT_TRUE(cache.lookup(key(0), out));  // refreshes 0: LRU is now 8
  EXPECT_EQ(out.covered_1, 11u);
  value.covered_1 = 33;
  cache.insert(key(16), value);  // evicts 8, not the refreshed 0
  EXPECT_FALSE(cache.lookup(key(8), out));
  ASSERT_TRUE(cache.lookup(key(0), out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 2u);
  EXPECT_FALSE(cache.lookup(key(0), out));
}

TEST(TileCache, CarryForwardReKeysKeptTilesAndDropsDirtyOnes) {
  api::TileCache cache(8);
  api::TileKey k0;
  k0.digest = 10;
  k0.theta_bits = 77;
  k0.row_begin = 0;
  k0.row_end = 8;
  api::TileKey k1 = k0;
  k1.row_begin = 8;
  k1.row_end = 16;
  api::TileKey other = k0;  // different digest: untouched by the carry
  other.digest = 99;
  core::GridRowStats value;
  value.full_view_ok = 5;
  cache.insert(k0, value);
  cache.insert(k1, value);
  cache.insert(other, value);

  const std::size_t carried = cache.carry_forward(
      10, 20, [](std::size_t row_begin, std::size_t) { return row_begin >= 8; });
  EXPECT_EQ(carried, 1u);
  EXPECT_EQ(cache.stats().carried_forward, 1u);
  EXPECT_EQ(cache.size(), 2u);  // k0 dropped, k1 re-keyed, `other` kept

  core::GridRowStats out;
  api::TileKey k1_new = k1;
  k1_new.digest = 20;
  EXPECT_TRUE(cache.lookup(k1_new, out));
  EXPECT_EQ(out.full_view_ok, 5u);
  EXPECT_FALSE(cache.lookup(k1, out));    // old key gone
  EXPECT_FALSE(cache.lookup(k0, out));    // dirty tile gone
  EXPECT_TRUE(cache.lookup(other, out));  // foreign digest untouched
  // Dropping a dirty tile is invalidation, not displacement.
  EXPECT_EQ(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace fvc
