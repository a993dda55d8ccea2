/// \file session.hpp
/// \brief The hot-engine coverage query facade behind `fvc serve`.
///
/// A Session answers repeated full-view queries against one deployment
/// without re-paying process launch, camera load, or CSR candidate
/// binning per question.  It owns a loaded `core::Network`, the
/// `core::GridEvalEngine` built from it, a content-derived deployment
/// digest, and an LRU cache of evaluated grid tiles (tile_cache.hpp).
///
/// Determinism contract (inherited, not new): every answer is
/// bit-identical to the equivalent one-shot evaluation of the same
/// deployment —
///   * `query_point` runs the scalar oracles (`full_view_covered`,
///     `meets_necessary_condition`, `meets_sufficient_condition`), the
///     same calls a fresh CLI process makes; `query_points`, which the
///     serve layer answers every point op through, is bit-identical to
///     it;
///   * `query_region` folds `GridEvalEngine::block_stats` tiles in row
///     order, replaying the serial reduction exactly (the contract of
///     sim/parallel_region.hpp), whether a tile came from the cache or
///     was just computed — so cache hits are unobservable in the answer.
///
/// What-if edits (add / move / remove a camera, change theta) are
/// clone-on-edit: the camera list is copied, a new Network and engine are
/// built, and the digest is recomputed from content — so an edit sequence
/// that returns to a prior deployment returns to its prior digest, and
/// stale cache entries can never be confused with current ones.  Cache
/// invalidation is scoped to *dirty* tiles: entries of the previous
/// digest are re-keyed to the new one unless the edited camera's sensing
/// disk can reach the tile's rows (a y-distance test, exact because
/// coverage needs 2D distance <= radius and the y-distance lower-bounds
/// it).
///
/// A Session is NOT thread-safe (queries mutate the cache and metrics);
/// the serve layer serializes access and keeps parallelism *inside* each
/// region query, where missing tiles are evaluated concurrently through
/// `sim::parallel_for_blocked` into the SIMD kernel.
///
/// The engine behind a session is an ordinary GridEvalEngine, so the
/// metrics node exported at construction carries the candidate index's
/// resolution (`cells_target` / `cells_clamped`) and heap footprint
/// (`index_bytes`).  Tile evaluation uses per-worker scratches, as batch
/// scans do; point queries classify their y band's pool slots in place.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fvc/core/camera.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"

#include "fvc/api/tile_cache.hpp"

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::api {

/// Construction-time knobs of a Session.
struct SessionConfig {
  std::vector<core::Camera> cameras;  ///< the deployment to serve
  double theta = geom::kHalfPi;       ///< effective angle, in (0, pi]
  std::size_t grid_side = 64;         ///< region-query grid resolution
  std::size_t tile_rows = 8;          ///< rows per cache tile (>= 1)
  std::size_t cache_tiles = 1024;     ///< LRU capacity, in tiles
  std::size_t threads = 0;            ///< workers per region query; 0 = auto
  /// Metrics destination (null = no collection).  Not owned.
  obs::MetricsNode* metrics = nullptr;
  /// Progress feed (tiles done / tiles total per region query) — the
  /// stall-watchdog hook.  Empty = no reporting.
  obs::ProgressFn progress;
};

/// Answer to a point query: the three predicates plus diagnostics,
/// bit-identical to the scalar oracles'.
struct PointAnswer {
  bool covered = false;     ///< exact full-view coverage (Definition 1)
  bool necessary = false;   ///< Section III sector condition
  bool sufficient = false;  ///< Section IV sector condition
  double max_gap = 0.0;     ///< largest circular gap of viewed directions
  std::size_t covering_count = 0;
};

/// Answer to a region query: coverage stats over the evaluated row band
/// plus cache effectiveness for this query.
struct RegionAnswer {
  core::RegionCoverageStats stats;
  std::size_t row_begin = 0;  ///< first evaluated grid row
  std::size_t row_end = 0;    ///< one past the last evaluated row
  std::size_t tiles_total = 0;
  std::size_t tiles_cached = 0;    ///< answered from the LRU cache
  std::size_t tiles_computed = 0;  ///< evaluated by the engine this call
};

/// The hot-engine facade.  See the file comment for the contract.
class Session {
 public:
  /// Builds the network, the engine and the digest up front.
  /// \throws std::invalid_argument on invalid cameras, theta outside
  /// (0, pi], grid_side/tile_rows/cache_tiles of 0.
  explicit Session(SessionConfig cfg);

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// The digest as the "0x%016x" string the wire format carries.
  [[nodiscard]] std::string digest_hex() const;
  [[nodiscard]] double theta() const { return theta_; }
  [[nodiscard]] std::size_t grid_side() const { return grid_.side(); }
  [[nodiscard]] std::size_t tile_rows() const { return tile_rows_; }
  [[nodiscard]] std::size_t camera_count() const { return cameras_.size(); }
  [[nodiscard]] const core::Camera& camera(std::size_t i) const {
    return cameras_.at(i);
  }
  [[nodiscard]] const TileCache& cache() const { return cache_; }
  /// Lifetime cache accounting — the single source for the serve
  /// telemetry plane and the CLI's end-of-run table.
  [[nodiscard]] const TileCacheStats& cache_stats() const { return cache_.stats(); }

  /// Scalar-oracle point query at (x, y) in [0, 1]^2.  The reference
  /// that the tests and perfbench's serve mirror compare served answers
  /// against; the serve layer itself answers through `query_points`.
  [[nodiscard]] PointAnswer query_point(double x, double y);

  /// Batched point queries: answer `n` points in one pass through the
  /// engine's fused kernel path (`GridEvalEngine::eval_point` — one
  /// candidate gather and one sort per point, SIMD classify, zero heap
  /// allocations after warm-up) into `out[0..n)`.  Every answer is
  /// bit-identical to `query_point` at the same coordinates; the scalar
  /// oracle path above stays as the differential reference.  This is the
  /// serve layer's only point path: the daemon's group-commit rounds
  /// amortise one call over a whole batch of concurrent clients' points,
  /// and `handle_query` answers `point` with n = 1.
  void query_points(const double* xs, const double* ys, std::size_t n,
                    PointAnswer* out);

  /// Region query over the horizontal strip [y_lo, y_hi] (clamped to
  /// [0, 1]; y_lo <= y_hi required).  The strip is resolved to the grid
  /// rows whose cell centers it contains, widened to whole cache tiles —
  /// the answer reports the rows actually evaluated.  [0, 1] evaluates
  /// the whole grid and is then bit-identical to
  /// `sim::evaluate_region_parallel` / `core::evaluate_region`.
  [[nodiscard]] RegionAnswer query_region(double y_lo, double y_hi);

  /// What-if edits.  Each clones the deployment, rebuilds network +
  /// engine, recomputes the digest, carries clean cache tiles forward,
  /// and returns the new digest.
  std::uint64_t add_camera(const core::Camera& cam);
  /// \throws std::out_of_range on a bad index
  std::uint64_t remove_camera(std::size_t index);
  /// Replace camera `index` (move and/or re-aim and/or re-spec).
  std::uint64_t move_camera(std::size_t index, const core::Camera& cam);
  std::uint64_t set_theta(double theta);

 private:
  /// Rebuild network/engine/digest after `cameras_`/`theta_` changed,
  /// then carry forward cache entries for which `keep_all` or the tile is
  /// out of reach of every camera in `touched` (y-disk test).
  void rebuild_and_carry(const std::vector<core::Camera>& touched);
  [[nodiscard]] std::uint64_t compute_digest() const;
  [[nodiscard]] TileKey key_for(std::size_t row_begin, std::size_t row_end) const;
  /// True when `cam`'s sensing disk can reach any cell-center row of
  /// [row_begin, row_end).
  [[nodiscard]] bool disk_reaches_rows(const core::Camera& cam,
                                       std::size_t row_begin,
                                       std::size_t row_end) const;

  std::vector<core::Camera> cameras_;
  double theta_;
  core::DenseGrid grid_;
  std::size_t tile_rows_;
  std::size_t threads_;
  obs::MetricsNode* metrics_;
  obs::ProgressFn progress_;

  std::unique_ptr<core::Network> net_;
  std::unique_ptr<core::GridEvalEngine> engine_;
  std::uint64_t digest_ = 0;
  TileCache cache_;
  /// Reused by `query_points` (the session is externally serialized, so
  /// one scratch suffices); engine rebuilds don't invalidate it — the
  /// buffers are sized on use and its row caches key by engine
  /// generation.
  core::GridEvalScratch point_scratch_;
};

}  // namespace fvc::api
