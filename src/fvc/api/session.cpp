#include "fvc/api/session.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "fvc/core/full_view.hpp"
#include "fvc/io/checkpoint.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/thread_pool.hpp"

namespace fvc::api {

namespace {

void append_f(std::string& s, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

/// Torus distance between two y coordinates in [0, 1).
double torus_dy(double a, double b) {
  const double d = std::fabs(a - b);
  return std::min(d, 1.0 - d);
}

}  // namespace

Session::Session(SessionConfig cfg)
    : cameras_(std::move(cfg.cameras)),
      theta_(cfg.theta),
      grid_(cfg.grid_side),
      tile_rows_(cfg.tile_rows),
      threads_(cfg.threads == 0 ? sim::default_thread_count() : cfg.threads),
      metrics_(cfg.metrics),
      progress_(std::move(cfg.progress)),
      cache_(cfg.cache_tiles) {
  core::validate_theta(theta_);
  if (tile_rows_ == 0) {
    throw std::invalid_argument("Session: tile_rows must be >= 1");
  }
  net_ = std::make_unique<core::Network>(cameras_);
  engine_ = std::make_unique<core::GridEvalEngine>(*net_, grid_, theta_);
  digest_ = compute_digest();
  if (metrics_ != nullptr) {
    engine_->describe(metrics_->child("engine"));
  }
}

std::uint64_t Session::compute_digest() const {
  // Content-derived canonical form: an edit sequence returning to a prior
  // deployment returns to its prior digest.  Doubles as %.17g (full
  // round-trip, the repo-wide convention), one line per camera in index
  // order — index order matters because remove/move address by index.
  std::string canon = "fvc.session/1\ngrid-side=";
  canon += std::to_string(grid_.side());
  canon += "\ntheta=";
  append_f(canon, theta_);
  canon += '\n';
  for (const core::Camera& cam : cameras_) {
    canon += "cam=";
    append_f(canon, cam.position.x);
    canon += ' ';
    append_f(canon, cam.position.y);
    canon += ' ';
    append_f(canon, cam.orientation);
    canon += ' ';
    append_f(canon, cam.radius);
    canon += ' ';
    append_f(canon, cam.fov);
    canon += ' ';
    canon += std::to_string(cam.group);
    canon += '\n';
  }
  return io::config_digest64(canon);
}

std::string Session::digest_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, digest_);
  return buf;
}

TileKey Session::key_for(std::size_t row_begin, std::size_t row_end) const {
  TileKey key;
  key.digest = digest_;
  key.theta_bits = std::bit_cast<std::uint64_t>(theta_);
  key.k = core::implied_k(theta_);
  key.row_begin = static_cast<std::uint32_t>(row_begin);
  key.row_end = static_cast<std::uint32_t>(row_end);
  return key;
}

PointAnswer Session::query_point(double x, double y) {
  const geom::Vec2 p{x, y};
  PointAnswer ans;
  // The scalar oracles — exactly what a one-shot CLI evaluation runs.
  const core::FullViewResult fv = core::full_view_covered(*net_, p, theta_);
  ans.covered = fv.covered;
  ans.max_gap = fv.max_gap;
  ans.covering_count = fv.covering_count;
  ans.necessary = core::meets_necessary_condition(*net_, p, theta_);
  ans.sufficient = core::meets_sufficient_condition(*net_, p, theta_);
  if (metrics_ != nullptr) {
    metrics_->add("point_queries", 1.0);
  }
  return ans;
}

void Session::query_points(const double* xs, const double* ys, std::size_t n,
                           PointAnswer* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const core::PointEval ev =
        engine_->eval_point({xs[i], ys[i]}, point_scratch_);
    out[i].covered = ev.full_view.covered;
    out[i].max_gap = ev.full_view.max_gap;
    out[i].covering_count = ev.full_view.covering_count;
    out[i].necessary = ev.necessary;
    out[i].sufficient = ev.sufficient;
  }
  if (metrics_ != nullptr) {
    metrics_->add("point_queries", static_cast<double>(n));
  }
}

RegionAnswer Session::query_region(double y_lo, double y_hi) {
  if (!(y_lo <= y_hi)) {
    throw std::invalid_argument("query_region: need y_lo <= y_hi");
  }
  y_lo = std::clamp(y_lo, 0.0, 1.0);
  y_hi = std::clamp(y_hi, 0.0, 1.0);
  const std::size_t side = grid_.side();

  // Rows whose cell center (row + 0.5) / side lies inside the strip.
  std::size_t first = side;
  std::size_t last = 0;
  for (std::size_t row = 0; row < side; ++row) {
    const double y = (static_cast<double>(row) + 0.5) / static_cast<double>(side);
    if (y_lo <= y && y <= y_hi) {
      first = std::min(first, row);
      last = row;
    }
  }
  RegionAnswer ans;
  if (first == side) {
    return ans;  // empty strip: zero rows, zero points
  }
  // Widen to whole cache tiles so the band partitions into cacheable
  // aligned blocks; the answer reports the rows actually evaluated.
  const std::size_t row_begin = (first / tile_rows_) * tile_rows_;
  const std::size_t row_end = std::min(side, ((last / tile_rows_) + 1) * tile_rows_);
  ans.row_begin = row_begin;
  ans.row_end = row_end;
  ans.tiles_total = (row_end - row_begin + tile_rows_ - 1) / tile_rows_;

  struct Tile {
    std::size_t begin = 0;
    std::size_t end = 0;
    core::GridRowStats stats;
    bool cached = false;
  };
  std::vector<Tile> tiles(ans.tiles_total);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    Tile& t = tiles[i];
    t.begin = row_begin + i * tile_rows_;
    t.end = std::min(row_end, t.begin + tile_rows_);
    t.cached = cache_.lookup(key_for(t.begin, t.end), t.stats);
    if (!t.cached) {
      missing.push_back(i);
    }
  }
  ans.tiles_cached = tiles.size() - missing.size();
  ans.tiles_computed = missing.size();

  if (!missing.empty()) {
    // Missing tiles batch into the SIMD kernel concurrently; each tile is
    // one engine block call, and the fold below stays in row order, so
    // scheduling cannot perturb the answer.
    const std::size_t workers =
        std::clamp<std::size_t>(threads_, 1, missing.size());
    std::vector<core::GridEvalScratch> scratches(workers);
    std::mutex progress_mutex;
    std::size_t done = ans.tiles_cached;
    sim::parallel_for_blocked(
        missing.size(), workers, 1,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          for (std::size_t m = begin; m < end; ++m) {
            Tile& t = tiles[missing[m]];
            t.stats = engine_->block_stats(t.begin, t.end, scratches[worker]);
            if (progress_) {
              const std::lock_guard<std::mutex> lock(progress_mutex);
              ++done;
              progress_(done, ans.tiles_total);
            }
          }
        });
    for (const std::size_t m : missing) {
      const Tile& t = tiles[m];
      cache_.insert(key_for(t.begin, t.end), t.stats);
    }
  }

  // Row-order fold over the band — the exact reduction of the serial scan
  // (GridRowStats::fold), so cached and computed tiles are
  // indistinguishable and a whole-grid query matches evaluate_region
  // bit-for-bit.
  core::GridRowStats acc;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    acc.fold(tiles[i].stats, i == 0);
  }
  ans.stats = acc.region((row_end - row_begin) * side);
  if (metrics_ != nullptr) {
    metrics_->add("region_queries", 1.0);
    metrics_->add("tiles_cached", static_cast<double>(ans.tiles_cached));
    metrics_->add("tiles_computed", static_cast<double>(ans.tiles_computed));
    const TileCacheStats& cs = cache_.stats();
    metrics_->set("cache_hits", static_cast<double>(cs.hits));
    metrics_->set("cache_misses", static_cast<double>(cs.misses));
    metrics_->set("cache_evictions", static_cast<double>(cs.evictions));
    metrics_->set("cache_carried_forward", static_cast<double>(cs.carried_forward));
    metrics_->set("cache_size", static_cast<double>(cache_.size()));
  }
  return ans;
}

bool Session::disk_reaches_rows(const core::Camera& cam, std::size_t row_begin,
                                std::size_t row_end) const {
  // Cell-center y span of the tile.  Coverage requires 2D distance
  // <= radius, and the torus y-distance lower-bounds it, so a tile whose
  // whole y span is further than the radius is provably untouched.
  const double side = static_cast<double>(grid_.side());
  const double lo = (static_cast<double>(row_begin) + 0.5) / side;
  const double hi = (static_cast<double>(row_end - 1) + 0.5) / side;
  const double y = cam.position.y;
  const double dy =
      (lo <= y && y <= hi) ? 0.0 : std::min(torus_dy(y, lo), torus_dy(y, hi));
  return dy <= cam.radius;
}

void Session::rebuild_and_carry(const std::vector<core::Camera>& touched) {
  const std::uint64_t old_digest = digest_;
  // Clone-on-edit: a fresh network and engine, never an in-place mutation
  // — a failed rebuild (invalid camera) must not leave the session
  // half-edited, so build both before committing.
  auto net = std::make_unique<core::Network>(cameras_);
  auto engine = std::make_unique<core::GridEvalEngine>(*net, grid_, theta_);
  net_ = std::move(net);
  engine_ = std::move(engine);
  digest_ = compute_digest();
  // Carry clean tiles across the edit.  Entries keep their own
  // theta_bits, so they stay truthful even across theta edits (and hit
  // again if theta returns); only tiles a touched camera can reach are
  // dropped.
  cache_.carry_forward(old_digest, digest_,
                       [&](std::size_t row_begin, std::size_t row_end) {
                         for (const core::Camera& cam : touched) {
                           if (disk_reaches_rows(cam, row_begin, row_end)) {
                             return false;
                           }
                         }
                         return true;
                       });
  if (metrics_ != nullptr) {
    metrics_->add("what_if_edits", 1.0);
  }
}

std::uint64_t Session::add_camera(const core::Camera& cam) {
  cameras_.push_back(cam);
  try {
    rebuild_and_carry({cam});
  } catch (...) {
    cameras_.pop_back();  // reject the edit, keep the session serving
    throw;
  }
  return digest_;
}

std::uint64_t Session::remove_camera(std::size_t index) {
  if (index >= cameras_.size()) {
    throw std::out_of_range("remove_camera: index out of range");
  }
  const core::Camera removed = cameras_[index];
  cameras_.erase(cameras_.begin() + static_cast<std::ptrdiff_t>(index));
  rebuild_and_carry({removed});
  return digest_;
}

std::uint64_t Session::move_camera(std::size_t index, const core::Camera& cam) {
  if (index >= cameras_.size()) {
    throw std::out_of_range("move_camera: index out of range");
  }
  const core::Camera before = cameras_[index];
  cameras_[index] = cam;
  try {
    rebuild_and_carry({before, cam});
  } catch (...) {
    cameras_[index] = before;
    throw;
  }
  return digest_;
}

std::uint64_t Session::set_theta(double theta) {
  core::validate_theta(theta);
  const double before = theta_;
  theta_ = theta;
  try {
    rebuild_and_carry({});  // theta is keyed per tile; no tile is dirtied
  } catch (...) {
    theta_ = before;
    throw;
  }
  return digest_;
}

}  // namespace fvc::api
