#include "fvc/core/grid_eval.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fvc/core/candidate_index.hpp"
#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/geometry/sector.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::core {

namespace {

/// Absolute ceiling on index cells per side, bounding the strip table and
/// the row slices' x-cell offsets for degenerate radii.  Far above any
/// radius the sizing rule meets in practice (it binds only below
/// max_radius ~ 5e-5); the per-grid 4 * side cap binds first on real
/// configurations.
constexpr std::size_t kAbsoluteMaxCells = 65535;

/// Unique id per engine instance; keys the per-scratch stream row slices
/// so a scratch can be handed from one engine to another (rebuilds, trial
/// loops) without serving a stale slice.  Starts at 1: a default
/// RowSlice's generation 0 never matches.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Vectorized classify entry point for a dispatched variant; nullptr for
/// the scalar variant (and, defensively, for variants this build lacks —
/// resolve_kernel already rejects those).
detail::ClassifyFn classify_for(KernelVariant v) {
  switch (v) {
    case KernelVariant::kGeneric:
      return &detail::classify_generic;
#if defined(FVC_KERNEL_AVX2)
    case KernelVariant::kAvx2:
      return &detail::classify_avx2;
#endif
#if defined(FVC_KERNEL_NEON)
    case KernelVariant::kNeon:
      return &detail::classify_neon;
#endif
    default:
      return nullptr;
  }
}

/// ccw_delta for inputs already normalized to [0, 2*pi).  Bit-identical to
/// `geom::ccw_delta(from, to)` on that domain: there, fmod is the identity
/// (|to - from| < 2*pi), so the only operations are the subtraction, the
/// conditional + 2*pi, and the wrap-to-zero guard — replicated here without
/// the fmod call.  tests/core/test_grid_eval.cpp checks the equivalence.
inline double ccw_from_normalized(double from, double to) {
  double d = to - from;
  if (d < 0.0) {
    d += geom::kTwoPi;
  }
  if (d >= geom::kTwoPi) {
    d = 0.0;
  }
  return d;
}

/// `sectors_all_hit` of the scalar oracle, over precomputed arcs and the
/// sorted angle buffer.  Arc containment is closed on both endpoints, as in
/// `geom::angle_in_arc` (width is clamped to [0, 2*pi] by construction, so
/// the oracle's width >= 2*pi fast path coincides with the comparison).
/// Exactness of the two-candidate test: split the directions at the arc
/// start s.  For d >= s the predicate value is fl(d - s), monotone in d, so
/// if any such d hits then the FIRST d >= s hits; for d < s it is
/// fl(fl(d - s) + 2*pi), also monotone, so if any such d hits then the
/// smallest direction hits.  Testing those two candidates with the exact
/// predicate therefore decides existence.  Partition arcs have ascending
/// starts, so the first-candidate cursor advances monotonically and the
/// whole check is one merged sweep.
inline bool arcs_all_hit(std::span<const double> sorted_dirs,
                         std::span<const geom::Arc> arcs) {
  if (sorted_dirs.empty()) {
    return arcs.empty();
  }
  const double front = sorted_dirs.front();
  std::size_t idx = 0;
  for (const geom::Arc& arc : arcs) {
    while (idx < sorted_dirs.size() && sorted_dirs[idx] < arc.start) {
      ++idx;
    }
    const bool hit = (idx < sorted_dirs.size() &&
                      ccw_from_normalized(arc.start, sorted_dirs[idx]) <= arc.width) ||
                     ccw_from_normalized(arc.start, front) <= arc.width;
    if (!hit) {
      return false;
    }
  }
  return true;
}

/// Largest circular gap of an already-sorted, normalized angle buffer.
/// Replicates `geom::max_circular_gap_info` (which normalizes — a no-op on
/// [0, 2*pi) inputs — sorts a copy, and scans) without the copy.
struct SortedGap {
  double width = geom::kTwoPi;
  double after = 0.0;
  bool has_after = false;
};

inline SortedGap max_gap_sorted(std::span<const double> sorted_dirs) {
  if (sorted_dirs.empty()) {
    return {};
  }
  SortedGap g;
  g.width = geom::kTwoPi - (sorted_dirs.back() - sorted_dirs.front());
  g.after = sorted_dirs.back();
  g.has_after = true;
  for (std::size_t i = 0; i + 1 < sorted_dirs.size(); ++i) {
    const double gap = sorted_dirs[i + 1] - sorted_dirs[i];
    if (gap > g.width) {
      g.width = gap;
      g.after = sorted_dirs[i];
    }
  }
  return g;
}

inline FullViewResult full_view_from_sorted(std::span<const double> sorted_dirs,
                                            double theta) {
  FullViewResult res;
  res.covering_count = sorted_dirs.size();
  const SortedGap gap = max_gap_sorted(sorted_dirs);
  res.max_gap = gap.width;
  res.covered = !sorted_dirs.empty() && gap.width <= 2.0 * theta;
  if (!res.covered) {
    if (gap.has_after) {
      res.witness_unsafe_direction = geom::normalize_angle(gap.after + 0.5 * gap.width);
    } else {
      res.witness_unsafe_direction = 0.0;
    }
  }
  return res;
}

/// One candidate's scalar classification against a point.
struct EntryClass {
  double dx = 0.0;  ///< unwrapped displacement point - camera
  double dy = 0.0;
  double n2 = 0.0;  ///< squared distance
  bool covered = false;
  bool band_hit = false;  ///< decided by the exact-arithmetic fallback
};

/// The engine's scalar classify: the one definition of its coverage
/// arithmetic, which the lane template in grid_eval_kernel.hpp replicates
/// operation for operation.  Displacement via the per-point torus unwrap
/// (the subtraction, `d -= round(d)`, and the d >= 0.5 boundary fixup are
/// `geom::wrap_delta` bit-for-bit; wrap_delta's d < -0.5 fixup is dead
/// code, since a round-to-nearest remainder lies in [-0.5, +0.5]), hence
/// bit-identical to geom::displacement; then the radius test on the
/// squared distance and the trig-free field-of-view classifier — the
/// real-math condition
///     angular_distance(angle(d), orientation) <= fov/2
///       <=>  dot(d, u) >= |d| * cos(fov/2)        (u = unit orientation)
///       <=>  dot*|dot| >= q * |d|^2               (x*|x| is monotone)
/// decided outside a 1e-9 relative band around the threshold.  Inside the
/// band the scalar oracle's exact arithmetic decides (a point at the
/// camera itself is covered), so the covered SET always matches `covers`.
template <class View>
inline EntryClass classify_scalar(const View& view, std::size_t e, const geom::Vec2& p,
                                  bool torus, std::span<const Camera> cams) {
  EntryClass c;
  c.dx = p.x - view.sx()[e];
  c.dy = p.y - view.sy()[e];
  if (torus) {
    c.dx -= std::round(c.dx);
    if (c.dx >= 0.5) {
      c.dx -= 1.0;
    }
    c.dy -= std::round(c.dy);
    if (c.dy >= 0.5) {
      c.dy -= 1.0;
    }
  }
  c.n2 = c.dx * c.dx + c.dy * c.dy;
  const double dot = c.dx * view.cu()[e] + c.dy * view.su()[e];
  const double lhs = dot * std::abs(dot);
  const double rhs = view.q()[e] * c.n2;
  const double band = 1e-9 * c.n2;
  const bool in_radius = c.n2 <= view.r2()[e];
  const bool omni = std::bit_cast<std::uint64_t>(view.omni()[e]) != 0;
  c.covered = in_radius & (omni | (lhs - rhs > band));
  c.band_hit = in_radius & !omni & (std::abs(lhs - rhs) <= band);
  if (c.band_hit) [[unlikely]] {
    if (c.n2 == 0.0) {
      c.covered = true;  // point coincides with the camera
    } else {
      const Camera& cam = cams[view.ids[e]];
      c.covered = geom::angular_distance(std::atan2(c.dy, c.dx), cam.orientation) <=
                  0.5 * cam.fov;
    }
  }
  return c;
}

}  // namespace

void GridRowStats::fold(const GridRowStats& next, bool first) {
  covered_1 += next.covered_1;
  necessary_ok += next.necessary_ok;
  full_view_ok += next.full_view_ok;
  sufficient_ok += next.sufficient_ok;
  k_covered_ok += next.k_covered_ok;
  if (first) {
    min_max_gap = next.min_max_gap;
    max_max_gap = next.max_max_gap;
  } else {
    min_max_gap = std::min(min_max_gap, next.min_max_gap);
    max_max_gap = std::max(max_max_gap, next.max_max_gap);
  }
}

RegionCoverageStats GridRowStats::region(std::size_t total_points) const {
  RegionCoverageStats stats;
  stats.total_points = total_points;
  stats.covered_1 = covered_1;
  stats.necessary_ok = necessary_ok;
  stats.full_view_ok = full_view_ok;
  stats.sufficient_ok = sufficient_ok;
  stats.k_covered_ok = k_covered_ok;
  stats.min_max_gap = min_max_gap;
  stats.max_max_gap = max_max_gap;
  return stats;
}

void GridEvalCounters::describe(obs::MetricsNode& node) const {
  node.add("points", static_cast<double>(points));
  node.add("candidates_total", static_cast<double>(candidates_total));
  node.add("directions_total", static_cast<double>(directions_total));
  node.add("trig_fallbacks", static_cast<double>(trig_fallbacks));
  node.histogram("candidates_per_point").merge(candidates_per_point);
}

GridEvalEngine::GridEvalEngine(const Network& net, const DenseGrid& grid, double theta)
    : net_(&net), grid_(grid), theta_(theta) {
  validate_theta(theta);
  implied_k_ = implied_k(theta);
  mode_ = net.mode();
  kernel_ = resolve_kernel();
  classify_ = classify_for(kernel_);
  note_kernel_dispatch(kernel_);
  generation_ = next_generation();
  necessary_arcs_ = geom::sector_partition(2.0 * theta);
  sufficient_arcs_ = geom::sector_partition(theta);
  const obs::TraceScope scope("engine.build", obs::TraceCategory::kEngine,
                              "cameras", net.size());
  const std::uint64_t t0 = obs::monotonic_ns();
  compute_cells();
  build_index();
  build_ns_ = obs::monotonic_ns() - t0;
}

void GridEvalEngine::CandSoA::resize(std::size_t n) {
  stride = n;
  data.resize(7 * n);
}

GridEvalEngine::BinOccupancy GridEvalEngine::occupancy() const {
  BinOccupancy occ;
  auto tally = [&occ](std::size_t count) {
    if (count == 0) {
      ++occ.empty_cells;
    }
    occ.max_per_cell = std::max(occ.max_per_cell, count);
  };
  // Bins are the y strips: the build-time structure (row slices are
  // per-scratch and transient).
  occ.cells = cells_;
  occ.entries = strip_entries_.size();
  for (std::size_t s = 0; s < cells_; ++s) {
    tally(strip_offsets_[s + 1] - strip_offsets_[s]);
  }
  occ.mean_per_cell = occ.cells == 0
                          ? 0.0
                          : static_cast<double>(occ.entries) /
                                static_cast<double>(occ.cells);
  return occ;
}

std::size_t GridEvalEngine::index_bytes() const {
  const std::size_t u32 = sizeof(std::uint32_t);
  return strip_offsets_.size() * u32 + strip_entries_.size() * u32 +
         cam_soa_.data.size() * sizeof(double);
}

void GridEvalEngine::describe(obs::MetricsNode& node) const {
  const BinOccupancy occ = occupancy();
  node.set("cameras", static_cast<double>(net_->size()));
  node.set("grid_side", static_cast<double>(grid_.side()));
  node.set("cells_per_side", static_cast<double>(cells_));
  node.set("cells_target", static_cast<double>(cells_target_));
  node.set("cells_clamped", cells_clamped_ ? 1.0 : 0.0);
  node.set("index_bytes", static_cast<double>(index_bytes()));
  node.set("bin_cells", static_cast<double>(occ.cells));
  node.set("bin_entries", static_cast<double>(occ.entries));
  node.set("bin_empty_cells", static_cast<double>(occ.empty_cells));
  node.set("bin_max_per_cell", static_cast<double>(occ.max_per_cell));
  node.set("bin_mean_per_cell", occ.mean_per_cell);
  // The engine's own span covers construction; evaluation time is merged
  // in by the caller (it is per scratch, not per engine).
  node.add_elapsed_ns(build_ns_);
  node.child("build").add_elapsed_ns(build_ns_);
  describe_kernel_dispatch(kernel_, node);
}

void describe_kernel_dispatch(KernelVariant active, obs::MetricsNode& node) {
  node.set("kernel_lanes", static_cast<double>(kernel_lanes(active)));
  node.set(std::string("kernel_") += kernel_name(active), 1.0);
  obs::MetricsNode& disp = node.child("kernel_dispatch");
  for (std::size_t i = 0; i < kKernelVariantCount; ++i) {
    const auto v = static_cast<KernelVariant>(i);
    disp.set(std::string("engines_") += kernel_name(v),
             static_cast<double>(kernel_dispatch_count(v)));
  }
}

void GridEvalEngine::compute_cells() {
  if (net_->cameras().size() > static_cast<std::size_t>(~std::uint32_t{0})) {
    throw std::invalid_argument("GridEvalEngine: too many cameras");
  }
  // Cell sizing: correctness is set-based (every candidate span is a
  // superset of the covering cameras), so the cell count only trades build
  // cost against candidate-list tightness.  Cells of about a third of the
  // sensing radius keep the per-point candidate list within ~1.5x of the
  // true in-radius count; the caps bound construction cost on tiny grids
  // and degenerate radii.
  const double r = std::max(net_->max_radius(), kMinSizingRadius);
  cells_target_ = static_cast<std::size_t>(std::ceil(kCellsPerRadius / r));
  const std::size_t cap = std::min<std::size_t>(
      kAbsoluteMaxCells, 4 * std::max<std::size_t>(1, grid_.side()));
  cells_ = std::clamp<std::size_t>(cells_target_, 1, cap);
  if (net_->cameras().empty()) {
    cells_ = 1;
  }
  cells_clamped_ = cells_ < cells_target_;
}

void GridEvalEngine::build_index() {
  const std::span<const Camera> cams = net_->cameras();
  const std::size_t n = cams.size();
  max_r_ = net_->max_radius();
  const auto sd = static_cast<double>(cells_);
  // Cameras are binned ONCE by position — no replication, so the build is
  // O(n) and entry count equals the camera count.  Candidate windows are
  // materialised per grid row into the scratch's slice (build_row_slice).
  strip_offsets_.assign(cells_ + 1, 0);
  strip_entries_.resize(n);
  std::vector<std::uint32_t> strip(n);
  for (std::size_t i = 0; i < n; ++i) {
    strip[i] = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(cams[i].position.y, 0.0) * sd),
        cells_ - 1));
    ++strip_offsets_[strip[i] + 1];
  }
  for (std::size_t s = 0; s < cells_; ++s) {
    strip_offsets_[s + 1] += strip_offsets_[s];
  }
  std::vector<std::uint32_t> cursor(strip_offsets_.begin(), strip_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    strip_entries_[cursor[strip[i]]++] = static_cast<std::uint32_t>(i);
  }
  // One fused-kernel record per camera, written as seven sequential field
  // streams.  The omni marker is an all-bits-set double so the lane kernel
  // can OR it straight into its comparison masks; it is never used
  // arithmetically.
  const double omni_mask = std::bit_cast<double>(~std::uint64_t{0});
  cam_soa_.resize(n);
  double* const f_sx = cam_soa_.mut(0);
  double* const f_sy = cam_soa_.mut(1);
  double* const f_r2 = cam_soa_.mut(2);
  double* const f_cu = cam_soa_.mut(3);
  double* const f_su = cam_soa_.mut(4);
  double* const f_q = cam_soa_.mut(5);
  double* const f_om = cam_soa_.mut(6);
  for (std::size_t i = 0; i < n; ++i) {
    const Camera& cam = cams[i];
    f_sx[i] = cam.position.x;
    f_sy[i] = cam.position.y;
    f_r2[i] = cam.radius * cam.radius;
    f_cu[i] = std::cos(cam.orientation);
    f_su[i] = std::sin(cam.orientation);
    const double chs = std::cos(0.5 * cam.fov);
    f_q[i] = chs * std::abs(chs);
    f_om[i] = 0.5 * cam.fov >= geom::kPi ? omni_mask : 0.0;
  }
  // Slice window geometry.  The per-point x window is the real interval
  // [px - R, px + R] padded by one cell per side; the pad (>= 1/cells_)
  // swallows every floor-rounding discrepancy between the kernel's wrapped
  // fl displacement and the real-valued window, so any camera the kernel
  // can accept lies inside the window.  On the torus, `ghost_` extra cell
  // columns per slice side hold a second image of near-seam cameras; a
  // window then never contains both images of one camera (they are exactly
  // cells_ ext-cells apart, and the window is at most 2*ghost_ + 1 <
  // cells_ cells wide) — unless the band is too wide, in which case
  // `whole_row_` degrades every window to the whole slice (still
  // duplicate-free: one image per camera).
  ghost_ = static_cast<std::ptrdiff_t>(std::floor(max_r_ * sd)) + 2;
  whole_row_ = 2.0 * max_r_ + 2.0 / sd >= 1.0 ||
               static_cast<std::ptrdiff_t>(cells_) <= 2 * ghost_ + 2;
  if (mode_ == geom::SpaceMode::kPlane) {
    // No wraparound coverage: windows clamp to [0, cells_) instead.
    ghost_ = 0;
    whole_row_ = false;
  }
}

void GridEvalEngine::gather_y_band(double y, std::vector<std::uint32_t>& out) const {
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const auto sd = static_cast<double>(cells_);
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  // Walk the strips whose cameras could be within max_r_ of y (padded one
  // strip per side; the per-camera prune decides exactly).
  std::ptrdiff_t s_lo = static_cast<std::ptrdiff_t>(std::floor((y - max_r_) * sd)) - 1;
  std::ptrdiff_t s_hi = static_cast<std::ptrdiff_t>(std::floor((y + max_r_) * sd)) + 1;
  std::ptrdiff_t s_span;
  if (torus) {
    s_span = std::min(s_hi - s_lo + 1, s_count);
  } else {
    s_lo = std::clamp<std::ptrdiff_t>(s_lo, 0, s_count - 1);
    s_hi = std::clamp<std::ptrdiff_t>(s_hi, 0, s_count - 1);
    s_span = s_hi - s_lo + 1;
  }
  const double* const cam_sy = cam_soa_.sy();
  const double* const cam_r2 = cam_soa_.r2();
  for (std::ptrdiff_t is = 0; is < s_span; ++is) {
    const auto s =
        static_cast<std::size_t>((((s_lo + is) % s_count) + s_count) % s_count);
    const std::uint32_t lo = strip_offsets_[s];
    const std::uint32_t hi = strip_offsets_[s + 1];
    for (std::uint32_t e = lo; e < hi; ++e) {
      const std::uint32_t cam = strip_entries_[e];
      // Exact y prune, using the kernel's own displacement sequence: the
      // fused distance test satisfies fl(fl(dx^2) + fl(dy^2)) >= fl(dy^2)
      // (rounding is monotone, fl(dx^2) >= 0), so fl(dy^2) > r^2 implies
      // the kernel rejects this camera at every point at this y — dropping
      // it cannot change any covered set.
      double dy = y - cam_sy[cam];
      if (torus) {
        dy -= std::round(dy);
        if (dy >= 0.5) {
          dy -= 1.0;
        }
      }
      if (dy * dy > cam_r2[cam]) {
        continue;
      }
      out.push_back(cam);
    }
  }
}

void GridEvalEngine::build_row_slice(std::size_t row, GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  const double py = grid_.point(row, 0).y;
  const auto s_count = static_cast<std::ptrdiff_t>(cells_);
  const auto sd = static_cast<double>(cells_);
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  // 1. The cameras whose disc can reach the row's y.
  std::vector<std::uint32_t>& surv = sl.survivors;
  surv.clear();
  gather_y_band(py, surv);
  // 2. Bucket survivors by extended x cell (main image + at most one ghost
  //    image per seam side) so every point window is one contiguous,
  //    duplicate-free range.
  const std::ptrdiff_t g = (torus && !whole_row_) ? ghost_ : 0;
  const std::size_t ecells = whole_row_ ? 1 : cells_ + static_cast<std::size_t>(2 * g);
  sl.offsets.assign(ecells + 1, 0);
  const double* const cam_sx = cam_soa_.sx();
  auto xcell_of = [&](std::uint32_t cam) {
    return static_cast<std::ptrdiff_t>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(cam_sx[cam], 0.0) * sd), cells_ - 1));
  };
  if (whole_row_) {
    sl.offsets[1] = static_cast<std::uint32_t>(surv.size());
    sl.ids.assign(surv.begin(), surv.end());
  } else {
    for (const std::uint32_t cam : surv) {
      const std::ptrdiff_t cx = xcell_of(cam);
      ++sl.offsets[static_cast<std::size_t>(cx + g) + 1];
      if (g != 0 && cx < g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g + s_count) + 1];
      }
      if (g != 0 && cx >= s_count - g) {
        ++sl.offsets[static_cast<std::size_t>(cx + g - s_count) + 1];
      }
    }
    for (std::size_t b = 0; b < ecells; ++b) {
      sl.offsets[b + 1] += sl.offsets[b];
    }
    sl.ids.resize(sl.offsets[ecells]);
    sl.cursors.assign(sl.offsets.begin(), sl.offsets.end() - 1);
    for (const std::uint32_t cam : surv) {
      const std::ptrdiff_t cx = xcell_of(cam);
      sl.ids[sl.cursors[static_cast<std::size_t>(cx + g)]++] = cam;
      if (g != 0 && cx < g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g + s_count)]++] = cam;
      }
      if (g != 0 && cx >= s_count - g) {
        sl.ids[sl.cursors[static_cast<std::size_t>(cx + g - s_count)]++] = cam;
      }
    }
  }
  // 3. Gather the slice's compact SoA from the per-camera pool, field by
  //    field (sequential writes, one random-read stream per field).
  const std::size_t total = sl.ids.size();
  sl.stride = total;
  sl.soa.resize(7 * total);
  for (std::size_t f = 0; f < 7; ++f) {
    double* const dst = sl.soa.data() + f * total;
    const double* const src = cam_soa_.data.data() + f * cam_soa_.stride;
    for (std::size_t w = 0; w < total; ++w) {
      dst[w] = src[sl.ids[w]];
    }
  }
  sl.engine_gen = generation_;
  sl.row = row;
}

GridEvalEngine::CandView GridEvalEngine::point_view(std::size_t row,
                                                    const geom::Vec2& p,
                                                    GridEvalScratch& scratch) const {
  GridEvalScratch::RowSlice& sl = scratch.slice;
  if (sl.engine_gen != generation_ || sl.row != row) {
    build_row_slice(row, scratch);
  }
  std::size_t lo = 0;
  std::size_t hi = 0;
  if (whole_row_) {
    hi = sl.ids.size();
  } else {
    const auto sd = static_cast<double>(cells_);
    std::ptrdiff_t xlo =
        static_cast<std::ptrdiff_t>(std::floor((p.x - max_r_) * sd)) - 1;
    std::ptrdiff_t xhi =
        static_cast<std::ptrdiff_t>(std::floor((p.x + max_r_) * sd)) + 1;
    if (mode_ == geom::SpaceMode::kPlane) {
      xlo = std::clamp<std::ptrdiff_t>(xlo, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
      xhi = std::clamp<std::ptrdiff_t>(xhi, 0, static_cast<std::ptrdiff_t>(cells_) - 1);
    } else {
      xlo += ghost_;
      xhi += ghost_;
    }
    lo = sl.offsets[static_cast<std::size_t>(xlo)];
    hi = sl.offsets[static_cast<std::size_t>(xhi) + 1];
  }
  return {sl.soa.data() + lo, sl.stride, sl.ids.data() + lo, hi - lo};
}

std::span<const std::uint32_t> GridEvalEngine::candidates(const geom::Vec2& p) const {
  // No per-point table exists: answer from the strip index with the exact
  // y prune at p (so every covering camera survives).  Unfiltered in x —
  // still a duplicate-free superset, each camera is binned exactly once.
  static thread_local std::vector<std::uint32_t> buf;
  buf.clear();
  gather_y_band(p.y, buf);
  return {buf.data(), buf.size()};
}

std::size_t GridEvalEngine::point_candidate_count(std::size_t row, std::size_t col,
                                                  GridEvalScratch& scratch) const {
  return point_view(row, grid_.point(row, col), scratch).count;
}

void GridEvalEngine::classify_entry(const CandView& view, std::size_t e,
                                    const geom::Vec2& p, GridEvalScratch& scratch,
                                    std::vector<double>& out, double* xs, double* ys,
                                    std::size_t& m) const {
  const EntryClass c =
      classify_scalar(view, e, p, mode_ == geom::SpaceMode::kTorus, net_->cameras());
  if (c.band_hit && scratch.counters != nullptr) [[unlikely]] {
    ++scratch.counters->trig_fallbacks;
  }
  if (c.covered & (c.n2 == 0.0)) [[unlikely]] {  // point at the camera
    out.push_back(0.0);
    return;
  }
  // Branchless compaction: always write, advance on coverage.
  xs[m] = c.dx;
  ys[m] = c.dy;
  m += static_cast<std::size_t>(c.covered);
}

void GridEvalEngine::gather_directions(const geom::Vec2& p, const CandView& view,
                                       GridEvalScratch& scratch) const {
  std::vector<double>& out = scratch.angles;
  const std::size_t cnt = view.count;
  // Metrics are per point (one pointer test), never per candidate.
  GridEvalCounters* const ctr = scratch.counters;
  const std::size_t out_before = out.size();
  if (ctr != nullptr) [[unlikely]] {
    ++ctr->points;
    ctr->candidates_total += cnt;
    ctr->candidates_per_point.add(cnt);
  }
  std::vector<double>& xs = scratch.dxs;
  std::vector<double>& ys = scratch.dys;
  if (xs.size() < cnt) {
    xs.resize(cnt);
    ys.resize(cnt);
  }
  std::size_t m = 0;
  std::size_t e = 0;
  // Lane-parallel classify over whole lane groups of the span's entries.
  // Lanes the kernel flags as special — exact-arithmetic band hits and
  // zero-distance hits — are replayed through the scalar path, which
  // re-derives their classification (and counters) exactly as the scalar
  // kernel would.
  if (classify_ != nullptr) {
    const std::size_t vec_n = cnt & ~std::size_t{3};
    if (vec_n != 0) {
      if (scratch.special.size() < cnt) {
        scratch.special.resize(cnt);
      }
      const detail::CandSpans spans{view.sx(), view.sy(), view.r2(), view.cu(),
                                    view.su(), view.q(), view.omni()};
      const detail::ClassifyResult res =
          classify_(spans, vec_n, p.x, p.y, mode_ == geom::SpaceMode::kTorus,
                    xs.data(), ys.data(), scratch.special.data());
      m = res.covered;
      for (std::size_t j = 0; j < res.special; ++j) {
        classify_entry(view, scratch.special[j], p, scratch, out, xs.data(),
                       ys.data(), m);
      }
      e = vec_n;
    }
  }
  // Scalar path: the whole span (scalar variant), or the remainder tail
  // (vector variants).
  for (; e < cnt; ++e) {
    classify_entry(view, e, p, scratch, out, xs.data(), ys.data(), m);
  }
  // atan2 (the single most expensive operation) runs in its own tight loop
  // over the ~covered survivors instead of stalling the classify pipeline.
  // The oracle's `normalize_angle(dir_sp + pi)` reduces to a branch because
  // fmod is the identity on [0, 2*pi).  One resize + raw writes, so the
  // loop carries no per-element capacity check.
  const std::size_t base = out.size();
  out.resize(base + m);
  double* const emit = out.data() + base;
  for (std::size_t j = 0; j < m; ++j) {
    const double v = std::atan2(ys[j], xs[j]) + geom::kPi;
    emit[j] = v >= geom::kTwoPi ? 0.0 : v;
  }
  if (ctr != nullptr) [[unlikely]] {
    ctr->directions_total += out.size() - out_before;
  }
}

std::size_t GridEvalEngine::covered_count_at_least(const geom::Vec2& p,
                                                   const CandView& view,
                                                   std::size_t k) const {
  // Coverage-count variant of gather_directions: same covered set, no
  // atan2 on the fast path, early exit at k.
  const std::span<const Camera> cams = net_->cameras();
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  std::size_t count = 0;
  for (std::size_t e = 0; e < view.count && count < k; ++e) {
    count += static_cast<std::size_t>(classify_scalar(view, e, p, torus, cams).covered);
  }
  return count;
}

std::span<const double> GridEvalEngine::sorted_directions(std::size_t row,
                                                          std::size_t col,
                                                          GridEvalScratch& scratch) const {
  scratch.angles.clear();
  const geom::Vec2 p = grid_.point(row, col);
  const CandView view = point_view(row, p, scratch);
  gather_directions(p, view, scratch);
  sort_directions(scratch);
  return scratch.angles;
}

void GridEvalEngine::sort_directions(GridEvalScratch& scratch) {
  std::vector<double>& a = scratch.angles;
  // Direction buffers are small (the point's covering-camera count), so
  // insertion sort beats std::sort's dispatch; the sorted sequence is the
  // same for any comparison sort (the values are NaN-free doubles in
  // [0, 2*pi)).  Mid-sized buffers get a 32-bucket counting presort first:
  // the bucket index floor(v * 32 / 2*pi) is monotone in v, so the scatter
  // leaves only intra-bucket inversions and the insertion pass runs in
  // near-linear time instead of n^2/4 moves.
  const std::size_t n = a.size();
  auto insertion = [](double* buf, std::size_t len) {
    for (std::size_t i = 1; i < len; ++i) {
      const double v = buf[i];
      std::size_t j = i;
      for (; j > 0 && buf[j - 1] > v; --j) {
        buf[j] = buf[j - 1];
      }
      buf[j] = v;
    }
  };
  if (n <= 12) {
    insertion(a.data(), n);
  } else if (n <= 48) {
    const double scale = 32.0 / geom::kTwoPi;
    unsigned cnt[33] = {0};
    unsigned bk[48];
    double tmp[48];
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = std::min(static_cast<unsigned>(a[i] * scale), 31U);
      bk[i] = b;
      ++cnt[b + 1];
    }
    for (std::size_t b = 0; b < 32; ++b) {
      cnt[b + 1] += cnt[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      tmp[cnt[bk[i]]++] = a[i];
    }
    std::copy(tmp, tmp + n, a.data());
    insertion(a.data(), n);
  } else {
    std::sort(a.begin(), a.end());
  }
}

GridEvalEngine::CandView GridEvalEngine::arbitrary_view(
    const geom::Vec2& p, GridEvalScratch& scratch) const {
  // `candidates(p)` prunes the strip bins by exact y distance — still a
  // duplicate-free superset of the covering set — and the per-id records
  // are copied field-by-field out of the per-camera pool, so the classify
  // pipeline sees the exact bits `build_index` wrote.
  const std::span<const std::uint32_t> ids = candidates(p);
  const std::size_t n = ids.size();
  scratch.point_ids.assign(ids.begin(), ids.end());
  scratch.point_soa.resize(7 * n);
  const std::size_t cam_stride = cam_soa_.stride;
  const double* const pool = cam_soa_.data.data();
  for (std::size_t f = 0; f < 7; ++f) {
    double* const dst = scratch.point_soa.data() + f * n;
    const double* const src = pool + f * cam_stride;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = src[scratch.point_ids[i]];
    }
  }
  return {scratch.point_soa.data(), n, scratch.point_ids.data(), n};
}

PointEval GridEvalEngine::eval_point(const geom::Vec2& p,
                                     GridEvalScratch& scratch) const {
  scratch.angles.clear();
  gather_directions(p, arbitrary_view(p, scratch), scratch);
  sort_directions(scratch);
  const std::span<const double> dirs = scratch.angles;
  PointEval res;
  res.full_view = full_view_from_sorted(dirs, theta_);
  res.necessary = arcs_all_hit(dirs, necessary_arcs_);
  res.sufficient = arcs_all_hit(dirs, sufficient_arcs_);
  return res;
}

FullViewResult GridEvalEngine::point_full_view(std::size_t row, std::size_t col,
                                               GridEvalScratch& scratch) const {
  return full_view_from_sorted(sorted_directions(row, col, scratch), theta_);
}

bool GridEvalEngine::point_necessary(std::size_t row, std::size_t col,
                                     GridEvalScratch& scratch) const {
  return arcs_all_hit(sorted_directions(row, col, scratch), necessary_arcs_);
}

bool GridEvalEngine::point_sufficient(std::size_t row, std::size_t col,
                                      GridEvalScratch& scratch) const {
  return arcs_all_hit(sorted_directions(row, col, scratch), sufficient_arcs_);
}

GridRowStats GridEvalEngine::row_stats(std::size_t row, GridEvalScratch& scratch) const {
  GridRowStats rs;
  bool first = true;
  for (std::size_t col = 0; col < cols(); ++col) {
    const std::span<const double> dirs = sorted_directions(row, col, scratch);
    if (!dirs.empty()) {
      ++rs.covered_1;
    }
    if (dirs.size() >= implied_k_) {
      ++rs.k_covered_ok;
    }
    const SortedGap gap = max_gap_sorted(dirs);
    if (!dirs.empty() && gap.width <= 2.0 * theta_) {
      ++rs.full_view_ok;
    }
    if (arcs_all_hit(dirs, necessary_arcs_)) {
      ++rs.necessary_ok;
    }
    if (arcs_all_hit(dirs, sufficient_arcs_)) {
      ++rs.sufficient_ok;
    }
    if (first) {
      rs.min_max_gap = rs.max_max_gap = gap.width;
      first = false;
    } else {
      rs.min_max_gap = std::min(rs.min_max_gap, gap.width);
      rs.max_max_gap = std::max(rs.max_max_gap, gap.width);
    }
  }
  return rs;
}

GridRowStats GridEvalEngine::block_stats(std::size_t row_begin, std::size_t row_end,
                                         GridEvalScratch& scratch) const {
  GridRowStats acc;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    acc.fold(row_stats(row, scratch), row == row_begin);
  }
  return acc;
}

RegionCoverageStats GridEvalEngine::evaluate(GridEvalScratch& scratch) const {
  const obs::TraceScope scope("engine.evaluate", obs::TraceCategory::kEngine,
                              "points", grid_.size(), "kernel_lanes",
                              kernel_lanes(kernel_));
  return block_stats(0, rows(), scratch).region(grid_.size());
}

GridRowEvents GridEvalEngine::row_events(std::size_t row, GridEvalScratch& scratch,
                                         bool need_full_view,
                                         bool need_sufficient) const {
  GridRowEvents ev;
  ev.all_full_view = need_full_view;
  ev.all_sufficient = need_sufficient;
  for (std::size_t col = 0; col < cols(); ++col) {
    const std::span<const double> dirs = sorted_directions(row, col, scratch);
    if (!arcs_all_hit(dirs, necessary_arcs_)) {
      return {false, false, false};
    }
    if (ev.all_full_view) {
      const SortedGap gap = max_gap_sorted(dirs);
      if (dirs.empty() || gap.width > 2.0 * theta_) {
        ev.all_full_view = false;
        ev.all_sufficient = false;  // sufficient implies full view
      }
    }
    if (ev.all_sufficient && !arcs_all_hit(dirs, sufficient_arcs_)) {
      ev.all_sufficient = false;
    }
  }
  return ev;
}

bool GridEvalEngine::row_all_necessary(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!arcs_all_hit(sorted_directions(row, col, scratch), necessary_arcs_)) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_sufficient(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    if (!arcs_all_hit(sorted_directions(row, col, scratch), sufficient_arcs_)) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_full_view(std::size_t row, GridEvalScratch& scratch) const {
  for (std::size_t col = 0; col < cols(); ++col) {
    const std::span<const double> dirs = sorted_directions(row, col, scratch);
    if (dirs.empty() || max_gap_sorted(dirs).width > 2.0 * theta_) {
      return false;
    }
  }
  return true;
}

bool GridEvalEngine::row_all_k_covered(std::size_t row, std::size_t k,
                                       GridEvalScratch& scratch) const {
  if (k == 0) {
    return true;
  }
  for (std::size_t col = 0; col < cols(); ++col) {
    const geom::Vec2 p = grid_.point(row, col);
    const CandView view = point_view(row, p, scratch);
    if (covered_count_at_least(p, view, k) < k) {
      return false;
    }
  }
  return true;
}

}  // namespace fvc::core
