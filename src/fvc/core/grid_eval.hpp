/// \file grid_eval.hpp
/// \brief Batched grid-evaluation engine for the full-view hot path.
///
/// Every Monte-Carlo experiment reduces to evaluating the three full-view
/// predicates (sufficient => full-view => necessary) at every point of a
/// `DenseGrid`.  The scalar path does this one point at a time: a 3x3
/// bucket walk through the spatial index, a heap-allocated viewed-direction
/// vector, and three predicate calls that each rebuild their sector
/// partition and re-sort the directions.  This engine restructures that
/// work into a cache-friendly pipeline:
///
///   1. *Candidate indexing* — one pass over the cameras bins them by y
///      strip (candidate_index.hpp); each grid row then materialises a
///      compacted slice of the cameras that can reach it, bucketed by x
///      cell, so "which cameras might cover this point?" is one contiguous
///      span per grid point.  Every span is a superset of the covering
///      set, so results never depend on the index.
///   2. *Fused kernel* — per point, the viewed angles of covering cameras
///      are gathered into a reusable scratch buffer and sorted in place
///      once; the exact max-gap test and both sector conditions are then
///      evaluated from that same sorted buffer with zero per-point heap
///      allocations (sector partitions are precomputed per scan).
///   3. *Lane-parallel classify* — candidate records are stored as
///      structure-of-arrays spans and classified 4 lanes at a time by an
///      explicitly vectorized kernel (grid_eval_kernel.hpp) selected by
///      runtime CPU dispatch (cpu_features.hpp: scalar / generic / avx2 /
///      neon, pinnable via FVC_FORCE_KERNEL or the CLI's --kernel).  Lane
///      arithmetic replicates the scalar IEEE operation sequence exactly
///      (including the per-point torus unwrap, which is `geom::wrap_delta`
///      lane-for-lane); the remainder tail and exact-arithmetic band hits
///      reuse the scalar per-entry path, and atan2-bearing direction
///      emission stays scalar — so every variant is bit-identical
///      (enforced by tests/core/test_grid_eval_kernels).
///   4. *Row batching* — rows are independent work units, so callers can
///      evaluate them serially (`evaluate`), or hand contiguous row blocks
///      to `sim::parallel_for_blocked` via `block_stats` and merge the
///      per-block results in block order (`sim::evaluate_region_parallel`),
///      which keeps results bit-identical for any thread count and grain.
///      The index piggybacks on this shape: each worker's scratch caches
///      the current row's candidate slice, built once per (engine, row)
///      and reused across the row's points and across the blocks a worker
///      claims.
///
/// Determinism contract: for a fixed (network, grid, theta) every method is
/// a pure function of its arguments, and every result is **bit-identical**
/// to the scalar oracle (`full_view_covered`, `meets_necessary_condition`,
/// `meets_sufficient_condition`, `evaluate_region_scalar`) — the engine
/// gathers exactly the same set of covering cameras and replicates the
/// oracle's floating-point arithmetic.  `tests/core/test_grid_eval.cpp`
/// enforces this differentially over randomized deployments, and
/// `tests/core/test_candidate_index.cpp` over clustered deployments.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fvc/core/cpu_features.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/arc_set.hpp"
#include "fvc/obs/metrics.hpp"

namespace fvc::obs {
class MetricsNode;  // run_metrics.hpp; kept out of this hot header
}

namespace fvc::core {

namespace detail {
// grid_eval_kernel.hpp; kept out of this hot header.  The alias must
// match detail::ClassifyFn there (the structs may stay incomplete in a
// function-pointer type).
struct CandSpans;
struct ClassifyResult;
using ClassifyFn = ClassifyResult (*)(const CandSpans& c, std::size_t count,
                                      double px, double py, bool torus,
                                      double* xs, double* ys,
                                      std::uint32_t* special);
}  // namespace detail

/// Engine observability counters (see fvc/obs).  Attached to a scratch —
/// hence per worker thread, merged by the coordinating caller — so the
/// hot path stays synchronization-free.  When no counters are attached
/// the kernel pays one pointer test per grid *point*, never per
/// candidate, and results are unchanged either way (counting does not
/// touch the arithmetic).  `candidates_total` / `candidates_per_point`
/// describe the index's candidate spans (a superset of the covering set);
/// every other field depends only on the covering set.
struct GridEvalCounters {
  std::uint64_t points = 0;            ///< grid points gathered
  std::uint64_t candidates_total = 0;  ///< indexed candidates scanned
  std::uint64_t directions_total = 0;  ///< covering directions emitted
  std::uint64_t trig_fallbacks = 0;    ///< exact-arithmetic band fallbacks
  obs::LogHistogram candidates_per_point;

  void merge(const GridEvalCounters& other) {
    points += other.points;
    candidates_total += other.candidates_total;
    directions_total += other.directions_total;
    trig_fallbacks += other.trig_fallbacks;
    candidates_per_point.merge(other.candidates_per_point);
  }

  /// Export into a metrics node (counters plus the candidates-per-point
  /// histogram).
  void describe(obs::MetricsNode& node) const;
};

/// Reusable scratch buffers for the fused kernel.  One instance per worker
/// thread; after warm-up the kernel performs no heap allocations.
struct GridEvalScratch {
  std::vector<double> angles;  ///< sorted viewed directions of one point
  std::vector<double> dxs;     ///< displacements of covered candidates
  std::vector<double> dys;     ///< (compacted by the classify loop)
  /// Lane indices the vectorized kernel routes back to the scalar path
  /// (exact-arithmetic band hits, zero-distance hits).
  std::vector<std::uint32_t> special;
  /// Optional metrics destination; null (the default) disables counting.
  GridEvalCounters* counters = nullptr;

  /// Arbitrary-point candidate view: the compacted SoA records of the
  /// candidates near one off-lattice point, copied out of the per-camera
  /// pool, plus the parallel camera ids.  `eval_point` materialises these.
  std::vector<double> point_soa;
  std::vector<std::uint32_t> point_ids;

  /// Row slice: the compacted SoA of cameras whose disc can reach one
  /// grid row's y band, bucketed by extended x cell (ghost columns
  /// replicate near-seam cameras so every per-point window is one
  /// contiguous, duplicate-free range).  Built lazily, keyed by
  /// (engine generation, row) so a scratch can serve many engines and a
  /// worker revisits a row's slice for free across block_stats blocks.
  struct RowSlice {
    std::uint64_t engine_gen = 0;  ///< 0 = empty (generations start at 1)
    std::size_t row = 0;
    std::vector<double> soa;             ///< 7 field blocks, `stride` each
    std::size_t stride = 0;              ///< == total slice entries
    std::vector<std::uint32_t> ids;      ///< camera ids parallel to soa
    std::vector<std::uint32_t> offsets;  ///< per extended-x-cell CSR
    std::vector<std::uint32_t> cursors;  ///< build scratch: scatter cursors
    std::vector<std::uint32_t> survivors;  ///< build scratch: y-band hits
  };
  RowSlice slice;
};

/// Predicate aggregates over one grid row (the engine's unit of batching).
struct GridRowStats {
  std::size_t covered_1 = 0;
  std::size_t necessary_ok = 0;
  std::size_t full_view_ok = 0;
  std::size_t sufficient_ok = 0;
  std::size_t k_covered_ok = 0;
  double min_max_gap = 0.0;  ///< over the row's points
  double max_max_gap = 0.0;

  /// Fold `next` — the stats of the rows that follow, in scan order — into
  /// this: counts add, and the gap extremes start from the first folded
  /// value (`first`) then take min/max.  The one reduction behind serial,
  /// blocked and cached scans: folding the per-block results of any row
  /// partition in block order replays the row-order fold exactly, which
  /// is the bit-identity contract between them.
  void fold(const GridRowStats& next, bool first);

  /// The region-level view of a fold over `total_points` points.
  [[nodiscard]] RegionCoverageStats region(std::size_t total_points) const;
};

/// Fused three-predicate answer at one (possibly off-lattice) point.
struct PointEval {
  FullViewResult full_view;
  bool necessary = false;
  bool sufficient = false;
};

/// Early-exit event bits of one row, mirroring `run_trial_events`.
struct GridRowEvents {
  bool all_necessary = true;
  bool all_full_view = true;
  bool all_sufficient = true;
};

/// The batched engine.  Holds a reference to the network; the network (and
/// the grid's dimensions) must outlive the engine.
class GridEvalEngine {
 public:
  /// Precompute sector partitions and build the candidate index.
  /// \pre theta in (0, pi] (throws std::invalid_argument otherwise)
  GridEvalEngine(const Network& net, const DenseGrid& grid, double theta);

  [[nodiscard]] std::size_t rows() const { return grid_.side(); }
  [[nodiscard]] std::size_t cols() const { return grid_.side(); }
  [[nodiscard]] double theta() const { return theta_; }

  /// Gather the viewed directions of cameras covering grid point
  /// (row, col) into `scratch.angles`, sorted ascending.  The returned span
  /// aliases the scratch buffer and is invalidated by the next call.
  std::span<const double> sorted_directions(std::size_t row, std::size_t col,
                                            GridEvalScratch& scratch) const;

  /// Exact full-view result at one grid point; bit-identical to
  /// `full_view_covered(net, grid.point(row, col), theta)`.
  [[nodiscard]] FullViewResult point_full_view(std::size_t row, std::size_t col,
                                               GridEvalScratch& scratch) const;

  /// Sector conditions at one grid point; bit-identical to the
  /// `meets_*_condition(net, p, theta)` oracles (start_line = 0).
  [[nodiscard]] bool point_necessary(std::size_t row, std::size_t col,
                                     GridEvalScratch& scratch) const;
  [[nodiscard]] bool point_sufficient(std::size_t row, std::size_t col,
                                      GridEvalScratch& scratch) const;

  /// All predicates fused over one row.  \pre row < rows()
  [[nodiscard]] GridRowStats row_stats(std::size_t row, GridEvalScratch& scratch) const;

  /// All predicates fused over the contiguous row block
  /// [row_begin, row_end), reduced in row order — so folding the per-block
  /// results of a partition of [0, rows()) in block order replays the
  /// serial scan's reduction exactly (the blocked scheduler's bit-identity
  /// contract; see sim/parallel_region.hpp).  One engine call per block
  /// keeps the parallel scan's callback cost at one indirection per block
  /// rather than per row.  \pre row_begin < row_end <= rows()
  [[nodiscard]] GridRowStats block_stats(std::size_t row_begin, std::size_t row_end,
                                         GridEvalScratch& scratch) const;

  /// All predicates fused over the whole grid (serial row loop).
  /// Bit-identical to `evaluate_region_scalar`.
  [[nodiscard]] RegionCoverageStats evaluate(GridEvalScratch& scratch) const;

  /// Early-exit event evaluation of one row.  Returns immediately on the
  /// first necessary-condition failure (with every bit false, matching the
  /// trial semantics: the necessary condition is necessary, so nothing can
  /// hold).  `need_full_view` / `need_sufficient` skip predicates the
  /// caller has already falsified on earlier rows.
  [[nodiscard]] GridRowEvents row_events(std::size_t row, GridEvalScratch& scratch,
                                         bool need_full_view,
                                         bool need_sufficient) const;

  /// Early-exit single-predicate row scans backing the `grid_all_*` API.
  [[nodiscard]] bool row_all_necessary(std::size_t row, GridEvalScratch& scratch) const;
  [[nodiscard]] bool row_all_sufficient(std::size_t row, GridEvalScratch& scratch) const;
  [[nodiscard]] bool row_all_full_view(std::size_t row, GridEvalScratch& scratch) const;

  /// True when every point of the row is covered by at least `k` cameras.
  /// Counts coverage only (no angle gathering), with per-point early exit.
  [[nodiscard]] bool row_all_k_covered(std::size_t row, std::size_t k,
                                       GridEvalScratch& scratch) const;

  /// All three predicates at an arbitrary point `p` in [0, 1]^2 — one
  /// candidate gather and one sort feed the gap scan and both sector
  /// conditions.  Bit-identical to the scalar oracles
  /// (`full_view_covered`, `meets_necessary_condition`,
  /// `meets_sufficient_condition`) at the same point: the candidate span
  /// is a duplicate-free superset of the covering set for *any* point
  /// (not just cell centers), the per-entry classify replicates the
  /// oracle's IEEE operation sequence, and the predicates are functions
  /// of the covered direction set alone.  This is the serve daemon's
  /// batched point-query path (api::Session::query_points).
  [[nodiscard]] PointEval eval_point(const geom::Vec2& p,
                                     GridEvalScratch& scratch) const;

  /// Candidate camera indices for the point `p` — a duplicate-free
  /// superset of the cameras covering `p` (pruned by y distance only).
  /// The span aliases a thread-local buffer and is invalidated by the next
  /// call on the same thread.
  [[nodiscard]] std::span<const std::uint32_t> candidates(const geom::Vec2& p) const;

  /// Exact candidate-span width the index hands the kernel for
  /// grid point (row, col) — the per-point cost the candidates-per-point
  /// budget gates (tools/bench_scale).
  [[nodiscard]] std::size_t point_candidate_count(std::size_t row, std::size_t col,
                                                  GridEvalScratch& scratch) const;

  /// Index resolution per side (diagnostics / tests): the y strips and
  /// the row slices' x cells, sized by the radius-derived rule.
  [[nodiscard]] std::size_t cells_per_side() const { return cells_; }

  /// The sizing rule's pre-cap target, and whether the cap bit (so a
  /// coarser-than-ideal index is visible in metrics, not silent).
  [[nodiscard]] std::size_t cells_target() const { return cells_target_; }
  [[nodiscard]] bool cells_clamped() const { return cells_clamped_; }

  /// Heap bytes held by the candidate index (strip offsets + entries +
  /// the per-camera SoA pool; row slices are per scratch).
  [[nodiscard]] std::size_t index_bytes() const;

  /// Wall time spent building the candidate index in the constructor (the
  /// "build" stage; always measured — one clock pair per construction).
  [[nodiscard]] std::uint64_t build_ns() const { return build_ns_; }

  /// Candidate-bin shape, computed on demand.  Bins are the index's y
  /// strips (row slices are per scratch and transient).
  struct BinOccupancy {
    std::size_t cells = 0;         ///< total bins
    std::size_t entries = 0;       ///< (bin, camera) entries
    std::size_t empty_cells = 0;   ///< bins with no candidates
    std::size_t max_per_cell = 0;  ///< densest bin
    double mean_per_cell = 0.0;    ///< entries / cells
  };
  [[nodiscard]] BinOccupancy occupancy() const;

  /// Export the engine's static shape (bin occupancy, build time, camera
  /// count, active kernel and its dispatch counters) into a metrics
  /// node; dynamic counters come from the scratch's `GridEvalCounters`
  /// and are merged in by the caller.
  void describe(obs::MetricsNode& node) const;

  /// The kernel variant runtime dispatch selected for this engine.
  [[nodiscard]] KernelVariant kernel() const { return kernel_; }

 private:
  /// Candidate records in structure-of-arrays layout: one parallel span
  /// per field, indexed by entry, so the vectorized kernel loads each
  /// field as one contiguous lane group.  `q` is the signed square of
  /// cos(fov/2), used by the trig-free field-of-view classifier; `omni` is
  /// an all-bits-set double mask (never used arithmetically) for cameras
  /// with fov/2 >= pi.  The torus unwrap shift is NOT stored: the classify
  /// paths recompute it per point as `d -= round(d)` plus wrap_delta's
  /// boundary fixups, which is both exact (see grid_eval_kernel.hpp) and
  /// cheaper than streaming two more field blocks through the kernel.
  /// One contiguous buffer of seven field blocks (`stride` doubles each) —
  /// a single allocation, because engine construction is on the hot path
  /// of Monte-Carlo trials and separate quarter-megabyte vectors cost
  /// ~1 ms of page faults per engine.
  struct CandSoA {
    std::vector<double> data;
    std::size_t stride = 0;
    void resize(std::size_t n);
    // NOLINTBEGIN(readability-identifier-naming) — span accessors
    [[nodiscard]] const double* sx() const { return data.data(); }
    [[nodiscard]] const double* sy() const { return data.data() + stride; }
    [[nodiscard]] const double* r2() const { return data.data() + 2 * stride; }
    [[nodiscard]] const double* cu() const { return data.data() + 3 * stride; }
    [[nodiscard]] const double* su() const { return data.data() + 4 * stride; }
    [[nodiscard]] const double* q() const { return data.data() + 5 * stride; }
    [[nodiscard]] const double* omni() const { return data.data() + 6 * stride; }
    [[nodiscard]] double* mut(std::size_t field) { return data.data() + field * stride; }
    // NOLINTEND(readability-identifier-naming)
  };

  /// A resolved candidate span for one point: SoA field pointers
  /// pre-offset to the span start (field f at `base + f * stride`), plus
  /// the parallel camera ids the exact-arithmetic fallback needs.  This is
  /// the seam between the index and the classify/gather pipeline.
  struct CandView {
    const double* base = nullptr;
    std::size_t stride = 0;
    const std::uint32_t* ids = nullptr;
    std::size_t count = 0;
    // NOLINTBEGIN(readability-identifier-naming) — span accessors
    [[nodiscard]] const double* sx() const { return base; }
    [[nodiscard]] const double* sy() const { return base + stride; }
    [[nodiscard]] const double* r2() const { return base + 2 * stride; }
    [[nodiscard]] const double* cu() const { return base + 3 * stride; }
    [[nodiscard]] const double* su() const { return base + 4 * stride; }
    [[nodiscard]] const double* q() const { return base + 5 * stride; }
    [[nodiscard]] const double* omni() const { return base + 6 * stride; }
    // NOLINTEND(readability-identifier-naming)
  };

  /// Sizing: cells_ / cells_target_ / cells_clamped_ from the
  /// radius-derived rule (candidate_index.hpp).
  void compute_cells();

  /// Bin the cameras into y strips and fill the per-camera SoA pool.
  void build_index();

  /// Append to `out` the ids of the cameras whose y distance to `y` passes
  /// the kernel's exact y prune — the strip walk shared by row slices and
  /// `candidates(p)`.
  void gather_y_band(double y, std::vector<std::uint32_t>& out) const;

  /// Span resolution for grid point `p` on `row`: materialises (or reuses)
  /// the row slice in `scratch`.
  [[nodiscard]] CandView point_view(std::size_t row, const geom::Vec2& p,
                                    GridEvalScratch& scratch) const;
  void build_row_slice(std::size_t row, GridEvalScratch& scratch) const;

  /// Row-independent span resolution for `eval_point`: compacts the
  /// `candidates(p)` ids into `scratch.point_soa` / `scratch.point_ids`
  /// (no row slice — an off-lattice y has no grid row).
  [[nodiscard]] CandView arbitrary_view(const geom::Vec2& p,
                                        GridEvalScratch& scratch) const;

  /// In-place sort of `scratch.angles` (the tail of `sorted_directions`,
  /// shared with `eval_point`): insertion sort for small buffers, a
  /// 32-bucket counting presort for mid-sized ones, std::sort above.
  static void sort_directions(GridEvalScratch& scratch);

  /// The scalar per-entry classify path: classifies view entry `e`
  /// against `p` (via the engine's one scalar classify definition),
  /// appending immediate directions (zero-distance hits) to `out` and
  /// compacting covered displacements into xs/ys at m.  Shared by the
  /// scalar kernel loop, the vectorized kernel's remainder tail, and its
  /// special-lane replay.
  void classify_entry(const CandView& view, std::size_t e, const geom::Vec2& p,
                      GridEvalScratch& scratch, std::vector<double>& out, double* xs,
                      double* ys, std::size_t& m) const;

  /// Fused gather: viewed directions of all covering cameras into
  /// `scratch.angles` (unsorted); the allocation-free core of
  /// `sorted_directions`.
  void gather_directions(const geom::Vec2& p, const CandView& view,
                         GridEvalScratch& scratch) const;

  /// Covering-camera count with early exit at `k` (no angle computation on
  /// the fast path).
  [[nodiscard]] std::size_t covered_count_at_least(const geom::Vec2& p,
                                                   const CandView& view,
                                                   std::size_t k) const;

  const Network* net_ = nullptr;
  DenseGrid grid_;
  double theta_ = 0.0;
  std::uint64_t build_ns_ = 0;
  std::size_t implied_k_ = 0;
  geom::SpaceMode mode_ = geom::SpaceMode::kTorus;
  KernelVariant kernel_ = KernelVariant::kScalar;
  detail::ClassifyFn classify_ = nullptr;  ///< non-null for vector variants
  std::uint64_t generation_ = 0;  ///< process-unique; keys scratch row slices
  std::vector<geom::Arc> necessary_arcs_;   ///< 2*theta partition, start 0
  std::vector<geom::Arc> sufficient_arcs_;  ///< theta partition, start 0

  std::size_t cells_ = 1;
  std::size_t cells_target_ = 1;
  bool cells_clamped_ = false;

  // Cameras binned once by y strip (no replication); row slices are
  // materialised per scratch.
  std::vector<std::uint32_t> strip_offsets_;  ///< size cells_ + 1
  std::vector<std::uint32_t> strip_entries_;  ///< size n (camera ids)
  CandSoA cam_soa_;                           ///< per camera (stride = n)
  double max_r_ = 0.0;        ///< net max radius (slice band half-height)
  std::ptrdiff_t ghost_ = 0;  ///< ghost x cells per slice side (torus)
  bool whole_row_ = false;    ///< degenerate: window spans the whole axis
};

/// Export the active kernel choice (name, lane width) and the process-wide
/// dispatch counters into `node` — the observability face of
/// cpu_features.hpp, shared by GridEvalEngine::describe and the sim
/// layer's trial metering.
void describe_kernel_dispatch(KernelVariant active, obs::MetricsNode& node);

}  // namespace fvc::core
