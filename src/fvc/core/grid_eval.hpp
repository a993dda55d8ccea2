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
///      strip (candidate_index.hpp) and writes their kernel records into a
///      pool in strip order; each grid row then materialises a compacted
///      slice of the cameras that can reach it, copied from the few pool
///      strips its band spans and bucketed by x cell, so "which cameras
///      might cover this point?" is one contiguous span per grid point.
///      Every span is a superset of the covering set, so results never
///      depend on the index.
///   2. *Fused kernel* — covering cameras' displacements are compacted
///      into reusable scratch buffers with zero per-point heap allocations
///      (sector partitions are precomputed per engine).  Every scan decides
///      the predicates from which sectors hold a covering camera (sector
///      occupancy), with no atan2 and no sort.  The boolean scans
///      (`row_events`, `row_all_*`) sweep each row once (`sweep_row`):
///      per camera, a certified core of columns it surely covers, split
///      where its viewed direction crosses a sector boundary, adds to
///      per-column occupancy masks, and only the columns in its margin go
///      through the exact classify (see `decide_swept`).  The sweep runs
///      batches of cameras through a straight-line interval pass (from
///      per-camera constants computed once per scratch and engine; it and
///      the band compaction that fills the batch run in the dispatched
///      batch kernel) and a piece pass, and stops spending work on
///      columns whose needed words are already full (column saturation).
///      The stats path (`block_stats`, `row_stats`, `evaluate`) sweeps
///      each row once too (`stats_sweep`, grid_eval_stats.cpp): each band
///      camera's outer columns, from the same band compaction and interval
///      pass, go through a dispatched pair stage that classifies the
///      camera at those columns only (lanes over columns) and scatters
///      each covered pair into its column's count, occupancy masks and a
///      pseudo-angle bitmap that bounds the point's max gap, plus a list
///      of the column's covering cameras; it builds no row slice.  Either
///      path takes the exact path — one atan2 per covering camera, an
///      in-place sort, the oracle's gap scan — only for a point whose full
///      view the masks and bounds leave open, or whose max gap could set a
///      new extreme of the scan (see `stats_decide_row`).  The per-point accessors (`eval_point`, `point_*`,
///      `sorted_directions`) report a point's own max gap and always take
///      the exact path.
///   3. *Lane-parallel classify* — candidate records are stored as
///      structure-of-arrays spans and classified 4 lanes at a time by an
///      explicitly vectorized kernel (grid_eval_kernel.hpp) selected by
///      runtime CPU dispatch (cpu_features.hpp: avx2 where the CPU has it,
///      else the scalar per-entry loop).  Lane arithmetic
///      replicates the scalar IEEE operation sequence exactly
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
///      The per-point accessors piggyback on this shape: each worker's
///      scratch caches the current row's candidate slice, built once per
///      (engine, row) and reused across the row's points.
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

#include <array>
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
struct SweepBatch;
struct BandScan;
struct SectorWalk;
struct SweepPieces;
using SweepIntervalsFn = void (*)(const SweepBatch& b, std::size_t count);
using BandScanFn = BandScan (*)(const double* sy, const double* r2, std::uint32_t begin,
                                std::uint32_t end, double y, bool torus, std::uint32_t cap,
                                std::uint32_t* slots, double* dy, double* r2_out);
using SweepPiecesFn = std::size_t (*)(const SweepBatch& b, std::size_t count,
                                      const SectorWalk& t, const std::uint32_t* sat,
                                      SweepPieces& out);
struct PairRuns;
struct PairRow;
struct PairCounts;
using StatsPairsFn = PairCounts (*)(const PairRuns& runs, const PairRow& row);
/// The batch kernels of one kernel variant (kernels_for there): the
/// classify and the row sweep's piece stage, null for the scalar variant
/// (whose per-entry classify and scalar sweep pass run instead), and the
/// row sweep's band and interval stages and the stats path's pair stage.
struct Kernels {
  ClassifyFn classify = nullptr;
  SweepIntervalsFn intervals = nullptr;
  BandScanFn band = nullptr;
  SweepPiecesFn pieces = nullptr;
  StatsPairsFn pairs = nullptr;
};
}  // namespace detail

/// Engine observability counters (see fvc/obs).  Attached to a scratch —
/// hence per worker thread, merged by the coordinating caller — so the
/// hot path stays synchronization-free.  When no counters are attached
/// the kernel pays one pointer test per grid *point*, never per
/// candidate, and results are unchanged either way (counting does not
/// touch the arithmetic).  `candidates_per_point` holds one observation
/// per point: the candidates the kernel classified there.  On the
/// per-point sorted path (`eval_point`, the `point_*` accessors) every
/// candidate of the index's span (a superset of the covering set) is
/// classified and every covering direction consumed, so the histogram
/// describes the spans, `candidates_total` is the span total and
/// `directions_total` the covering-set total.  On the stats path
/// (`row_stats`, `evaluate`, `block_stats`) the stats row sweep classifies
/// each band camera at its outer columns only, so the histogram and
/// `candidates_total` count the exact pair classifies made at a point
/// (the pair stage's, at the point's column), `directions_total` is still
/// the covering-set total, and the `stats_*` counters hold the sweep's
/// own work.  On the boolean path (`row_events`, `row_all_*`)
/// the row sweep certifies most covering cameras without a classify, so
/// the histogram and `candidates_total` count the exact classifies only
/// (a point's verify-list entries, none once its certified words settle
/// it, or its whole span when it falls back to the sorted path) and
/// `directions_total` the covering directions those classifies returned;
/// `swept_points` counts the points decided with no classify at all, and
/// the `sweep_*` counters the sweep's own work.  `atan2_calls` counts the
/// calls made on any path: on the stats and boolean paths only band hits
/// and points that took the exact path pay them, and `occupancy_points`
/// counts the points of those two paths that paid neither an atan2 nor a
/// sort.
struct GridEvalCounters {
  std::uint64_t points = 0;            ///< grid points gathered
  std::uint64_t candidates_total = 0;  ///< indexed candidates classified
  std::uint64_t directions_total = 0;  ///< covering directions consumed
  std::uint64_t trig_fallbacks = 0;    ///< field-of-view band fallbacks
  std::uint64_t atan2_calls = 0;       ///< viewed-direction atan2 evaluations
  std::uint64_t occupancy_points = 0;  ///< points decided with no atan2 or sort
  std::uint64_t swept_points = 0;      ///< boolean-path points decided with no classify
  std::uint64_t sweep_rows = 0;         ///< rows the sweep ran on
  std::uint64_t sweep_camera_rows = 0;  ///< (camera, row) pairs it computed intervals for
  std::uint64_t sweep_pieces = 0;       ///< certified pieces it added
  std::uint64_t sweep_verify = 0;       ///< (column, camera) verify pairs it added
  std::uint64_t sweep_skipped = 0;      ///< camera-rows left out on saturated columns
  /// Camera-rows the piece stage leaves to the scalar pass: reflex,
  /// uncertified, a walk longer than the stage's bound, or a verify gap.
  /// The scalar kernel, which has no piece stage, counts them by that
  /// rule in its scalar pass, so every kernel counts the same.
  std::uint64_t sweep_walk_fallback = 0;
  /// The sweep's stage clocks (ns), read once per batch and checkpoint:
  /// the strip walk with its band compaction; the per-camera constants
  /// and the interval pass; the dispatched piece stage; the difference-
  /// array scatter of its pieces plus the scalar pass; checkpoints and the
  /// final flush.
  std::uint64_t sweep_band_ns = 0;
  std::uint64_t sweep_intervals_ns = 0;
  std::uint64_t sweep_pieces_ns = 0;
  std::uint64_t sweep_scatter_ns = 0;
  std::uint64_t sweep_checkpoint_ns = 0;
  /// The stats path's row sweep (`block_stats`): rows swept, (camera, row)
  /// pairs it computed outer columns for, (camera, column) pairs the pair
  /// stage classified, and pairs it left to the scalar replay (special
  /// lanes and directions inside the boundary band).
  std::uint64_t stats_rows = 0;
  std::uint64_t stats_camera_rows = 0;
  std::uint64_t stats_pairs = 0;
  std::uint64_t stats_replays = 0;
  /// Its stage clocks (ns), read once per batch and row on metered scans:
  /// the strip walk, constants and interval pass; the pair stage and the
  /// replay; the point pass (counts, masks, gap bounds, the covering
  /// lists); the in-order exact-gap pass.
  std::uint64_t stats_sweep_ns = 0;
  std::uint64_t stats_pairs_ns = 0;
  std::uint64_t stats_points_ns = 0;
  std::uint64_t stats_exact_ns = 0;
  obs::LogHistogram candidates_per_point;

  void merge(const GridEvalCounters& other) {
    points += other.points;
    candidates_total += other.candidates_total;
    directions_total += other.directions_total;
    trig_fallbacks += other.trig_fallbacks;
    atan2_calls += other.atan2_calls;
    occupancy_points += other.occupancy_points;
    swept_points += other.swept_points;
    sweep_rows += other.sweep_rows;
    sweep_camera_rows += other.sweep_camera_rows;
    sweep_pieces += other.sweep_pieces;
    sweep_verify += other.sweep_verify;
    sweep_skipped += other.sweep_skipped;
    sweep_walk_fallback += other.sweep_walk_fallback;
    sweep_band_ns += other.sweep_band_ns;
    sweep_intervals_ns += other.sweep_intervals_ns;
    sweep_pieces_ns += other.sweep_pieces_ns;
    sweep_scatter_ns += other.sweep_scatter_ns;
    sweep_checkpoint_ns += other.sweep_checkpoint_ns;
    stats_rows += other.stats_rows;
    stats_camera_rows += other.stats_camera_rows;
    stats_pairs += other.stats_pairs;
    stats_replays += other.stats_replays;
    stats_sweep_ns += other.stats_sweep_ns;
    stats_pairs_ns += other.stats_pairs_ns;
    stats_points_ns += other.stats_points_ns;
    stats_exact_ns += other.stats_exact_ns;
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
  /// Sector-occupancy state of the point being decided (see
  /// GridEvalEngine::row_events): the masks, and the pseudo-angles of its
  /// covered directions.
  std::vector<std::uint64_t> masks;
  std::vector<double> pseudo;
  /// Optional metrics destination; null (the default) disables counting.
  GridEvalCounters* counters = nullptr;

  /// Arbitrary-point candidate view: the compacted SoA records of the
  /// candidates near one off-lattice point, copied out of the engine's
  /// strip-ordered pool, plus the parallel camera ids.  `eval_point` materialises these.
  std::vector<double> point_soa;
  std::vector<std::uint32_t> point_ids;

  /// Row slice: the compacted SoA of cameras whose disc can reach one
  /// grid row's y band, bucketed by extended x cell (ghost columns
  /// replicate near-seam cameras so every per-point window is one
  /// contiguous, duplicate-free range).  Built lazily, keyed by
  /// (engine generation, row) so a scratch can serve many engines; only
  /// the per-point accessors (`point_*`, `sorted_directions`,
  /// `point_candidate_count`) and `decide_point` read it.
  struct RowSlice {
    std::uint64_t engine_gen = 0;  ///< 0 = empty (generations start at 1)
    std::size_t row = 0;
    std::vector<double> soa;             ///< 7 field blocks, `stride` each
    std::size_t stride = 0;              ///< == total slice entries
    std::vector<std::uint32_t> ids;      ///< camera ids parallel to soa
    std::vector<std::uint32_t> offsets;  ///< per extended-x-cell CSR
    std::vector<std::uint32_t> cursors;  ///< build scratch: scatter cursors
    std::vector<std::uint32_t> survivors;  ///< build scratch: y-band pool slots
  };
  RowSlice slice;

  /// Row sweep of the boolean scans (GridEvalEngine::sweep_row): per grid
  /// column, the occupancy mask words of the cameras certified to cover
  /// it, and the pool slots of the cameras that need the exact classify
  /// there.  Keyed by (engine generation, row, need set): a sweep serves
  /// any request whose needed predicates are a subset of `need`, since
  /// column saturation only dropped cameras that could not change those.
  struct RowSweep {
    std::uint64_t engine_gen = 0;  ///< 0 = empty
    std::size_t row = 0;
    std::uint8_t need = 0;  ///< predicates swept for: 1 necessary, 2 full view, 4 sufficient
    std::vector<std::uint64_t> masks;          ///< word-major: word w of column c at w * cols + c
    std::vector<std::uint32_t> verify_offsets;  ///< per column CSR
    std::vector<std::uint32_t> verify;          ///< pool slots
    /// Build scratch: per sector interval, certified-piece counts over
    /// columns as difference arrays (zero between sweeps), the intervals
    /// touched, and (column, pool slot) verify pairs before bucketing.
    std::vector<std::int32_t> diff;
    std::vector<std::uint32_t> touched;
    std::vector<std::uint32_t> verify_cols;
    std::vector<std::uint32_t> verify_entries;
    /// Column saturation: prefix counts over columns of those whose
    /// needed mask words were all full at the last checkpoint.
    std::vector<std::uint32_t> saturated;
    std::vector<std::uint64_t> column_bits;  ///< flush and checkpoint scratch, per column
    /// When few columns are left open at a checkpoint the sweep stops
    /// there: the [begin, end) pool slot ranges of the band's cameras it
    /// did not reach, which each open column classifies exactly.
    std::vector<std::uint32_t> rest;
    /// Per-camera constants by pool slot, one record each (wedge edge
    /// slopes, column origin, kind bits), valid for engine generation
    /// `const_gen`, each camera's filled (and marked `ready`) on its first
    /// sweep.
    std::uint64_t const_gen = 0;
    std::vector<std::uint8_t> ready;
    std::vector<double> consts;
    /// One batch of the band's cameras: pool slots, y displacements and
    /// r^2, then the straight-line pass's core-end pseudo-angles, crossing
    /// margins, column ends and flags, read by the piece pass
    /// (grid_eval_kernel.hpp's `SweepBatch`).
    std::vector<std::uint32_t> batch_slots;
    std::vector<double> batch;
    std::vector<std::int32_t> batch_cols;
    /// The batch's packed pieces from the piece stage: intervals, first
    /// and last columns (`SweepPieces`, kPieceCap each).
    std::vector<std::int32_t> batch_pieces;
  };
  RowSweep sweep;

  /// Row sweep of the stats path (GridEvalEngine::stats_sweep): per grid
  /// column a record of its covering count, gap-bin bitmap and occupancy
  /// masks (detail::kRecCount..kRecMasks), and the covering pairs, from
  /// which `stats_decide_row` builds a CSR list of the pool slots of the
  /// covering cameras of each point that may take the exact path; rebuilt
  /// for every row.
  struct StatsSweep {
    std::vector<std::uint64_t> columns;
    std::vector<std::uint32_t> offsets;  ///< per column CSR into `list`
    std::vector<std::uint32_t> list;     ///< covering pool slots
    /// Covering (column, pool slot) pairs before bucketing, and the pairs
    /// the pair stage leaves to the scalar replay.
    std::vector<std::uint32_t> pair_col;
    std::vector<std::uint32_t> pair_slot;
    std::size_t pairs = 0;
    std::vector<std::int32_t> pair_bin;       ///< one batch's, with the pairs' intervals
    std::vector<std::int32_t> pair_interval;
    std::vector<std::uint32_t> replay_col;
    std::vector<std::uint32_t> replay_slot;
    std::vector<double> px;  ///< grid x per unwrapped column (detail::PairRow::px)
    /// One batch of the band's cameras: pool slots, batch-local constants
    /// (indexed through `batch_index`, 0, 1, 2, ...) and the interval
    /// pass's fields, then the camera-runs of their outer columns.
    std::vector<std::uint32_t> batch_slots;
    std::vector<std::uint32_t> batch_index;
    std::vector<double> consts;
    std::vector<double> batch;
    std::vector<std::int32_t> batch_cols;
    std::vector<std::uint32_t> run_slot;
    std::vector<double> run_dy;
    std::vector<std::int32_t> run_c0;
    std::vector<std::int32_t> run_c1;
    /// The point pass's per-column results for the exact-gap pass: gap
    /// bounds and flags; and, on metered scans, the pair classifies and
    /// the boundary-band atan2 calls per column.
    std::vector<double> gap_lo;
    std::vector<double> gap_hi;
    std::vector<std::uint8_t> flags;
    std::vector<std::int32_t> tried;  ///< as differences over columns
    std::vector<std::uint32_t> exact;
  };
  StatsSweep stats;
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

/// The most cameras an engine indexes: its pools address cameras with
/// 32-bit slots, and its constructor rejects a larger network.
inline constexpr std::size_t kMaxCameras = 0xFFFFFFFFU;

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

  /// All predicates fused over one row: `block_stats(row, row + 1)`.
  /// \pre row < rows()
  [[nodiscard]] GridRowStats row_stats(std::size_t row, GridEvalScratch& scratch) const;

  /// All predicates fused over the contiguous row block
  /// [row_begin, row_end), reduced in row order — so folding the per-block
  /// results of a partition of [0, rows()) in block order replays the
  /// serial scan's reduction exactly (the blocked scheduler's bit-identity
  /// contract; see sim/parallel_region.hpp).  One engine call per block
  /// keeps the parallel scan's callback cost at one indirection per block
  /// rather than per row.  Each row is swept once (`stats_sweep`) and its
  /// points decided in order (`stats_decide_row`), which computes a
  /// point's exact max gap only when it could move the block's running
  /// extremes, so the result is the same for any partition.
  /// \pre row_begin < row_end <= rows()
  [[nodiscard]] GridRowStats block_stats(std::size_t row_begin, std::size_t row_end,
                                         GridEvalScratch& scratch) const;

  /// All predicates fused over the whole grid (serial row loop).
  /// Bit-identical to `evaluate_region_scalar`.
  [[nodiscard]] RegionCoverageStats evaluate(GridEvalScratch& scratch) const;

  /// Early-exit event evaluation of one row.  Returns immediately on the
  /// first necessary-condition failure (with every bit false, matching the
  /// trial semantics: the necessary condition is necessary, so nothing can
  /// hold).  `need_full_view` / `need_sufficient` skip predicates the
  /// caller has already falsified on earlier rows.  Decided per point from
  /// the row sweep's occupancy masks (`decide_swept`); bit-identical to
  /// the oracles.
  [[nodiscard]] GridRowEvents row_events(std::size_t row, GridEvalScratch& scratch,
                                         bool need_full_view,
                                         bool need_sufficient) const;

  /// Early-exit single-predicate row scans backing the `grid_all_*` API,
  /// decided per point from the row sweep like `row_events`.
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
  /// the SoA pool, 4 * (cells + 1) + 60 * cameras; row slices are per
  /// scratch).
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

  /// The sector table as the row sweep's piece stage reads it, valid while
  /// the engine lives (the kernel tests drive the stage with it).
  [[nodiscard]] detail::SectorWalk sector_walk() const;

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
  /// ~1 ms of page faults per engine.  The fill is lean: an omnidirectional
  /// camera stores cu = su = 0 and skips its orientation's cos/sin (both
  /// classify paths mask cu and su with `omni` before any use, and a band
  /// hit excludes `omni`), and `q` is reused while consecutive cameras
  /// have a bit-equal fov (deployments are written group by group).
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

  /// Bin the cameras into y strips and fill the SoA pool in strip order.
  void build_index();

  /// Call fn(slot, dy) for the pool slots of the cameras whose y distance
  /// to `y` passes the kernel's exact y prune, with dy the kernel's own y
  /// displacement, until fn returns false — the strip walk shared by row
  /// slices, `arbitrary_view` and `candidates(p)` (the row sweep walks the
  /// same strips with the same prune, batched).  Strips and the slots
  /// within a strip are visited in order.
  template <class Fn>
  void for_each_in_y_band(double y, Fn&& fn) const;

  /// The y strips a band walk at `y` visits: `span` strips from `lo`
  /// (mod cells_ on the torus), padded one strip per side.
  struct StripBand {
    std::ptrdiff_t lo = 0;
    std::ptrdiff_t span = 0;
  };
  [[nodiscard]] StripBand y_band(double y) const;
  /// Strip k of `band`: in order, or with `alternate` from the middle of
  /// the band outwards, alternating sides.
  [[nodiscard]] std::size_t band_strip(const StripBand& band, std::ptrdiff_t k,
                                       bool alternate) const;
  /// The kernel's own y displacement y - sy (torus-wrapped as it wraps).
  [[nodiscard]] double band_dy(double y, double sy) const;

  /// Append the slots `for_each_in_y_band` visits to `out`.
  void gather_y_band(double y, std::vector<std::uint32_t>& out) const;

  /// Copy the pool records at the slots in `ids` into `soa` (seven field
  /// blocks of `ids.size()` doubles each), then rewrite `ids` in place to
  /// the slots' camera ids.
  void copy_records(std::vector<std::uint32_t>& ids, std::vector<double>& soa) const;

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
  /// shared by every exact path): insertion sort for small buffers, a
  /// 32-bucket counting presort for mid-sized ones, std::sort above.
  static void sort_directions(GridEvalScratch& scratch);

  /// The scalar per-entry classify path: classifies view entry `e`
  /// against `p` (via the engine's one scalar classify definition),
  /// appending immediate directions (zero-distance hits) to
  /// `scratch.angles` and compacting covered displacements into
  /// `scratch.dxs/dys` at m.  Shared by the scalar kernel loop, the
  /// vectorized kernel's remainder tail, and its special-lane replay.
  void classify_entry(const CandView& view, std::size_t e, const geom::Vec2& p,
                      GridEvalScratch& scratch, std::size_t& m) const;

  /// Classify view entries [begin, end): covered displacements are
  /// compacted into `scratch.dxs/dys` at m (advancing it), zero-distance
  /// hits append direction 0 to `scratch.angles`.  Lane groups go through
  /// the dispatched vector kernel, special lanes and the remainder tail
  /// through `classify_entry`.  \pre dxs/dys/special hold >= view.count
  void classify_range(const geom::Vec2& p, const CandView& view, std::size_t begin,
                      std::size_t end, GridEvalScratch& scratch, std::size_t& m) const;

  /// Append the viewed directions of the m compacted displacements to
  /// `scratch.angles` (the oracle's `normalize_angle(atan2 + pi)`).
  static void emit_directions(GridEvalScratch& scratch, std::size_t m);

  /// Fused gather: viewed directions of all covering cameras into
  /// `scratch.angles` (unsorted); the allocation-free core of
  /// `sorted_directions`.
  void gather_directions(const geom::Vec2& p, const CandView& view,
                         GridEvalScratch& scratch) const;

  /// The three point predicates: which ones a boolean scan still needs
  /// at a point, or `decide_point`'s answer to them.
  struct Predicates {
    bool necessary = false;
    bool full_view = false;
    bool sufficient = false;
  };

  /// The occupancy step of the boolean scans, for the compacted
  /// displacements [0, m) of `scratch.dxs/dys`: each direction's
  /// pseudo-angle locates its interval in `sectors_`, whose arc bits it ORs
  /// into `scratch.masks`; a direction inside the boundary band takes
  /// `occupy_exact` on its exact viewed direction instead.  Returns the
  /// number of band directions (each one atan2).
  std::uint64_t occupy_directions(GridEvalScratch& scratch, std::size_t m) const;

  /// The occupancy step of one direction (dx, dy) with pseudo-angle `v`
  /// into `mask`; true when it lies inside the boundary band and took
  /// `occupy_exact` (one atan2).  Shared with the stats sweep's replay.
  bool occupy_direction(double v, double dx, double dy, std::uint64_t* mask) const;

  /// The oracle's arc predicate on an exact viewed direction `d`: ORs the
  /// necessary and sufficient bits of the arcs holding `d` into `mask`,
  /// never the certified ones.
  void occupy_exact(double d, std::uint64_t* mask) const;

  /// Sector-occupancy decision of the needed predicates at point `p` from
  /// its whole candidate span: every candidate is classified, and each
  /// covered displacement's viewed direction is located in `sectors_` by
  /// pseudo-angle and ORs its interval's arc bits into three masks —
  /// necessary (2*theta arcs), sufficient (theta arcs), and *certified*
  /// sufficient (theta arcs hit by directions outside the boundary band).
  /// A direction inside the band gets the oracle's exact angle and arc
  /// test instead, and counts toward the first two masks only.  Necessary
  /// and sufficient are exact set tests.  Full view holds when the
  /// certified mask is full (each theta arc then holds a direction at
  /// least the band inside it, so every real gap is below 2*theta by at
  /// least the band, far more than the oracle's rounding); otherwise the
  /// displacements take the atan2 -> sort -> max-gap path.  Bits not
  /// needed are unspecified, and so is full_view when a needed necessary
  /// bit is false.  The fallback of `decide_swept`, and the whole boolean
  /// path when the engine cannot sweep (`sweep_ok_`).
  [[nodiscard]] Predicates decide_point(const geom::Vec2& p, const CandView& view,
                                        Predicates need,
                                        GridEvalScratch& scratch) const;

  /// Sweep `row` once for the boolean scans that need the predicates
  /// `need` (no-op when `scratch.sweep` already holds it for a superset):
  /// for each camera of the row's y band, in real arithmetic, an *outer*
  /// x-set (one interval, two for a reflex wedge) holding every column
  /// where the kernel could return covered or a band hit, and a *core*
  /// where it certainly returns covered and not special.  The band's
  /// cameras, compacted past the exact y prune, go through in batches of
  /// two passes: a straight-line pass computes each camera's intervals,
  /// column ends, core-end pseudo-angles and crossing margin from
  /// constants computed once per (scratch, engine) (the compaction and
  /// this pass run in the dispatched kernel, `kernels_`); a piece
  /// pass cuts the core at the sector-boundary crossings
  /// of the camera's viewed direction (none when both ends lie well inside
  /// one sector interval), each piece at least a margin inside one
  /// interval, adds each piece's interval bits to its columns' masks, and
  /// sends outer columns outside every piece to the column's verify list.
  /// Degenerate cameras verify their whole outer chord.  At checkpoints,
  /// columns whose needed words are all full are *saturated*: cameras
  /// whose outer columns all are get skipped, a row whose columns all are
  /// stops, and a row with few columns left open stops and leaves the
  /// remaining cameras to those columns' exact classify.  See
  /// docs/ARCHITECTURE.md, "Row sweep".  \pre sweep_ok_
  void sweep_row(std::size_t row, Predicates need, GridEvalScratch& scratch) const;

  /// Fill the per-camera sweep constants (see `RowSweep::consts`) of the
  /// cameras at the `count` pool slots `slots`: with `ready`, the records
  /// by pool slot of those not yet ready (marking them); without, record b
  /// for slots[b].
  void sweep_constants(const std::uint32_t* slots, std::size_t count, std::uint8_t* ready,
                       double* consts) const;

  /// `decide_point` at grid point (row, col) = `p` from the swept masks:
  /// the column's verify entries go through the exact classify and
  /// occupancy step, so the masks cover exactly the covering set; only a
  /// point whose full view they leave open takes `decide_point`.
  /// \pre sweep_row(row) ran on `scratch`
  [[nodiscard]] Predicates decide_swept(std::size_t row, std::size_t col,
                                        const geom::Vec2& p, Predicates need,
                                        GridEvalScratch& scratch) const;

  /// The boolean scans' per-point decision at (row, col): `decide_swept`,
  /// or `decide_point` when the engine cannot sweep.
  [[nodiscard]] Predicates decide(std::size_t row, std::size_t col, Predicates need,
                                  GridEvalScratch& scratch) const;

  /// The stats path's row sweep (grid_eval_stats.cpp): fills
  /// `scratch.stats` with each column's covering count, occupancy masks
  /// (as `decide_point` forms them), gap-bin bitmap and covering list.
  /// The band's cameras, compacted past the exact y prune, go through in
  /// batches: `sweep_constants` and the dispatched interval pass give each
  /// camera's outer column set (one range, two for a reflex wedge: every
  /// column where the classify could return covered or a band hit, as in
  /// `sweep_row`), and the dispatched pair stage classifies the camera at
  /// those columns only, scattering each covered pair into its column.
  /// Special pairs and directions inside the boundary band take
  /// `stats_replay`.
  void stats_sweep(std::size_t row, GridEvalScratch& scratch) const;

  /// The scalar path of one (column, pool slot) pair of `stats_sweep`:
  /// `classify_scalar`, then, when covered, the column's count, covering
  /// list, gap bin and masks, with `occupy_exact` for a camera at the point
  /// or a direction inside the boundary band.
  void stats_replay(std::uint32_t col, std::uint32_t slot, const geom::Vec2& p,
                    GridEvalScratch& scratch, std::size_t& n_pairs) const;

  /// Fold the swept row's points into the block accumulator `acc`, in
  /// column order (`first`: the row holds the block's first point).  The
  /// counts and both sector conditions come from the occupancy masks.  The
  /// directions' gap bins bound each point's max gap to [lo, hi] (widened
  /// by a slack far above every rounding involved).  A point with at most
  /// one direction has a max gap of exactly 2*pi.  Any other point takes
  /// the exact atan2 -> sort -> max-gap path, over its covering list, only
  /// when full view is still open (certified mask not full and [lo, hi]
  /// holds 2*theta) or when it could set a new extreme: it is the first
  /// point, lo <= the running min, or hi >= the running max.  A pruned
  /// point provably leaves both extremes unchanged.
  void stats_decide_row(std::size_t row, bool first, GridRowStats& acc,
                        GridEvalScratch& scratch) const;

  /// True when predicate `pred` holds at every point of `row`, stopping
  /// at the first point where it fails.
  [[nodiscard]] bool row_all(std::size_t row, GridEvalScratch& scratch,
                             bool Predicates::*pred) const;

  /// Build `sectors_` from the two arc partitions.
  void build_sector_table();

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
  detail::Kernels kernels_;  ///< the batch kernels of `kernel_`
  std::uint64_t generation_ = 0;  ///< process-unique; keys scratch row slices
  std::vector<geom::Arc> necessary_arcs_;   ///< 2*theta partition, start 0
  std::vector<geom::Arc> sufficient_arcs_;  ///< theta partition, start 0

  /// Occupancy lookup over the union of both partitions' arc boundaries.
  /// Mask words: [0, nec_words) necessary arcs, then suf_words sufficient
  /// arcs, then suf_words certified-sufficient arcs (bit j of a family =
  /// word j / 64, bit j % 64).
  struct SectorTable {
    struct Bits {
      std::uint32_t word = 0;
      std::uint64_t bits = 0;
    };
    /// Boundary pseudo-angles, ascending and distinct; bounds[0] == 0
    /// (direction 0 is always a boundary) and a trailing sentinel 4.
    std::vector<double> bounds;
    /// Interval holding each bucket's start: a direction's pseudo-angle v
    /// lies in bucket floor(v * bucket_scale), and its interval is found
    /// by advancing from that bucket's interval.
    std::vector<std::uint32_t> bucket;
    double bucket_scale = 0.0;
    /// The interval holding pseudo-angle v in [0, 4].
    [[nodiscard]] std::size_t locate(double v) const;
    /// The walk view of this table (`detail::SectorWalk`).
    [[nodiscard]] detail::SectorWalk walk() const;
    /// Per interval i (between bounds[i] and bounds[i + 1]): the mask
    /// words a certified direction there ORs, as CSR rows.
    std::vector<std::uint32_t> row_begin;
    std::vector<Bits> bits;
    /// The same bits dense: every mask word of interval i at i * words.
    std::vector<std::uint64_t> dense;
    std::vector<std::uint64_t> full;  ///< every bit of each mask word
    /// Per boundary: vx / vy of a direction v with that pseudo-angle, so
    /// the viewed direction -(x, dy) of a camera at displacement dy from a
    /// row crosses it at x = dy * cot (the row sweep's cut points).  Along
    /// the row that direction's pseudo-angle rises through (0, 2) when
    /// dy < 0 (boundary i at cot[i]) and falls through (2, 4) when dy > 0
    /// (boundary i at cot[fall + intervals - i]: a falling walk reads its
    /// boundaries at ascending addresses too); a boundary outside that half
    /// holds -+inf, a crossing before the start or after the end of the
    /// row.  Each half is followed by kWalkPad zeros.
    std::vector<double> cot;
    std::size_t fall = 0;
    /// Per bucket: its `bucket` interval i, bounds[i + 1], bounds[i] and
    /// bounds[i + 2], as the piece stage reads them (`detail::SectorWalk`).
    std::vector<double> bucket_records;
    std::size_t nec_words = 0;
    std::size_t suf_words = 0;
  };
  SectorTable sectors_;

  std::size_t cells_ = 1;
  std::size_t cells_target_ = 1;
  bool cells_clamped_ = false;

  // Cameras binned once by y strip (no replication), their records pooled
  // in strip order, camera order within a strip; row slices are
  // materialised per scratch and hold camera ids.
  std::vector<std::uint32_t> strip_offsets_;  ///< size cells_ + 1 (slot CSR)
  std::vector<std::uint32_t> strip_entries_;  ///< size n: pool slot -> camera id
  CandSoA cam_soa_;                           ///< per pool slot (stride = n)
  double max_r_ = 0.0;        ///< net max radius (slice band half-height)
  std::ptrdiff_t ghost_ = 0;  ///< ghost x cells per slice side (torus)
  bool whole_row_ = false;    ///< degenerate: window spans the whole axis
  /// The sweep's per-interval column counts fit its size cap (false only
  /// when the sector table times the grid side is huge: tiny theta).
  bool sweep_ok_ = false;
};

/// Export the active kernel choice into `node` as `kernel_lanes` and
/// `kernel_<name>` = 1 — the observability face of cpu_features.hpp,
/// shared by GridEvalEngine::describe and the sim layer's trial metering.
void describe_kernel(KernelVariant active, obs::MetricsNode& node);

}  // namespace fvc::core
