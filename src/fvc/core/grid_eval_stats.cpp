/// The engine's stats path (`block_stats`, `row_stats`, `evaluate`): a row
/// sweep that classifies each band camera once per row at its outer
/// columns, then decides the row's points from per-column accumulators
/// (docs/ARCHITECTURE.md, "Gap bounds").  Kept in its own translation unit,
/// apart from the boolean row sweep of grid_eval.cpp.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "fvc/core/grid_eval.hpp"
#include "fvc/core/grid_eval_internal.hpp"
#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::core {

namespace {

using detail::kBatchFields, detail::kBatchHi1, detail::kBatchJ0, detail::kBatchLo1,
    detail::kBatchReflex, detail::kBatchStride, detail::kColFields, detail::kColFlags,
    detail::kColOuter0, detail::kColOuter1, detail::kConstStride, detail::kGapBins,
    detail::kGapBinScale, detail::kOccupancyBand, detail::kRecBins, detail::kRecCount,
    detail::kRecMasks, detail::kSweepBatch;
using detail::max_gap_sorted, detail::reserve_point;

/// Widening of the gap bounds: far above the error of the bin-angle table,
/// the pseudo-angles, the bound arithmetic and the oracle's rounded
/// `fl(atan2 + pi)` directions and gap differences (each ~1e-15 rad).
constexpr double kGapSlack = 1e-9;

/// Viewed direction of each gap-bin boundary: bin b spans the directions
/// [A[b], A[b + 1]], with A[0] == 0 and A[kGapBins] == 2*pi.
const std::array<double, kGapBins + 1>& gap_bin_angles() {
  static const std::array<double, kGapBins + 1> table = [] {
    std::array<double, kGapBins + 1> a{};
    for (std::size_t b = 0; b < kGapBins; ++b) {
      const geom::Vec2 v = detail::pseudo_direction(static_cast<double>(b) / kGapBinScale);
      a[b] = geom::normalize_angle(std::atan2(v.y, v.x));
    }
    a[kGapBins] = geom::kTwoPi;
    return a;
  }();
  return table;
}

/// An interval holding a point's max gap.
struct GapBounds {
  double lo = 0.0;
  double hi = 0.0;
};

/// Bounds on the max circular gap of the directions binned in `bins`
/// (kGapBins / 64 words, at least one bin set), given the bin-boundary
/// angles `a`.  The directions of consecutive occupied bins x < y (and the
/// wrap pair, last to first) are consecutive around the circle, so the gap
/// between them lies in [a[y] - a[x + 1], a[y + 1] - a[x]]; a gap inside
/// one bin is at most its width, below the upper bound of the pair the bin
/// starts.  The max gap is the largest of these gaps, hence at least the
/// largest lower bound and at most the largest upper bound.  Both are
/// widened by kGapSlack.
inline GapBounds gap_bounds(const std::uint64_t* bins, const double* a) {
  std::size_t first = kGapBins;
  std::size_t prev = 0;
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t w = 0; w < kGapBins / 64; ++w) {
    for (std::uint64_t word = bins[w]; word != 0; word &= word - 1) {
      const std::size_t b = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
      if (first == kGapBins) {
        first = b;
      } else {
        lo = std::max(lo, a[b] - a[prev + 1]);
        hi = std::max(hi, a[b + 1] - a[prev]);
      }
      prev = b;
    }
  }
  lo = std::max(lo, a[first] + geom::kTwoPi - a[prev + 1]);
  hi = std::max(hi, a[first + 1] + geom::kTwoPi - a[prev]);
  return {lo - kGapSlack, hi + kGapSlack};
}

/// The point pass's per-column flags for the exact-gap pass.
enum : std::uint8_t {
  kPointMany = 1U << 0,       ///< two or more covering directions
  kPointCertified = 1U << 1,  ///< the certified-sufficient words are full
  kPointOpen = 1U << 2,       ///< full view is open: [lo, hi] holds 2*theta
};

/// The unwrapped column c in [-cols, 2 * cols) as a column of the row.
inline std::uint32_t wrap_column(std::int64_t c, std::int64_t cols) {
  return static_cast<std::uint32_t>(c < 0 ? c + cols : (c >= cols ? c - cols : c));
}

}  // namespace

namespace detail {

// The pair stage as the scalar kernel runs it, and the definition the batch
// kernel matches lane for lane: per run and column, `classify_scalar`'s
// arithmetic up to its band test (a band hit is not resolved here but
// replayed), then for a clean covered pair `pseudo_angle` and `locate` of
// its viewed direction, with the boundary-band test of the occupancy step.
PairCounts stats_pairs_scalar(const PairRuns& runs, const PairRow& row) {
  const SectorWalk& t = row.table;
  const std::size_t rec = kRecMasks + row.words;
  const std::size_t last = t.intervals - 1;
  const auto cols = static_cast<std::int64_t>(row.cols);
  PairCounts out;
  for (std::size_t r = 0; r < runs.count; ++r) {
    const std::uint32_t slot = runs.slot[r];
    const double dy = runs.dy[r];
    const double sx = row.pool.sx[slot];
    const double r2 = row.pool.r2[slot];
    const double cu = row.pool.cu[slot];
    const double q = row.pool.q[slot];
    const bool omni = std::bit_cast<std::uint64_t>(row.pool.omni[slot]) != 0;
    const double dy2 = dy * dy;
    const double dysu = dy * row.pool.su[slot];
    for (std::int64_t c = runs.c0[r]; c <= runs.c1[r]; ++c) {
      double dx = row.px[c + cols] - sx;
      if (row.torus) {
        dx -= round_half_away(dx);
        if (dx >= 0.5) {
          dx -= 1.0;
        }
      }
      const double n2 = dx * dx + dy2;
      const double dot = dx * cu + dysu;
      const double diff = dot * std::abs(dot) - q * n2;
      const double band = 1e-9 * n2;
      const bool in_radius = n2 <= r2;
      const bool covered = in_radius & (omni | (diff > band));
      const bool special = (in_radius & !omni & (std::abs(diff) <= band)) | (covered & (n2 == 0.0));
      if (!covered && !special) {
        continue;
      }
      const std::uint32_t col = wrap_column(c, cols);
      bool replay = special;
      if (!special) {
        const double v = pseudo_angle(-dx, -dy);
        std::size_t i = t.bucket[static_cast<std::size_t>(std::min(v * t.bucket_scale,
                                                                     t.bucket_last))];
        while (i < last && v >= t.bounds[i + 1]) {
          ++i;
        }
        replay = v - t.bounds[i] <= kOccupancyBand || t.bounds[i + 1] - v <= kOccupancyBand;
        if (!replay) {
          const auto b = static_cast<std::int32_t>(v * kGapBinScale);
          std::uint64_t* const cr = row.columns + std::size_t{col} * rec;
          const std::uint32_t bw = static_cast<std::uint32_t>(b) & (kGapBins - 1);
          ++cr[kRecCount];
          cr[kRecBins + bw / 64] |= std::uint64_t{1} << (bw % 64);
          const std::uint64_t* const iw = row.interval_words + i * row.words;
          for (std::size_t w = 0; w < row.words; ++w) {
            cr[kRecMasks + w] |= iw[w];
          }
          row.pair_col[out.pairs] = col;
          row.pair_slot[out.pairs] = slot;
          row.pair_bin[out.pairs] = b;
          row.pair_interval[out.pairs] = static_cast<std::int32_t>(i);
          ++out.pairs;
        }
      }
      if (replay) {
        row.replay_col[out.replay] = col;
        row.replay_slot[out.replay] = slot;
        ++out.replay;
      }
    }
  }
  return out;
}

}  // namespace detail

void GridEvalEngine::stats_replay(std::uint32_t col, std::uint32_t slot, const geom::Vec2& p,
                                  GridEvalScratch& scratch, std::size_t& n_pairs) const {
  GridEvalScratch::StatsSweep& st = scratch.stats;
  const detail::EntryClass c = detail::classify_scalar(
      cam_soa_, slot, p, mode_ == geom::SpaceMode::kTorus, net_->cameras(), strip_entries_.data());
  GridEvalCounters* const ctr = scratch.counters;
  if (c.band_hit && ctr != nullptr) [[unlikely]] {
    ++ctr->trig_fallbacks;
  }
  if (!c.covered) {
    return;
  }
  const std::size_t words = sectors_.nec_words + 2 * sectors_.suf_words;
  std::uint64_t* const r = st.columns.data() + std::size_t{col} * (kRecMasks + words);
  std::uint64_t* const mask = r + kRecMasks;
  ++r[kRecCount];
  st.pair_col[n_pairs] = col;
  st.pair_slot[n_pairs] = slot;
  ++n_pairs;
  if (c.n2 == 0.0) {  // a camera at the point: direction 0
    occupy_exact(0.0, mask);
    r[kRecBins] |= 1;
    return;
  }
  // The occupancy step of `occupy_directions`, with the gap bin.
  const double v = detail::pseudo_angle(-c.dx, -c.dy);
  const std::size_t b = static_cast<std::size_t>(v * kGapBinScale) & (kGapBins - 1);
  r[kRecBins + b / 64] |= std::uint64_t{1} << (b % 64);
  if (occupy_direction(v, c.dx, c.dy, mask) && ctr != nullptr) [[unlikely]] {
    ++ctr->atan2_calls;
    ++st.exact[col];
  }
}

void GridEvalEngine::stats_sweep(std::size_t row, GridEvalScratch& scratch, bool tally) const {
  GridEvalScratch::StatsSweep& st = scratch.stats;
  st.engine_gen = 0;
  const SectorTable& t = sectors_;
  const std::size_t cols = grid_.side();
  const auto cols_i = static_cast<std::int64_t>(cols);
  const auto side = static_cast<double>(cols);
  const std::size_t words = t.nec_words + 2 * t.suf_words;
  const std::size_t rec = kRecMasks + words;
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  st.columns.assign(rec * cols, 0);
  if (st.px.size() != 3 * cols + 4) {  // grid x depends on the side alone
    st.px.assign(3 * cols + 4, 0.0);
    for (std::size_t c = 0; c < 3 * cols; ++c) {
      st.px[c] = grid_.point(0, c % cols).x;
    }
  }
  if (st.batch_index.size() != kBatchStride) {
    st.batch_slots.resize(kBatchStride);
    st.batch_index.resize(kBatchStride);
    for (std::size_t b = 0; b < kBatchStride; ++b) {
      st.batch_index[b] = static_cast<std::uint32_t>(b);
    }
    st.consts.resize(kConstStride * kBatchStride);
    st.batch.resize(kBatchFields * kBatchStride);
    st.batch_cols.resize(kColFields * kBatchStride);
    st.run_slot.resize(2 * kSweepBatch);
    st.run_dy.resize(2 * kSweepBatch);
    st.run_c0.resize(2 * kSweepBatch);
    st.run_c1.resize(2 * kSweepBatch);
  }
  GridEvalCounters* const ctr = scratch.counters;
  if (tally) [[unlikely]] {
    st.tried.assign(cols + 1, 0);
  }
  if (ctr != nullptr) [[unlikely]] {
    st.exact.assign(cols, 0);
  }
  std::uint64_t t_mark = ctr != nullptr ? obs::monotonic_ns() : 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t pairs_ns = 0;
  auto lap = [&](std::uint64_t& stage) {
    if (ctr != nullptr) [[unlikely]] {
      const std::uint64_t now = obs::monotonic_ns();
      stage += now - t_mark;
      t_mark = now;
    }
  };

  const double y = grid_.point(row, 0).y;
  double* const fields = st.batch.data();
  const std::int32_t* const b_cols = st.batch_cols.data();
  std::uint32_t* const b_slot = st.batch_slots.data();
  double* const b_dy = fields + detail::kBatchDy * kBatchStride;
  double* const b_r2 = fields + detail::kBatchR2 * kBatchStride;
  // The interval pass reads the batch-local constants through the identity
  // slots; a per-slot table like the boolean sweep's would cost every
  // worker 48 bytes per camera of the network.
  const detail::SweepBatch batch{st.batch_index.data(), st.consts.data(), fields,
                                 st.batch_cols.data(), static_cast<std::int32_t>(cols), torus};
  detail::PairRow pr{{cam_soa_.sx(), cam_soa_.sy(), cam_soa_.r2(), cam_soa_.cu(), cam_soa_.su(),
                      cam_soa_.q(), cam_soa_.omni()},
                     st.px.data(),
                     static_cast<std::int32_t>(cols),
                     torus,
                     t.walk(),
                     t.dense.data(),
                     words,
                     st.columns.data(),
                     nullptr,
                     nullptr,
                     nullptr,
                     nullptr,
                     nullptr,
                     nullptr};
  std::size_t n_pairs = 0;
  std::uint64_t camera_rows = 0;
  std::uint64_t pair_classifies = 0;
  std::uint64_t replays = 0;
  // A reflex wedge's second outer part, as the boolean sweep's scalar pass
  // cuts it (`Cut::col_lo`, `Cut::col_hi` there).
  auto col_lo = [&](double j0, double x) {
    const std::int64_t c = detail::ceil_to_int(j0 + std::min(std::max(x, -4.0), 4.0) * side);
    return torus ? c : std::max<std::int64_t>(c, 0);
  };
  auto col_hi = [&](double j0, double x) {
    const std::int64_t c = detail::floor_to_int(j0 + std::min(std::max(x, -4.0), 4.0) * side);
    return torus ? c : std::min<std::int64_t>(c, cols_i - 1);
  };
  auto run_batch = [&](std::size_t fill) {
    sweep_constants(b_slot, fill, nullptr, st.consts.data());
    kernels_.intervals(batch, fill);
    std::size_t runs = 0;
    std::size_t total = 0;
    auto add_run = [&](std::size_t b, std::int64_t c0, std::int64_t c1) {
      st.run_slot[runs] = b_slot[b];
      st.run_dy[runs] = b_dy[b];
      st.run_c0[runs] = static_cast<std::int32_t>(c0);
      st.run_c1[runs] = static_cast<std::int32_t>(c1);
      total += static_cast<std::size_t>(c1 - c0 + 1);
      ++runs;
    };
    for (std::size_t b = 0; b < fill; ++b) {
      const std::int64_t oc0 = b_cols[kColOuter0 * kBatchStride + b];
      const std::int64_t oc1 = b_cols[kColOuter1 * kBatchStride + b];
      if (oc0 <= oc1) {
        add_run(b, oc0, oc1);
      }
      if ((static_cast<unsigned>(b_cols[kColFlags * kBatchStride + b]) & kBatchReflex) != 0)
          [[unlikely]] {
        const double lo1 = fields[kBatchLo1 * kBatchStride + b];
        const double hi1 = fields[kBatchHi1 * kBatchStride + b];
        if (lo1 <= hi1) {
          // Part 1 lies right of part 0; a column both end on is part 0's.
          const double j0 = fields[kBatchJ0 * kBatchStride + b];
          const std::int64_t pc0 = std::max(col_lo(j0, lo1), oc1 + 1);
          const std::int64_t pc1 = col_hi(j0, hi1);
          if (pc0 <= pc1) {
            add_run(b, pc0, pc1);
          }
        }
      }
    }
    lap(sweep_ns);
    if (st.pair_col.size() < n_pairs + total + 4) {
      st.pair_col.resize(2 * (n_pairs + total + 4));
      st.pair_slot.resize(st.pair_col.size());
    }
    if (st.pair_bin.size() < total + 4) {
      st.pair_bin.resize(2 * (total + 4));
      st.pair_interval.resize(st.pair_bin.size());
    }
    if (st.replay_col.size() < total + 4) {
      st.replay_col.resize(2 * (total + 4));
      st.replay_slot.resize(st.replay_col.size());
    }
    pr.pair_col = st.pair_col.data() + n_pairs;
    pr.pair_slot = st.pair_slot.data() + n_pairs;
    pr.pair_bin = st.pair_bin.data();
    pr.pair_interval = st.pair_interval.data();
    pr.replay_col = st.replay_col.data();
    pr.replay_slot = st.replay_slot.data();
    const detail::PairCounts got = kernels_.pairs(
        {st.run_slot.data(), st.run_dy.data(), st.run_c0.data(), st.run_c1.data(), runs}, pr);
    n_pairs += got.pairs;
    for (std::size_t k = 0; k < got.replay; ++k) {
      const std::uint32_t col = st.replay_col[k];
      stats_replay(col, st.replay_slot[k], {st.px[col], y}, scratch, n_pairs);
    }
    camera_rows += fill;
    pair_classifies += total;
    replays += got.replay;
    if (tally) [[unlikely]] {  // pair classifies per column, as differences
      for (std::size_t r = 0; r < runs; ++r) {
        const std::uint32_t c0 = wrap_column(st.run_c0[r], cols_i);
        const std::size_t end = c0 + static_cast<std::size_t>(st.run_c1[r] - st.run_c0[r]) + 1;
        ++st.tried[c0];
        if (end <= cols) {
          --st.tried[end];
        } else {  // across the seam
          --st.tried[cols];
          ++st.tried[0];
          --st.tried[end - cols];
        }
      }
    }
    lap(pairs_ns);
  };

  // The band's cameras, strip by strip: the exact y prune of
  // `candidates(p)`, as the dispatched band compaction, fills batches.
  const StripBand band = y_band(y);
  const double* const cam_sy = cam_soa_.sy();
  const double* const cam_r2 = cam_soa_.r2();
  std::size_t fill = 0;
  for (std::ptrdiff_t k = 0; k < band.span; ++k) {
    const std::size_t s = band_strip(band, k, false);
    const std::uint32_t s_end = strip_offsets_[s + 1];
    std::uint32_t e = strip_offsets_[s];
    while (e < s_end) {
      const detail::BandScan scan =
          kernels_.band(cam_sy, cam_r2, e, s_end, y, torus,
                        static_cast<std::uint32_t>(kSweepBatch - fill), b_slot + fill,
                        b_dy + fill, b_r2 + fill);
      e = scan.next;
      fill += scan.added;
      if (fill == kSweepBatch) {
        run_batch(fill);
        fill = 0;
      }
    }
  }
  if (fill != 0) {
    run_batch(fill);
  }

  st.pairs = n_pairs;
  if (tally) [[unlikely]] {  // the differences' prefix sums: per column
    for (std::size_t c = 1; c < cols; ++c) {
      st.tried[c] += st.tried[c - 1];
    }
  }
  if (ctr != nullptr) [[unlikely]] {
    ++ctr->stats_rows;
    ctr->stats_camera_rows += camera_rows;
    ctr->stats_pairs += pair_classifies;
    ctr->stats_replays += replays;
    ctr->stats_sweep_ns += sweep_ns;
    ctr->stats_pairs_ns += pairs_ns;
  }
}

void GridEvalEngine::stats_decide_row(std::size_t row, bool first, GridRowStats& acc,
                                      GridEvalScratch& scratch) const {
  GridEvalScratch::StatsSweep& st = scratch.stats;
  const SectorTable& t = sectors_;
  const std::size_t cols = grid_.side();
  const std::size_t wn = t.nec_words;
  const std::size_t ws = t.suf_words;
  const std::size_t words = wn + 2 * ws;
  const std::size_t rec = kRecMasks + words;
  const std::uint64_t* const full = t.full.data();
  const double two_theta = 2.0 * theta_;
  GridEvalCounters* const ctr = scratch.counters;
  std::uint64_t t_mark = ctr != nullptr ? obs::monotonic_ns() : 0;

  // The point pass: counts and sector conditions from the masks, and the
  // gap bounds of every point with two or more directions.
  st.gap_lo.resize(cols);
  st.gap_hi.resize(cols);
  st.flags.resize(cols);
  const double* const a = gap_bin_angles().data();
  for (std::size_t c = 0; c < cols; ++c) {
    const std::uint64_t* const r = st.columns.data() + c * rec;
    const std::uint64_t* const mask = r + kRecMasks;
    const std::uint64_t count = r[kRecCount];
    acc.covered_1 += static_cast<std::size_t>(count != 0);
    acc.k_covered_ok += static_cast<std::size_t>(count >= implied_k_);
    acc.necessary_ok += static_cast<std::size_t>(detail::words_full(mask, full, 0, wn));
    acc.sufficient_ok += static_cast<std::size_t>(detail::words_full(mask, full, wn, wn + ws));
    std::uint8_t flags = 0;
    if (count >= 2) {
      const bool certified = detail::words_full(mask, full, wn + ws, words);
      const GapBounds b = gap_bounds(r + kRecBins, a);
      const bool open = !certified && b.lo <= two_theta && two_theta < b.hi;
      flags = static_cast<std::uint8_t>(kPointMany | (certified ? kPointCertified : 0) |
                                        (open ? kPointOpen : 0));
      st.gap_lo[c] = b.lo;
      st.gap_hi[c] = b.hi;
    }
    st.flags[c] = flags;
  }
  stats_lists(scratch);
  std::uint64_t points_ns = 0;
  if (ctr != nullptr) [[unlikely]] {
    const std::uint64_t now = obs::monotonic_ns();
    points_ns = now - t_mark;
    t_mark = now;
  }

  // The exact-gap pass, in column order: a point takes the exact path over
  // its covering list when full view is open or it could set an extreme.
  for (std::size_t c = 0; c < cols; ++c) {
    const std::uint64_t count = st.columns[c * rec + kRecCount];
    const std::uint8_t flags = st.flags[c];
    const bool first_point = first && c == 0;
    // With at most one direction the oracle's gap is 2*pi - (d - d) = 2*pi.
    double gap = geom::kTwoPi;
    bool full_view = count != 0 && gap <= two_theta;
    bool gap_known = true;
    bool sorted_path = false;
    if ((flags & kPointMany) != 0) {
      sorted_path = (flags & kPointOpen) != 0 || first_point || st.gap_lo[c] <= acc.min_max_gap ||
                    st.gap_hi[c] >= acc.max_max_gap;
      if (sorted_path) {
        list_directions(row, c, scratch);
        gap = max_gap_sorted(scratch.angles).width;
        full_view = gap <= two_theta;
      } else {
        full_view = (flags & kPointCertified) != 0 || st.gap_hi[c] <= two_theta;
        gap_known = false;
      }
    }
    acc.full_view_ok += static_cast<std::size_t>(full_view);
    if (first_point) {
      acc.min_max_gap = acc.max_max_gap = gap;
    } else if (gap_known) {
      acc.min_max_gap = std::min(acc.min_max_gap, gap);
      acc.max_max_gap = std::max(acc.max_max_gap, gap);
    }
    if (ctr != nullptr) [[unlikely]] {
      const auto classified = static_cast<std::uint64_t>(st.tried[c]);
      ++ctr->points;
      ctr->candidates_total += classified;
      ctr->candidates_per_point.add(classified);
      ctr->directions_total += count;
      ctr->occupancy_points += static_cast<std::uint64_t>(!sorted_path && st.exact[c] == 0);
    }
  }
  if (ctr != nullptr) [[unlikely]] {
    ctr->stats_points_ns += points_ns;
    ctr->stats_exact_ns += obs::monotonic_ns() - t_mark;
  }
}

void GridEvalEngine::stats_lists(GridEvalScratch& scratch) const {
  GridEvalScratch::StatsSweep& st = scratch.stats;
  const std::size_t cols = grid_.side();
  const std::size_t rec = kRecMasks + sectors_.nec_words + 2 * sectors_.suf_words;
  // The counts are the list lengths.
  std::vector<std::uint32_t>& off = st.offsets;
  off.resize(cols + 1);
  off[0] = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    off[c + 1] = off[c] + static_cast<std::uint32_t>(st.columns[c * rec + kRecCount]);
  }
  st.list.resize(st.pairs);
  for (std::size_t k = 0; k < st.pairs; ++k) {
    st.list[off[st.pair_col[k]]++] = st.pair_slot[k];
  }
  for (std::size_t c = cols; c > 0; --c) {  // off[c] now ends column c: shift back
    off[c] = off[c - 1];
  }
  off[0] = 0;
}

void GridEvalEngine::stats_point_row(std::size_t row, GridEvalScratch& scratch) const {
  GridEvalScratch::StatsSweep& st = scratch.stats;
  if (st.engine_gen == generation_ && st.row == row) {
    return;
  }
  stats_sweep(row, scratch, true);
  stats_lists(scratch);
  st.engine_gen = generation_;
  st.row = row;
}

void GridEvalEngine::list_directions(std::size_t row, std::size_t col,
                                     GridEvalScratch& scratch) const {
  const GridEvalScratch::StatsSweep& st = scratch.stats;
  const geom::Vec2 p = grid_.point(row, col);
  const double* const cam_sx = cam_soa_.sx();
  const double* const cam_sy = cam_soa_.sy();
  const bool torus = mode_ == geom::SpaceMode::kTorus;
  const std::uint32_t l0 = st.offsets[col];
  const std::uint32_t l1 = st.offsets[col + 1];
  reserve_point(scratch, l1 - l0);
  scratch.angles.clear();
  std::size_t m = 0;
  for (std::uint32_t k = l0; k < l1; ++k) {
    double dx = p.x - cam_sx[st.list[k]];
    double dy = p.y - cam_sy[st.list[k]];
    if (torus) {
      dx -= detail::round_half_away(dx);
      if (dx >= 0.5) {
        dx -= 1.0;
      }
      dy -= detail::round_half_away(dy);
      if (dy >= 0.5) {
        dy -= 1.0;
      }
    }
    if (dx * dx + dy * dy == 0.0) {  // a camera at the point
      scratch.angles.push_back(0.0);
      continue;
    }
    scratch.dxs[m] = dx;
    scratch.dys[m] = dy;
    ++m;
  }
  emit_directions(scratch, m);
  sort_directions(scratch);
}

GridRowStats GridEvalEngine::row_stats(std::size_t row, GridEvalScratch& scratch) const {
  return block_stats(row, row + 1, scratch);
}

GridRowStats GridEvalEngine::block_stats(std::size_t row_begin, std::size_t row_end,
                                         GridEvalScratch& scratch) const {
  GridRowStats acc;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    stats_sweep(row, scratch, scratch.counters != nullptr);
    stats_decide_row(row, row == row_begin, acc, scratch);
  }
  return acc;
}

RegionCoverageStats GridEvalEngine::evaluate(GridEvalScratch& scratch) const {
  const obs::TraceScope scope("engine.evaluate", obs::TraceCategory::kEngine,
                              "points", grid_.size(), "kernel_lanes",
                              kernel_lanes(kernel_));
  return block_stats(0, rows(), scratch).region(grid_.size());
}

}  // namespace fvc::core
