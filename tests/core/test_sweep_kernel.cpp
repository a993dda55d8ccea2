// Lane equality of the row sweep's batch kernels (grid_eval_kernel.hpp):
// under every supported kernel pin, the interval pass, the band
// compaction and the piece stage the engine dispatches (the scalar kernel
// has none) must write, bit for bit (std::bit_cast), what the scalar
// definitions
// (`sweep_intervals_scalar`, `band_scan_scalar`, `sweep_pieces_scalar`)
// write, on every output field and nothing past the batch.  Inputs cover
// the seams of the interval pass: dy = +-0, |dy| at kMinSweepDy and one
// ulp either side, outer half-chords at kMaxHalfChord and one ulp either
// side, wedges from g = -1, 0, 1 and one ulp either side, every
// clip-state and reflex combination, column ends past the +-4 clamp, the
// torus unwrap at dy = +-1/2, 10^5 random lanes, and batch counts 1-9 so
// remainder lanes are covered; and those of the piece stage: core ends on
// and next to sector boundaries, pieces across the torus seam and clamped
// at the plane's ends, saturation patterns for the skip test, sector
// tables from theta = pi down to 0.05 (whose long walks take the scalar
// pass), and the same remainders.  The stats path's pair stage
// (`stats_pairs_scalar`) is held to the same standard.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "fvc/core/camera.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/network.hpp"
#include "fvc/geometry/space.hpp"
#include "support/forced_kernel.hpp"

namespace fvc::core {
namespace {

using namespace detail;  // NOLINT: the kernel's field layout and limits
using testsupport::ForcedKernel;
using testsupport::supported_kernels;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double unit(std::mt19937_64& rng) {
  return std::ldexp(static_cast<double>(rng() >> 11), -53);
}

double up(double v, int ulps) {
  for (; ulps > 0; --ulps) {
    v = std::nextafter(v, kInf);
  }
  for (; ulps < 0; ++ulps) {
    v = std::nextafter(v, -kInf);
  }
  return v;
}

/// One camera's sweep constants, built the way `GridEvalEngine::sweep_constants`
/// builds them, from the two wedge parameters g (core: q + margin, outer:
/// q - margin) and the orientation.
struct Wedge {
  double c, s;
  bool reflex, all, none;
};
Wedge wedge_of(double g) {
  const double ag = std::min(std::abs(g), 1.0);
  const double axis = g < 0.0 ? -1.0 : 1.0;
  return {axis * std::sqrt(ag), axis * std::sqrt(1.0 - ag), g < 0.0, g <= -1.0, g > 1.0};
}
void engine_record(double j0, double cu, double su, double g_core, double g_outer,
                   double* k) {
  const Wedge cw = wedge_of(g_core);
  const Wedge ow = wedge_of(g_outer);
  const double cmx = cu * cw.c + su * cw.s;
  const double cmy = su * cw.c - cu * cw.s;
  const double cpx = cu * cw.c - su * cw.s;
  const double cpy = su * cw.c + cu * cw.s;
  const double omx = cu * ow.c + su * ow.s;
  const double omy = su * ow.c - cu * ow.s;
  const double opx = cu * ow.c - su * ow.s;
  const double opy = su * ow.c + cu * ow.s;
  k[kConstJ0] = j0;
  k[kConstCm] = k[kConstCp] = k[kConstOm] = k[kConstOp] = 0.0;
  const double min_y = std::min(std::min(std::abs(cmy), std::abs(cpy)),
                                std::min(std::abs(omy), std::abs(opy)));
  if (min_y < 1e-9) {
    k[kConstKind] = std::bit_cast<double>(std::uint64_t{kKindUnbounded | kKindNoCore});
    return;
  }
  const double pc = cmy * cpy;
  const double po = omy * opy;
  const double inv = 1.0 / (pc * po);
  k[kConstCm] = cmx * (inv * po * cpy);
  k[kConstCp] = cpx * (inv * po * cmy);
  k[kConstOm] = omx * (inv * pc * opy);
  k[kConstOp] = opx * (inv * pc * omy);
  auto edge = [](bool lower) { return lower ? unsigned{kEdgeLower} : unsigned{kEdgeUpper}; };
  unsigned b = (edge(cmy < 0.0) << kShiftCm) | (edge(cpy > 0.0) << kShiftCp);
  if (ow.all) {
    b |= (kEdgeNone << kShiftOm) | (kEdgeNone << kShiftOp);
  } else {
    b |= (edge(omy < 0.0) << kShiftOm) | (edge(opy > 0.0) << kShiftOp);
    b |= ow.reflex ? kKindOuterReflex : 0U;
  }
  b |= (cw.none ? kKindNoCore : 0U) | (cw.reflex ? kKindCoreReflex : 0U);
  k[kConstKind] = std::bit_cast<double>(std::uint64_t{b});
}

/// A lane of the interval pass: its camera's constants, dy and r^2.
struct Lane {
  double record[kConstStride] = {};
  double dy = 0.0;
  double r2 = 0.0;
};

class IntervalChecker {
 public:
  explicit IntervalChecker(std::int32_t side, bool torus) : side_(side), torus_(torus) {}

  /// Run `lanes` through every pinned variant's pass in batches of
  /// `count`, against the scalar definition.
  void check(const std::vector<Lane>& lanes, std::size_t count) {
    const Kernels scalar = kernels_for(KernelVariant::kScalar);
    for (const KernelVariant v : supported_kernels()) {
      const ForcedKernel pin(v);
      const Kernels kernel = kernels_for(resolve_kernel());
      for (std::size_t at = 0; at < lanes.size(); at += count) {
        const std::size_t n = std::min(count, lanes.size() - at);
        SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(v) << " lanes " << at
                                        << ".." << at + n << " side=" << side_
                                        << " torus=" << torus_);
        run(lanes, at, n, scalar, want_);
        run(lanes, at, n, kernel, got_);
        compare(n);
        for (std::size_t b = 0; b < n; ++b) {
          flags_seen_ |= 1U << want_.cols[kColFlags * kBatchStride + b];
        }
        if (testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }

  /// Bit f is set when some lane's flags (certify and reflex bits) were f.
  [[nodiscard]] unsigned flags_seen() const { return flags_seen_; }

 private:
  struct Out {
    std::vector<std::uint32_t> slots;
    std::vector<double> consts;
    std::vector<double> fields;
    std::vector<std::int32_t> cols;
  };

  void run(const std::vector<Lane>& lanes, std::size_t at, std::size_t n, const Kernels& k,
           Out& out) const {
    // Slot b + 3 holds lane b, so the gathers read scattered slots.
    out.slots.assign(kBatchStride, 0);
    out.consts.assign((n + 3) * kConstStride, std::bit_cast<double>(~std::uint64_t{0}));
    out.fields.assign(kBatchFields * kBatchStride, std::bit_cast<double>(kSentinel));
    out.cols.assign(kColFields * kBatchStride, 0x5A5A5A5A);
    for (std::size_t b = 0; b < n; ++b) {
      const Lane& l = lanes[at + b];
      out.slots[b] = static_cast<std::uint32_t>(n - 1 - b + 3);
      std::copy(l.record, l.record + kConstStride,
                out.consts.begin() + static_cast<std::ptrdiff_t>(out.slots[b] * kConstStride));
      out.fields[kBatchDy * kBatchStride + b] = l.dy;
      out.fields[kBatchR2 * kBatchStride + b] = l.r2;
    }
    const SweepBatch batch{out.slots.data(), out.consts.data(), out.fields.data(),
                           out.cols.data(), side_, torus_};
    k.intervals(batch, n);
  }

  void compare(std::size_t n) const {
    for (std::size_t b = 0; b < kBatchStride; ++b) {
      const bool lane = b < n;
      const bool reflex =
          lane && (want_.cols[kColFlags * kBatchStride + b] & static_cast<int>(kBatchReflex)) != 0;
      for (std::size_t f = 0; f < kBatchFields; ++f) {
        // The reflex x-sets are defined on reflex lanes only.
        if (lane && f >= kBatchLo0 && !reflex) {
          continue;
        }
        const std::size_t i = f * kBatchStride + b;
        ASSERT_EQ(bits(got_.fields[i]), bits(want_.fields[i]))
            << "field " << f << " lane " << b << " of " << n << ": got " << got_.fields[i]
            << " want " << want_.fields[i];
      }
      for (std::size_t f = 0; f < kColFields; ++f) {
        const std::size_t i = f * kBatchStride + b;
        ASSERT_EQ(got_.cols[i], want_.cols[i]) << "column field " << f << " lane " << b
                                               << " of " << n;
      }
    }
  }

  static constexpr std::uint64_t kSentinel = 0x7FF4DEADBEEF0000ULL;
  std::int32_t side_;
  bool torus_;
  Out want_;
  Out got_;
  unsigned flags_seen_ = 0;
};

/// The seams of the pass: dy at +-0, at kMinSweepDy and next to it, and
/// random; r^2 giving an outer half-chord at kMaxHalfChord and next to it,
/// and random; kinds from every clip-state and flag combination and from
/// the engine's construction at g = -1, 0, 1 and one ulp either side;
/// slopes large enough to push column ends past the +-4 clamp.
std::vector<Lane> seam_lanes(std::mt19937_64& rng) {
  std::vector<double> dys = {0.0, -0.0};
  for (int u = -1; u <= 1; ++u) {
    dys.push_back(up(kMinSweepDy, u));
    dys.push_back(-up(kMinSweepDy, u));
  }
  for (int i = 0; i < 4; ++i) {
    dys.push_back(0.3 * (unit(rng) - 0.5));
  }
  // r^2 with sqrt(r2 * (1 + margin) - dy^2) + slack at kMaxHalfChord,
  // at dy = 0, nudged by ulps either side.
  const double h = kMaxHalfChord - kSweepSlackX;
  const double r2_wide = h * h / (1.0 + kChordMargin);
  std::vector<double> r2s = {0.01, 0.2};
  for (int u = -2; u <= 2; ++u) {
    r2s.push_back(up(r2_wide, u));
  }
  std::vector<double> records;  // kConstStride each
  auto push_record = [&](unsigned kind, double scale) {
    records.push_back(unit(rng) * 60.0 - 5.0);
    for (int e = 0; e < 4; ++e) {
      records.push_back(scale * (unit(rng) - 0.5));
    }
    records.push_back(std::bit_cast<double>(std::uint64_t{kind}));
    records.push_back(0.0);
    records.push_back(0.0);
  };
  for (unsigned states = 0; states < 81; ++states) {
    unsigned kind = 0;
    unsigned s = states;
    for (const unsigned shift : {unsigned{kShiftCm}, unsigned{kShiftCp}, unsigned{kShiftOm},
                                 unsigned{kShiftOp}}) {
      kind |= (s % 3) << shift;
      s /= 3;
    }
    for (const unsigned flags : {0U, unsigned{kKindNoCore}, unsigned{kKindCoreReflex},
                                 unsigned{kKindOuterReflex}, kKindCoreReflex | kKindOuterReflex,
                                 kKindNoCore | kKindCoreReflex | kKindOuterReflex}) {
      push_record(kind | flags, states % 2 == 0 ? 4.0 : 4000.0);
    }
  }
  const double margin = 2e-9;  // the engine's wedge margin
  for (const double g : {-1.0, 0.0, 1.0}) {
    for (int u = -1; u <= 1; ++u) {
      const double gu = up(g, u);
      for (const double other : {gu - 2 * margin, gu + 2 * margin, gu}) {
        const double a = unit(rng) * 6.283185307179586;
        records.resize(records.size() + kConstStride);
        engine_record(unit(rng) * 40.0, std::cos(a), std::sin(a), gu, other,
                      records.data() + records.size() - kConstStride);
      }
    }
  }
  std::vector<Lane> lanes;
  const std::size_t n_records = records.size() / kConstStride;
  for (std::size_t r = 0; r < n_records; ++r) {
    for (int pick = 0; pick < 3; ++pick) {
      Lane l;
      std::copy(records.begin() + static_cast<std::ptrdiff_t>(r * kConstStride),
                records.begin() + static_cast<std::ptrdiff_t>((r + 1) * kConstStride), l.record);
      l.dy = dys[rng() % dys.size()];
      l.r2 = r2s[rng() % r2s.size()];
      l.r2 = std::max(l.r2, l.dy * l.dy);  // past the band prune
      lanes.push_back(l);
    }
  }
  return lanes;
}

/// Random lanes from the engine's construction: orientation, fov and
/// radius uniform, dy within the radius.
std::vector<Lane> random_lanes(std::mt19937_64& rng, std::size_t count) {
  std::vector<Lane> lanes(count);
  for (Lane& l : lanes) {
    const double a = unit(rng) * 6.283185307179586;
    const double half_fov = unit(rng) * 3.141592653589793;
    const double c = std::cos(half_fov);
    const double q = c * std::abs(c);
    engine_record(unit(rng) * 80.0 - 0.5, std::cos(a), std::sin(a), q + 2e-9, q - 2e-9,
                  l.record);
    if (rng() % 8 == 0) {  // omnidirectional
      std::fill(l.record + kConstCm, l.record + kConstKind, 0.0);
      l.record[kConstKind] = std::bit_cast<double>(std::uint64_t{kKindUnbounded});
    }
    const double r = 0.6 * unit(rng);
    l.r2 = r * r;
    l.dy = r * (2.0 * unit(rng) - 1.0);
  }
  return lanes;
}

TEST(SweepKernel, IntervalPassMatchesScalarOnSeams) {
  std::mt19937_64 rng(2401);
  const std::vector<Lane> lanes = seam_lanes(rng);
  // Not vacuous: the lanes straddle both degeneracy limits, and every
  // combination of the certify and reflex flags comes out.
  bool wide[2] = {false, false};
  bool small_dy[2] = {false, false};
  for (const Lane& l : lanes) {
    const double ho = std::sqrt(l.r2 * (1.0 + kChordMargin) - l.dy * l.dy) + kSweepSlackX;
    wide[ho >= kMaxHalfChord ? 1 : 0] = true;
    small_dy[std::abs(l.dy) >= kMinSweepDy ? 1 : 0] = true;
  }
  EXPECT_TRUE(wide[0] && wide[1]);
  EXPECT_TRUE(small_dy[0] && small_dy[1]);
  for (const bool torus : {true, false}) {
    for (const std::int32_t side : {1, 7, 83}) {
      IntervalChecker checker(side, torus);
      checker.check(lanes, kSweepBatch);
      ASSERT_FALSE(testing::Test::HasFailure());
      EXPECT_EQ(checker.flags_seen(), 0xFU);
    }
  }
}

TEST(SweepKernel, IntervalPassMatchesScalarOnEveryRemainder) {
  std::mt19937_64 rng(2402);
  const std::vector<Lane> lanes = seam_lanes(rng);
  IntervalChecker checker(48, true);
  for (std::size_t count = 1; count <= 9; ++count) {
    checker.check(lanes, count);
    ASSERT_FALSE(testing::Test::HasFailure()) << "batch count " << count;
  }
}

TEST(SweepKernel, IntervalPassMatchesScalarOnRandomLanes) {
  std::mt19937_64 rng(2403);
  const std::vector<Lane> lanes = random_lanes(rng, 100000);
  IntervalChecker torus(83, true);
  torus.check(lanes, kSweepBatch);
  IntervalChecker plane(83, false);
  plane.check(lanes, kSweepBatch - 3);
}

/// A sector table from a real engine: the engine's `sector_walk`, valid
/// while the engine lives.
struct WalkTable {
  explicit WalkTable(double theta)
      : net({Camera{{0.5, 0.5}, 0.0, 0.1, 2.0, 0}}, fvc::geom::SpaceMode::kTorus),
        engine(net, DenseGrid(8), theta) {}
  Network net;
  GridEvalEngine engine;
};

/// Saturated-column prefix counts over the row twice (`sat` of the piece
/// stage), from a per-column pattern.
std::vector<std::uint32_t> saturation(const std::vector<bool>& saturated) {
  const std::size_t cols = saturated.size();
  std::vector<std::uint32_t> sat(2 * cols + 1, 0);
  for (std::size_t c = 0; c < 2 * cols; ++c) {
    sat[c + 1] = sat[c] + static_cast<std::uint32_t>(saturated[c % cols]);
  }
  return sat;
}

/// The piece stage of every pinned variant that has one (the scalar
/// kernel has none) against the scalar definition, on batches the scalar
/// interval pass prepared from `lanes`: the piece count, the packed pieces
/// and the fallback and skip bits, bitwise.  Batch entries past the count
/// hold junk, as a partial batch's padding may.
class PieceChecker {
 public:
  PieceChecker(const SectorWalk& walk, std::int32_t side, bool torus)
      : walk_(walk), side_(side), torus_(torus) {}

  void check(const std::vector<Lane>& lanes, std::size_t count,
             const std::vector<std::uint32_t>* sat) {
    const std::uint32_t* const sat_p = sat != nullptr ? sat->data() : nullptr;
    for (std::size_t at = 0; at < lanes.size(); at += count) {
      const std::size_t n = std::min(count, lanes.size() - at);
      prepare(lanes, at, n);
      const SweepBatch batch{slots_.data(), consts_.data(), fields_.data(), cols_.data(), side_,
                             torus_};
      const std::size_t want = run(&sweep_pieces_scalar, batch, n, sat_p, want_);
      tally(n, want);
      for (const KernelVariant v : supported_kernels()) {
        const ForcedKernel pin(v);
        const Kernels kernel = kernels_for(resolve_kernel());
        if (kernel.pieces == nullptr) {
          continue;
        }
        SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(v) << " lanes " << at
                                        << ".." << at + n << " side=" << side_
                                        << " torus=" << torus_ << " sat=" << (sat != nullptr));
        const std::size_t got = run(kernel.pieces, batch, n, sat_p, got_);
        ASSERT_EQ(got, want);
        for (std::size_t k = 0; k < want; ++k) {
          ASSERT_EQ(got_.interval[k], want_.interval[k]) << "piece " << k;
          ASSERT_EQ(got_.c0[k], want_.c0[k]) << "piece " << k;
          ASSERT_EQ(got_.c1[k], want_.c1[k]) << "piece " << k;
        }
        for (std::size_t w = 0; w < kSweepBatch / 64; ++w) {
          ASSERT_EQ(got_.bits.fallback[w], want_.bits.fallback[w]) << "fallback word " << w;
          ASSERT_EQ(got_.bits.skip[w], want_.bits.skip[w]) << "skip word " << w;
        }
      }
    }
  }

  /// What the scalar definition produced over every check.
  struct Seen {
    std::size_t pieces = 0;
    std::size_t wrapped = 0;         ///< pieces running past the torus seam
    std::size_t skipped = 0;
    std::size_t fallback = 0;
    std::size_t plain_fallback = 0;  ///< certified non-reflex lanes sent back
  };
  [[nodiscard]] const Seen& seen() const { return seen_; }

 private:
  struct Out {
    std::vector<std::int32_t> buf;
    SweepPieces bits{};
    const std::int32_t* interval = nullptr;
    const std::int32_t* c0 = nullptr;
    const std::int32_t* c1 = nullptr;
  };

  void prepare(const std::vector<Lane>& lanes, std::size_t at, std::size_t n) {
    slots_.assign(kBatchStride, 0);
    consts_.assign((n + 3) * kConstStride, 0.0);
    fields_.assign(kBatchFields * kBatchStride, std::bit_cast<double>(kJunk));
    cols_.assign(kColFields * kBatchStride, 0x5A5A5A5A);
    const double side = static_cast<double>(side_);
    for (std::size_t b = 0; b < n; ++b) {
      const Lane& l = lanes[at + b];
      slots_[b] = static_cast<std::uint32_t>(b + 3);
      double* const k = consts_.data() + std::size_t{slots_[b]} * kConstStride;
      std::copy(l.record, l.record + kConstStride, k);
      // A camera's column origin sx * side - 1/2 lies in [-1/2, side - 1/2]
      // (which keeps its outer columns within a row of the seam).
      if (k[kConstJ0] < -0.5 || k[kConstJ0] > side - 0.5) {
        const double u = k[kConstJ0] + 0.5;
        k[kConstJ0] = u - side * std::floor(u / side) - 0.5;
      }
      fields_[kBatchDy * kBatchStride + b] = l.dy;
      fields_[kBatchR2 * kBatchStride + b] = l.r2;
    }
    sweep_intervals_scalar(
        {slots_.data(), consts_.data(), fields_.data(), cols_.data(), side_, torus_}, n);
  }

  std::size_t run(SweepPiecesFn pieces, const SweepBatch& batch, std::size_t n,
                  const std::uint32_t* sat, Out& out) const {
    out.buf.assign(3 * kPieceCap, 0x3C3C3C3C);
    out.bits = {out.buf.data(), out.buf.data() + kPieceCap, out.buf.data() + 2 * kPieceCap,
                {~0ULL, ~0ULL}, {~0ULL, ~0ULL}};
    out.interval = out.bits.interval;
    out.c0 = out.bits.c0;
    out.c1 = out.bits.c1;
    return pieces(batch, n, walk_, sat, out.bits);
  }

  void tally(std::size_t n, std::size_t pieces) {
    seen_.pieces += pieces;
    for (std::size_t k = 0; k < pieces; ++k) {
      seen_.wrapped += static_cast<std::size_t>(want_.c1[k] >= side_);
    }
    for (std::size_t b = 0; b < n; ++b) {
      const bool skip = ((want_.bits.skip[b / 64] >> (b % 64)) & 1U) != 0;
      const bool back = ((want_.bits.fallback[b / 64] >> (b % 64)) & 1U) != 0;
      seen_.skipped += static_cast<std::size_t>(skip);
      seen_.fallback += static_cast<std::size_t>(back);
      seen_.plain_fallback += static_cast<std::size_t>(
          back && cols_[kColFlags * kBatchStride + b] == static_cast<int>(kBatchCertify));
    }
  }

  static constexpr std::uint64_t kJunk = 0x7FF4DEADBEEF0000ULL;
  SectorWalk walk_;
  std::int32_t side_;
  bool torus_;
  std::vector<std::uint32_t> slots_;
  std::vector<double> consts_;
  std::vector<double> fields_;
  std::vector<std::int32_t> cols_;
  Out want_;
  Out got_;
  Seen seen_;
};

/// Saturation patterns for a row of `side` columns: none saturated, all,
/// and random ones at about a half and nine in ten.
std::vector<std::vector<std::uint32_t>> saturations(std::mt19937_64& rng, std::size_t side) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const double p : {0.0, 1.0, 0.5, 0.9}) {
    std::vector<bool> pattern(side);
    for (std::size_t c = 0; c < side; ++c) {
      pattern[c] = unit(rng) < p;
    }
    out.push_back(saturation(pattern));
  }
  return out;
}

/// Lanes aimed at the walk's seams: wedge edges along an axis or a
/// diagonal (sector boundaries at theta = pi/4, so core ends land on or
/// next to a boundary and the near-boundary cuts run), chords across the
/// torus seam or past the plane's ends, and dy at kMinSweepDy.
std::vector<Lane> walk_seam_lanes(std::mt19937_64& rng, std::int32_t side) {
  std::vector<Lane> lanes;
  const double s = static_cast<double>(side);
  const double j0s[] = {-0.5, -0.5 + 1e-12, 0.0, 0.5, s - 0.5, s - 0.5 - 1e-12, s * unit(rng)};
  const double slopes[] = {0.0, 1.0, -1.0, 0.5, -2.0, 1e-3};
  for (const double j0 : j0s) {
    for (const double cm : slopes) {
      for (const double cp : slopes) {
        for (const double dy : {0.05, -0.05, kMinSweepDy, -kMinSweepDy, 0.2, -0.013}) {
          Lane l;
          l.record[kConstJ0] = j0;
          l.record[kConstCm] = cm;
          l.record[kConstCp] = cp;
          l.record[kConstOm] = cm * 1.001;
          l.record[kConstOp] = cp * 0.999;
          const unsigned kind = (kEdgeLower << kShiftCm) | (kEdgeUpper << kShiftCp) |
                                (kEdgeLower << kShiftOm) | (kEdgeUpper << kShiftOp);
          l.record[kConstKind] = std::bit_cast<double>(std::uint64_t{kind});
          const double r = 0.02 + 0.45 * unit(rng);
          l.r2 = std::max(r * r, dy * dy);
          l.dy = dy;
          lanes.push_back(l);
        }
      }
    }
  }
  std::shuffle(lanes.begin(), lanes.end(), rng);
  return lanes;
}

TEST(SweepKernel, PiecePassMatchesScalarOnRandomLanes) {
  std::mt19937_64 rng(2405);
  const std::vector<Lane> lanes = random_lanes(rng, 40000);
  const WalkTable table(0.7853981633974483);
  for (const bool torus : {true, false}) {
    PieceChecker checker(table.engine.sector_walk(), 83, torus);
    checker.check(lanes, kSweepBatch, nullptr);
    for (const auto& sat : saturations(rng, 83)) {
      checker.check(lanes, kSweepBatch - 3, &sat);
    }
    ASSERT_FALSE(testing::Test::HasFailure());
    // Not vacuous: pieces, seam wraps on the torus, skips and fallbacks.
    EXPECT_GT(checker.seen().pieces, lanes.size());
    EXPECT_EQ(checker.seen().wrapped > 0, torus);
    EXPECT_GT(checker.seen().skipped, 0U);
    EXPECT_GT(checker.seen().fallback, 0U);
  }
}

TEST(SweepKernel, PiecePassMatchesScalarOnSeams) {
  std::mt19937_64 rng(2406);
  std::vector<Lane> lanes = seam_lanes(rng);
  for (const double theta : {0.7853981633974483, 3.141592653589793 / 12.0, 0.3 * 3.141592653589793,
                             3.141592653589793}) {
    const WalkTable table(theta);
    for (const bool torus : {true, false}) {
      for (const std::int32_t side : {1, 7, 83}) {
        std::vector<Lane> all = lanes;
        const std::vector<Lane> walks = walk_seam_lanes(rng, side);
        all.insert(all.end(), walks.begin(), walks.end());
        PieceChecker checker(table.engine.sector_walk(), side, torus);
        checker.check(all, kSweepBatch, nullptr);
        for (const auto& sat : saturations(rng, static_cast<std::size_t>(side))) {
          checker.check(all, kSweepBatch, &sat);
        }
        ASSERT_FALSE(testing::Test::HasFailure()) << "theta=" << theta;
        EXPECT_GT(checker.seen().pieces, 0U);
        if (torus && side > 1) {
          EXPECT_GT(checker.seen().wrapped, 0U);
        }
      }
    }
  }
}

TEST(SweepKernel, PiecePassMatchesScalarOnEveryRemainder) {
  std::mt19937_64 rng(2407);
  std::vector<Lane> lanes = seam_lanes(rng);
  const std::vector<Lane> walks = walk_seam_lanes(rng, 48);
  lanes.insert(lanes.end(), walks.begin(), walks.end());
  const WalkTable table(0.7853981633974483);
  PieceChecker checker(table.engine.sector_walk(), 48, true);
  const std::vector<std::vector<std::uint32_t>> sats = saturations(rng, 48);
  for (std::size_t count = 1; count <= 9; ++count) {
    checker.check(lanes, count, nullptr);
    checker.check(lanes, count, &sats[2]);
    ASSERT_FALSE(testing::Test::HasFailure()) << "batch count " << count;
  }
}

TEST(SweepKernel, PiecePassSendsLongWalksToTheScalarPass) {
  // theta = 0.05: a few hundred sector intervals, so a wide core near the
  // row crosses far more than kMaxWalkSteps of them.
  std::mt19937_64 rng(2408);
  const std::vector<Lane> lanes = random_lanes(rng, 20000);
  const WalkTable table(0.05);
  ASSERT_GT(table.engine.sector_walk().intervals, 100U);
  for (const bool torus : {true, false}) {
    PieceChecker checker(table.engine.sector_walk(), 83, torus);
    checker.check(lanes, kSweepBatch, nullptr);
    ASSERT_FALSE(testing::Test::HasFailure());
    EXPECT_GT(checker.seen().plain_fallback, lanes.size() / 50);
    EXPECT_GT(checker.seen().pieces, 0U);
  }
}

/// Band scans of pool slots [begin, end) at row y under every pinned
/// variant, against the scalar definition: the stop, the count, and the
/// appended slots, dy and r^2, bitwise.
void check_band(const std::vector<double>& sy, const std::vector<double>& r2, double y,
                bool torus, std::uint32_t max_cap) {
  const Kernels scalar = kernels_for(KernelVariant::kScalar);
  const auto len = static_cast<std::uint32_t>(sy.size());
  for (const KernelVariant v : supported_kernels()) {
    const ForcedKernel pin(v);
    const Kernels kernel = kernels_for(resolve_kernel());
    for (std::uint32_t begin = 0; begin < len; ++begin) {
      for (std::uint32_t end = begin; end <= len; ++end) {
        for (std::uint32_t cap = 1; cap <= max_cap; ++cap) {
          std::vector<std::uint32_t> s_want(len + 4), s_got(len + 4);
          std::vector<double> d_want(len + 4), d_got(len + 4), q_want(len + 4), q_got(len + 4);
          const BandScan want = scalar.band(sy.data(), r2.data(), begin, end, y, torus, cap,
                                            s_want.data(), d_want.data(), q_want.data());
          const BandScan got = kernel.band(sy.data(), r2.data(), begin, end, y, torus, cap,
                                           s_got.data(), d_got.data(), q_got.data());
          SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(v) << " y=" << y
                                          << " torus=" << torus << " [" << begin << ", " << end
                                          << ") cap=" << cap);
          ASSERT_EQ(got.next, want.next);
          ASSERT_EQ(got.added, want.added);
          for (std::uint32_t k = 0; k < want.added; ++k) {
            ASSERT_EQ(s_got[k], s_want[k]) << k;
            ASSERT_EQ(bits(d_got[k]), bits(d_want[k])) << k;
            ASSERT_EQ(bits(q_got[k]), bits(q_want[k])) << k;
          }
        }
      }
    }
  }
}

TEST(SweepKernel, BandCompactionMatchesScalarAtTheTorusSeam) {
  // dy = y - sy at exactly +-1/2 (the unwrap's tie, where round_nearest and
  // round_half_away differ), at +-0, and on the prune's boundary
  // dy * dy == r^2.
  for (const double y : {0.5, 0.25, 0.75, 0.0}) {
    std::vector<double> sy = {y - 0.5, y + 0.5, y,           y,
                              y - 0.5, y + 0.5, y - 0.25,    y + 0.25,
                              0.0,     0.5,     0.999999999, up(y, 1)};
    for (double& v : sy) {
      v = v < 0.0 ? v + 1.0 : (v >= 1.0 ? v - 1.0 : v);
    }
    std::vector<double> r2 = {0.25, 0.25, 0.0, 1e-3, 0.2, 0.3, 0.0625, 0.0625, 0.1, 0.1, 1e-20, 0.0};
    check_band(sy, r2, y, true, 5);
    check_band(sy, r2, y, false, 5);
  }
}

TEST(SweepKernel, BandCompactionMatchesScalarOnRandomStrips) {
  std::mt19937_64 rng(2404);
  for (int round = 0; round < 40; ++round) {
    const std::size_t len = 1 + rng() % 19;
    std::vector<double> sy(len);
    std::vector<double> r2(len);
    for (std::size_t i = 0; i < len; ++i) {
      sy[i] = unit(rng);
      const double r = 0.4 * unit(rng);
      r2[i] = r * r;
    }
    const double y = (static_cast<double>(rng() % 64) + 0.5) / 64.0;
    check_band(sy, r2, y, round % 2 == 0, 6);
    ASSERT_FALSE(testing::Test::HasFailure());
  }
}

/// The stats path's pair stage: `count` cameras, each with one run of
/// columns, through every pinned variant's stage against
/// `stats_pairs_scalar`: the counts, the packed covering pairs (column,
/// slot, gap bin, interval), the replay pairs and every column record,
/// bitwise.  Cameras sit on grid points, on the torus seam and near rows,
/// with omni, convex and reflex lenses; runs cross the seam.
void check_pairs(double theta, std::int32_t cols, bool torus, std::mt19937_64& rng) {
  const WalkTable table(theta);
  const SectorWalk walk = table.engine.sector_walk();
  const std::size_t words = 3;
  std::vector<std::uint64_t> interval_words(words * walk.intervals);
  for (std::uint64_t& w : interval_words) {
    w = rng();
  }
  const std::size_t n = 200;
  std::vector<double> sx(n), sy(n), r2(n), cu(n), su(n), q(n), omni(n);
  std::vector<std::uint32_t> slot(n);
  std::vector<double> dy(n);
  std::vector<std::int32_t> c0(n), c1(n);
  const double y = (3.0 + 0.5) / static_cast<double>(cols);
  auto grid_x = [cols](std::int64_t c) {
    return (static_cast<double>(c) + 0.5) / static_cast<double>(cols);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double fovs[] = {2.0 * 3.141592653589793, 2.0, 1.0, 4.0, 3.5};
    const double fov = fovs[rng() % 5];
    const double o = unit(rng) * 6.283185307179586;
    sx[i] = rng() % 4 == 0 ? grid_x(static_cast<std::int64_t>(rng() % cols)) : unit(rng);
    if (rng() % 8 == 0) {
      sx[i] = rng() % 2 == 0 ? 0.0 : std::nextafter(1.0, 0.0);
    }
    sy[i] = rng() % 4 == 0 ? y : y + (unit(rng) - 0.5) * 0.2;
    r2[i] = std::pow(0.02 + unit(rng) * 0.3, 2.0);
    const bool is_omni = fov >= 6.0;
    cu[i] = is_omni ? 0.0 : std::cos(o);
    su[i] = is_omni ? 0.0 : std::sin(o);
    const double ch = std::cos(0.5 * fov);
    q[i] = ch * std::abs(ch);
    omni[i] = is_omni ? std::bit_cast<double>(~std::uint64_t{0}) : 0.0;
    slot[i] = static_cast<std::uint32_t>(i);
    double d = y - sy[i];
    if (torus) {
      d -= std::round(d);
      if (d >= 0.5) {
        d -= 1.0;
      }
    }
    dy[i] = d;
    const auto len = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(cols));
    // Unwrapped runs start in [-cols / 2, cols) and end before 2 * cols.
    const std::int32_t lo =
        torus ? static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(cols + cols / 2)) -
                    cols / 2
              : static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(cols));
    c0[i] = lo;
    c1[i] = torus ? lo + len : std::min(lo + len, cols - 1);
  }
  std::vector<double> px(3 * static_cast<std::size_t>(cols) + 4, 0.0);
  for (std::int32_t c = 0; c < 3 * cols; ++c) {
    px[static_cast<std::size_t>(c)] = grid_x(c % cols);
  }
  const std::size_t cap = n * static_cast<std::size_t>(cols) + 4;
  struct Out {
    std::vector<std::uint64_t> columns;
    std::vector<std::uint32_t> pair_col, pair_slot, replay_col, replay_slot;
    std::vector<std::int32_t> pair_bin, pair_interval;
    PairCounts counts;
  };
  auto run = [&](StatsPairsFn fn) {
    Out o;
    o.columns.assign((kRecMasks + words) * static_cast<std::size_t>(cols), 0);
    o.pair_col.assign(cap, 0);
    o.pair_slot.assign(cap, 0);
    o.pair_bin.assign(cap, 0);
    o.pair_interval.assign(cap, 0);
    o.replay_col.assign(cap, 0);
    o.replay_slot.assign(cap, 0);
    const PairRow row{{sx.data(), sy.data(), r2.data(), cu.data(), su.data(), q.data(), omni.data()},
                      px.data(), cols, torus, walk, interval_words.data(), words,
                      o.columns.data(), o.pair_col.data(), o.pair_slot.data(), o.pair_bin.data(),
                      o.pair_interval.data(), o.replay_col.data(), o.replay_slot.data()};
    o.counts = fn({slot.data(), dy.data(), c0.data(), c1.data(), n}, row);
    return o;
  };
  const Out want = run(&stats_pairs_scalar);
  EXPECT_GT(want.counts.pairs, 0U);
  for (const KernelVariant v : supported_kernels()) {
    const ForcedKernel pin(v);
    SCOPED_TRACE(testing::Message() << "kernel=" << kernel_name(v) << " theta=" << theta
                                    << " cols=" << cols << " torus=" << torus);
    const Out got = run(kernels_for(resolve_kernel()).pairs);
    ASSERT_EQ(got.counts.pairs, want.counts.pairs);
    ASSERT_EQ(got.counts.replay, want.counts.replay);
    for (std::size_t k = 0; k < want.counts.pairs; ++k) {
      ASSERT_EQ(got.pair_col[k], want.pair_col[k]) << k;
      ASSERT_EQ(got.pair_slot[k], want.pair_slot[k]) << k;
      ASSERT_EQ(got.pair_bin[k] & 255, want.pair_bin[k] & 255) << k;
      ASSERT_EQ(got.pair_interval[k], want.pair_interval[k]) << k;
    }
    for (std::size_t k = 0; k < want.counts.replay; ++k) {
      ASSERT_EQ(got.replay_col[k], want.replay_col[k]) << k;
      ASSERT_EQ(got.replay_slot[k], want.replay_slot[k]) << k;
    }
    ASSERT_EQ(got.columns, want.columns);
  }
}

TEST(SweepKernel, PairStageMatchesScalar) {
  std::mt19937_64 rng(2909);
  for (const double theta : {3.141592653589793 / 4.0, 0.05, 3.141592653589793}) {
    for (const std::int32_t cols : {1, 2, 7, 64}) {
      for (const bool torus : {true, false}) {
        check_pairs(theta, cols, torus, rng);
      }
    }
  }
}

}  // namespace
}  // namespace fvc::core
