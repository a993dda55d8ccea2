/// \file phase_scan.hpp
/// \brief Phase-transition scans around the CSA thresholds (the §VI-C
/// "gap" experiment).
///
/// For a grid of multipliers q, the scan dials the profile's weighted
/// sensing area to q * CSA_necessary(n, theta) and estimates the
/// probabilities of the three whole-grid events.  The paper predicts:
/// below q = 1 the necessary condition (hence coverage) fails with
/// probability bounded away from 0; above s_Sc (~2x s_Nc) full-view
/// coverage is achieved w.h.p.; in between the outcome depends on the
/// actual deployment.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fvc/sim/monte_carlo.hpp"
#include "fvc/sim/trial.hpp"

namespace fvc::sim {

/// One row of a phase scan.
struct PhasePoint {
  std::size_t index = 0;        ///< position in the q grid (the shard unit)
  double q = 0.0;               ///< multiplier of the necessary CSA
  double weighted_area = 0.0;   ///< realized s_c at this point
  GridEventsEstimate events;    ///< MC event probabilities
};

/// Scan configuration.
struct PhaseScanConfig {
  TrialConfig base;             ///< profile shape, n, theta, deployment
  std::vector<double> q_values; ///< multipliers of CSA_necessary
  std::size_t trials = 100;     ///< MC trials per point
  std::uint64_t master_seed = 1;
  std::size_t threads = 0;      ///< 0 = default_thread_count()
  /// Optional observability (see fvc/obs): when `metrics` is non-null each
  /// scan point fills a child node "q_<i>" (`q`, trial/engine/pool
  /// subtrees).  All points' trials run as one scheduler section, so a
  /// point's elapsed time is the scan's wall time from the previous
  /// point's completion to its own, and its `pool` node charges the busy
  /// time inside that interval: summed over the points, both equal the
  /// scan's totals.  When `cancel` fires no further trial is claimed, and
  /// the scan returns the points whose every trial ran (possibly none);
  /// `progress` is reported trial-by-trial across the whole scan, as
  /// progress(trials finished so far, points scanned * trials).
  obs::MetricsNode* metrics = nullptr;
  obs::CancellationToken* cancel = nullptr;
  obs::ProgressFn progress;
  /// When non-empty, scan ONLY these q-grid indices (a shard of
  /// [0, q_values.size()), or the remainder of a resumed scan).  Point i
  /// keeps its seed mix64(master_seed, i) regardless of which process runs
  /// it, so disjoint subsets recombine into the unsharded scan bit-exactly.
  /// Indices must be strictly increasing and < q_values.size().
  std::span<const std::uint64_t> point_indices;
  /// Called after each finished point (the checkpoint hook), strictly in
  /// point order and serialized with the scan's other callbacks, though
  /// not always on the calling thread; a point missing any trial is never
  /// passed to it.
  std::function<void(const PhasePoint& point)> on_point;
};

/// Run the scan.  The base profile's *shape* (group fractions, fov values
/// and radius ratios) is preserved; only the overall sensing-area scale is
/// dialed per point.
[[nodiscard]] std::vector<PhasePoint> run_phase_scan(const PhaseScanConfig& cfg);

/// Checkpoint payload codec for one scan point: [q, weighted_area, then
/// the three (successes, trials) pairs of the events].  The layout is part
/// of the "phase" entry of the fvc.checkpoint/1 format; the point's index
/// travels next to the payload in the checkpoint unit itself.
[[nodiscard]] std::vector<double> encode_phase_point(const PhasePoint& point);
/// Inverse of `encode_phase_point` (index comes from the checkpoint unit);
/// throws std::invalid_argument on a malformed payload.
[[nodiscard]] PhasePoint decode_phase_point(std::uint64_t index,
                                            std::span<const double> payload);

}  // namespace fvc::sim
