/// \file monte_carlo.hpp
/// \brief Multi-trial estimators over the trial runner.
///
/// Determinism contract: trial t of a run with master seed S is seeded with
/// mix64(S, t), so estimates are bit-identical across thread counts.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fvc/obs/cancellation.hpp"
#include "fvc/sim/trial.hpp"
#include "fvc/stats/confidence.hpp"
#include "fvc/stats/summary.hpp"

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Estimate of a Bernoulli event from repeated trials.
struct EventEstimate {
  std::size_t trials = 0;
  std::size_t successes = 0;

  [[nodiscard]] double p() const;
  [[nodiscard]] stats::Interval wilson(double z = 1.96) const;
};

/// Monte-Carlo estimates of the three whole-grid events.
struct GridEventsEstimate {
  EventEstimate necessary;   ///< P(H_N): grid meets the necessary condition
  EventEstimate full_view;   ///< P(grid exactly full-view covered)
  EventEstimate sufficient;  ///< P(H_S): grid meets the sufficient condition
};

/// Cross-cutting options of a Monte-Carlo run (all optional; none changes
/// the estimate of an uncancelled run).  Trials are claimed one at a time
/// from the process-wide pool (thread_pool.hpp): their costs vary wildly
/// (early exits), and one atomic claim is noise next to a trial.
struct RunOptions {
  /// Cooperative cancellation: polled before every trial is claimed; a
  /// claimed trial always runs.  A cancelled run returns a PARTIAL
  /// estimate over exactly the trials that completed
  /// (`EventEstimate::trials` reflects that count; it is 0 when
  /// cancellation preceded every trial, in which case `p()` is undefined).
  obs::CancellationToken* cancel = nullptr;
  /// Called after every completed trial with (done, total), serialized
  /// under an internal mutex; keep it fast.
  obs::ProgressFn progress;
  /// When non-null, filled with a subtree: `trials` (per-trial wall-time
  /// stats, early-exit counts), `engine` (merged GridEvalEngine counters),
  /// `pool` (worker busy/idle).  Collection never changes the estimates.
  obs::MetricsNode* metrics = nullptr;
  /// When non-empty, run ONLY these trial indices (a shard of [0, trials),
  /// or the not-yet-done remainder of a resumed run).  Each index t still
  /// draws its seed as mix64(master_seed, t), so the union of disjoint
  /// subsets reproduces the unsharded run bit-for-bit.  Indices must be
  /// strictly increasing and < trials.  The returned estimate counts only
  /// the trials this call ran; callers folding a sharded run aggregate
  /// via `on_trial` payloads instead.
  std::span<const std::uint64_t> trial_indices;
  /// Called after every completed trial with its index and events,
  /// serialized under an internal mutex (the checkpoint hook).
  std::function<void(std::uint64_t index, const TrialEvents& events)> on_trial;
};

/// Run `trials` independent trials of `cfg` on `threads` workers and count
/// the whole-grid events: the one-point case of `run_trial_points`.  The
/// estimate is bit-identical for any thread count and any metrics/progress
/// settings whenever the run is not cancelled.
[[nodiscard]] GridEventsEstimate estimate_grid_events(const TrialConfig& cfg,
                                                      std::size_t trials,
                                                      std::uint64_t master_seed,
                                                      std::size_t threads,
                                                      const RunOptions& options = {});

/// One point of a multi-point run: trial t is seeded mix64(master_seed, t),
/// and `metrics` (when non-null) receives the point's subtree.
struct TrialPoint {
  TrialConfig cfg;
  std::uint64_t master_seed = 0;
  obs::MetricsNode* metrics = nullptr;
};

/// Called with a point's position and estimate once its every trial ran.
using PointDoneFn =
    std::function<void(std::size_t point, const GridEventsEstimate& estimate)>;

/// The one loop over event trials: `estimate_grid_events` is its
/// one-point case and `run_phase_scan` its many-point one.  Every
/// (point, trial) unit runs in ONE scheduler section, point-major, so no
/// point waits at a barrier for its slowest trial.  `options` apply as in `estimate_grid_events`, but
/// per point: `metrics` is unused (points carry their own nodes), and
/// `progress` counts all units.  `on_point` fires strictly in point order,
/// serialized with the other callbacks, and never for a point missing a
/// trial.  Returns each point's estimate over the trials that ran.
///
/// Metrics: a point's elapsed time is the section's wall time from the
/// previous point's completion to its own, and its `pool` node charges
/// the workers' busy time inside that interval, so summed over the points
/// both equal the section's totals.
[[nodiscard]] std::vector<GridEventsEstimate> run_trial_points(
    std::span<const TrialPoint> points, std::size_t trials, std::size_t threads,
    const RunOptions& options, const PointDoneFn& on_point = {});

/// Checkpoint payload codec for one trial: the three event bits as
/// doubles, in TrialEvents field order.  The layout is part of the
/// "simulate" entry of the fvc.checkpoint/1 format.
[[nodiscard]] std::vector<double> encode_trial_events(const TrialEvents& events);
/// Inverse of `encode_trial_events`; throws std::invalid_argument when the
/// payload is not three values in {0, 1}.
[[nodiscard]] TrialEvents decode_trial_events(std::span<const double> payload);

/// Fold per-trial events (e.g. decoded from merged checkpoints) into the
/// estimate the uninterrupted run would have produced.  The fold is
/// order-independent — success counts are integer sums — so any shard
/// interleaving yields the same result.
[[nodiscard]] GridEventsEstimate aggregate_grid_events(std::span<const TrialEvents> events);

/// Monte-Carlo estimates of the per-point fractions, i.e. the empirical
/// counterparts of the expected-area probabilities P(F_N,P)-bar, P_N, P_S.
struct FractionEstimate {
  stats::OnlineStats covered_1;
  stats::OnlineStats necessary;
  stats::OnlineStats full_view;
  stats::OnlineStats sufficient;
  stats::OnlineStats k_covered;
  stats::OnlineStats deployed_count;  ///< realized sensor count (Poisson varies)
};

/// Run `trials` trials and accumulate per-trial grid fractions.
[[nodiscard]] FractionEstimate estimate_fractions(const TrialConfig& cfg,
                                                  std::size_t trials,
                                                  std::uint64_t master_seed,
                                                  std::size_t threads);

}  // namespace fvc::sim
