#include "fvc/sim/phase_scan.hpp"

#include <stdexcept>
#include <string>

#include "fvc/analysis/csa.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/sim/shard.hpp"
#include "fvc/sim/thread_pool.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {

std::vector<PhasePoint> run_phase_scan(const PhaseScanConfig& cfg) {
  if (cfg.q_values.empty()) {
    throw std::invalid_argument("run_phase_scan: need at least one q value");
  }
  if (cfg.trials == 0) {
    throw std::invalid_argument("run_phase_scan: trials must be >= 1");
  }
  for (const double q : cfg.q_values) {
    if (!(q > 0.0)) {
      throw std::invalid_argument("run_phase_scan: q values must be positive");
    }
  }
  validate_units(cfg.point_indices, cfg.q_values.size(), "run_phase_scan: point_indices");
  validate(cfg.base);
  const std::size_t threads =
      cfg.threads == 0 ? default_thread_count() : cfg.threads;
  const double csa_n =
      analysis::csa_necessary(static_cast<double>(cfg.base.n), cfg.base.theta);
  // The points this call actually scans (all of them, or a shard/resume
  // subset); point i keeps seed mix64(master_seed, i) either way.
  const std::size_t n_points =
      cfg.point_indices.empty() ? cfg.q_values.size() : cfg.point_indices.size();
  std::vector<TrialPoint> work(n_points);
  std::vector<PhasePoint> rows(n_points);
  for (std::size_t w = 0; w < n_points; ++w) {
    const std::size_t i =
        cfg.point_indices.empty() ? w : static_cast<std::size_t>(cfg.point_indices[w]);
    const double q = cfg.q_values[i];
    TrialPoint& tp = work[w];
    tp.cfg = cfg.base;
    tp.cfg.profile = cfg.base.profile.with_weighted_area(q * csa_n);
    tp.master_seed = stats::mix64(cfg.master_seed, i);
    if (cfg.metrics != nullptr) {
      tp.metrics = &cfg.metrics->child("q_" + std::to_string(i));
      tp.metrics->set("q", q);
    }
    rows[w].index = i;
    rows[w].q = q;
    rows[w].weighted_area = tp.cfg.profile.weighted_sensing_area();
  }
  RunOptions options;
  options.cancel = cfg.cancel;
  options.progress = cfg.progress;  // already scan-wide: done of n_points * trials
  // Points are reported in order and only when every trial ran, so the
  // reported ones are a prefix of `rows` and a checkpoint never holds a
  // partial point.
  std::size_t reported = 0;
  (void)run_trial_points(work, cfg.trials, threads, options,
                         [&](std::size_t w, const GridEventsEstimate& events) {
                           // Marks the point's completion in the timeline:
                           // its report and checkpoint write.
                           const obs::TraceScope scope("sweep.point",
                                                       obs::TraceCategory::kScan,
                                                       "index", w);
                           rows[w].events = events;
                           if (cfg.on_point) {
                             cfg.on_point(rows[w]);
                           }
                           ++reported;
                         });
  rows.resize(reported);
  return rows;
}

std::vector<double> encode_phase_point(const PhasePoint& point) {
  return {point.q,
          point.weighted_area,
          static_cast<double>(point.events.necessary.successes),
          static_cast<double>(point.events.necessary.trials),
          static_cast<double>(point.events.full_view.successes),
          static_cast<double>(point.events.full_view.trials),
          static_cast<double>(point.events.sufficient.successes),
          static_cast<double>(point.events.sufficient.trials)};
}

PhasePoint decode_phase_point(std::uint64_t index, std::span<const double> payload) {
  if (payload.size() != 8) {
    throw std::invalid_argument("decode_phase_point: payload must hold 8 values");
  }
  for (std::size_t i = 2; i < 8; ++i) {
    if (payload[i] < 0.0 || payload[i] != static_cast<double>(
                                              static_cast<std::uint64_t>(payload[i]))) {
      throw std::invalid_argument(
          "decode_phase_point: counts must be non-negative integers");
    }
  }
  PhasePoint point;
  point.index = static_cast<std::size_t>(index);
  point.q = payload[0];
  point.weighted_area = payload[1];
  point.events.necessary.successes = static_cast<std::size_t>(payload[2]);
  point.events.necessary.trials = static_cast<std::size_t>(payload[3]);
  point.events.full_view.successes = static_cast<std::size_t>(payload[4]);
  point.events.full_view.trials = static_cast<std::size_t>(payload[5]);
  point.events.sufficient.successes = static_cast<std::size_t>(payload[6]);
  point.events.sufficient.trials = static_cast<std::size_t>(payload[7]);
  return point;
}

}  // namespace fvc::sim
