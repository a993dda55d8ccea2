#include "fvc/sim/adaptive.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

#include "fvc/sim/thread_pool.hpp"

namespace fvc::sim {

void AdaptiveConfig::validate() const {
  if (!(max_ci_width > 0.0) || max_ci_width >= 1.0) {
    throw std::invalid_argument("AdaptiveConfig: max_ci_width must be in (0, 1)");
  }
  if (batch == 0) {
    throw std::invalid_argument("AdaptiveConfig: batch must be >= 1");
  }
  if (min_trials == 0 || min_trials > max_trials) {
    throw std::invalid_argument("AdaptiveConfig: need 1 <= min_trials <= max_trials");
  }
}

AdaptiveEstimate estimate_events_adaptive(const TrialConfig& trial_cfg,
                                          const AdaptiveConfig& cfg,
                                          std::uint64_t master_seed) {
  cfg.validate();
  const std::size_t threads = cfg.threads == 0 ? default_thread_count() : cfg.threads;

  AdaptiveEstimate result;
  std::size_t next_trial = 0;
  while (next_trial < cfg.max_trials) {
    // Trials [next_trial, next_trial + count) of one max_trials-long run.
    std::vector<std::uint64_t> batch(std::min(cfg.batch, cfg.max_trials - next_trial));
    std::iota(batch.begin(), batch.end(), next_trial);
    RunOptions options;
    options.trial_indices = batch;
    const GridEventsEstimate est =
        estimate_grid_events(trial_cfg, cfg.max_trials, master_seed, threads, options);
    next_trial += batch.size();
    result.events.necessary.successes += est.necessary.successes;
    result.events.full_view.successes += est.full_view.successes;
    result.events.sufficient.successes += est.sufficient.successes;
    result.events.necessary.trials = next_trial;
    result.events.full_view.trials = next_trial;
    result.events.sufficient.trials = next_trial;

    if (next_trial < cfg.min_trials) {
      continue;
    }
    const EventEstimate& target = cfg.target == TargetEvent::kNecessary
                                      ? result.events.necessary
                                      : cfg.target == TargetEvent::kFullView
                                            ? result.events.full_view
                                            : result.events.sufficient;
    if (target.wilson().width() <= cfg.max_ci_width) {
      result.converged = true;
      break;
    }
  }
  result.trials_used = next_trial;
  return result;
}

}  // namespace fvc::sim
