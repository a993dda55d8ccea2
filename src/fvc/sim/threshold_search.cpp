#include "fvc/sim/threshold_search.hpp"

#include <stdexcept>

#include "fvc/obs/trace.hpp"
#include "fvc/sim/shard.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {

double find_threshold(const ProbabilityAt& estimate, const ThresholdSearchConfig& config) {
  if (!(config.q_lo < config.q_hi)) {
    throw std::invalid_argument("find_threshold: need q_lo < q_hi");
  }
  if (!(config.target > 0.0) || !(config.target < 1.0)) {
    throw std::invalid_argument("find_threshold: target must be in (0, 1)");
  }
  if (config.iterations < 1) {
    throw std::invalid_argument("find_threshold: need at least one iteration");
  }
  if (!estimate) {
    throw std::invalid_argument("find_threshold: estimator must be callable");
  }
  double lo = config.q_lo;
  double hi = config.q_hi;
  for (int iter = 0; iter < config.iterations; ++iter) {
    if (config.cancel != nullptr && config.cancel->stop_requested()) {
      break;  // return the bracket narrowed so far
    }
    const double mid = 0.5 * (lo + hi);
    double p = 0.0;
    {
      const obs::TraceScope scope("threshold.step", obs::TraceCategory::kScan,
                                  "step", static_cast<std::uint64_t>(iter));
      p = estimate(mid, stats::mix64(config.seed, static_cast<std::uint64_t>(iter)));
    }
    if (p < config.target) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (config.progress) {
      config.progress(static_cast<std::size_t>(iter) + 1,
                      static_cast<std::size_t>(config.iterations));
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<ThresholdOutcome> run_threshold_repeats(const ProbabilityAt& estimate,
                                                    const ThresholdRepeatConfig& config) {
  if (config.repeats == 0) {
    throw std::invalid_argument("run_threshold_repeats: repeats must be >= 1");
  }
  validate_units(config.repeat_indices, config.repeats,
                 "run_threshold_repeats: repeat_indices");
  const std::size_t count = config.repeat_indices.empty()
                                ? config.repeats
                                : config.repeat_indices.size();
  std::vector<ThresholdOutcome> outcomes;
  outcomes.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    if (config.base.cancel != nullptr && config.base.cancel->stop_requested()) {
      break;  // finished repeats only; a partial bisection is not resumable
    }
    const std::uint64_t r =
        config.repeat_indices.empty() ? w : config.repeat_indices[w];
    ThresholdSearchConfig repeat_cfg = config.base;
    repeat_cfg.seed = stats::mix64(config.base.seed, r);
    // The per-repeat cancel stays wired so a mid-bisection SIGINT still
    // stops promptly — but a repeat it interrupted is discarded below, not
    // reported as finished.
    repeat_cfg.progress = {};
    const double q = find_threshold(estimate, repeat_cfg);
    if (config.base.cancel != nullptr && config.base.cancel->stop_requested()) {
      break;  // this repeat was cut short mid-bisection; drop it
    }
    outcomes.push_back(ThresholdOutcome{r, q});
    if (config.on_repeat) {
      config.on_repeat(outcomes.back());
    }
    if (config.base.progress) {
      config.base.progress(w + 1, count);
    }
  }
  return outcomes;
}

}  // namespace fvc::sim
