#include "fvc/sim/trial.hpp"

#include <stdexcept>
#include <string>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/deploy/poisson.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {

core::DenseGrid TrialConfig::grid() const {
  if (grid_side.has_value()) {
    return core::DenseGrid(*grid_side);
  }
  return core::DenseGrid::for_network_size(n);
}

void validate(const TrialConfig& cfg) {
  if (cfg.n < 3) {
    throw std::invalid_argument("TrialConfig: n must be >= 3");
  }
  if (cfg.n > core::kMaxCameras) {
    throw std::invalid_argument("TrialConfig: n = " + std::to_string(cfg.n) +
                                " exceeds " + std::to_string(core::kMaxCameras) +
                                ", the most cameras the grid engine indexes");
  }
  core::validate_theta(cfg.theta);
  if (cfg.grid_side.has_value() && *cfg.grid_side == 0) {
    throw std::invalid_argument("TrialConfig: grid_side must be >= 1");
  }
}

core::Network deploy(const TrialConfig& cfg, std::uint64_t seed) {
  validate(cfg);
  stats::Pcg32 rng = stats::make_child_rng(seed, 0);
  switch (cfg.deployment) {
    case Deployment::kUniform:
      return deploy::deploy_uniform_network(cfg.profile, cfg.n, rng);
    case Deployment::kPoisson:
      return deploy::deploy_poisson_network(cfg.profile, static_cast<double>(cfg.n), rng);
  }
  throw std::logic_error("deploy: unknown deployment scheme");
}

TrialEvents run_trial_events(const TrialConfig& cfg, std::uint64_t seed) {
  return run_trial_events(cfg, seed, nullptr);
}

TrialEvents run_trial_events(const TrialConfig& cfg, std::uint64_t seed,
                             TrialMetrics* metrics) {
  const core::Network net = deploy(cfg, seed);
  const core::DenseGrid grid = cfg.grid();
  // Batched row evaluation (trials are already parallel across workers, so
  // the per-trial scan stays serial).  Per-point nesting is preserved: a
  // necessary-condition failure anywhere fails everything, and predicates
  // already falsified on earlier rows are skipped.
  const core::GridEvalEngine engine(net, grid, cfg.theta);
  // One scratch per worker thread, reused across trials, so the row
  // slice and row sweep buffers are allocated once, not per trial (their
  // cache keys carry the engine's generation, so no stale row is served).
  // Only this function touches it, and it sets `counters` on every call.
  thread_local core::GridEvalScratch scratch;
  scratch.counters = nullptr;
  if (metrics != nullptr) {
    metrics->engine_build_ns += engine.build_ns();
    metrics->kernel = engine.kernel();
    scratch.counters = &metrics->engine;
  }
  TrialEvents ev{true, true, true};
  const obs::TraceScope scan_scope("engine.scan", obs::TraceCategory::kEngine,
                                   "points", grid.size(), "kernel_lanes",
                                   core::kernel_lanes(engine.kernel()));
  for (std::size_t row = 0; row < engine.rows(); ++row) {
    const core::GridRowEvents re =
        engine.row_events(row, scratch, ev.all_full_view, ev.all_sufficient);
    if (metrics != nullptr) {
      ++metrics->rows_scanned;
    }
    if (!re.all_necessary) {
      if (metrics != nullptr) {
        metrics->early_exit = true;
      }
      return {false, false, false};
    }
    ev.all_full_view = ev.all_full_view && re.all_full_view;
    ev.all_sufficient = ev.all_sufficient && re.all_sufficient;
  }
  return ev;
}

}  // namespace fvc::sim
