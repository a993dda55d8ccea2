/// \file trial.hpp
/// \brief One Monte-Carlo trial: deploy a network, evaluate the grid.

#pragma once

#include <cstdint>
#include <optional>

#include "fvc/core/camera_group.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/network.hpp"

namespace fvc::sim {

/// How sensors are placed.
enum class Deployment {
  kUniform,  ///< exactly n sensors, i.i.d. uniform (Sections III/IV)
  kPoisson,  ///< Poisson(n) sensors, thinned groups (Section V)
};

/// Everything a trial needs except the seed.
struct TrialConfig {
  /// Camera population (defaults to a small homogeneous placeholder so the
  /// struct is default-constructible; real configs always overwrite it).
  core::HeterogeneousProfile profile = core::HeterogeneousProfile::homogeneous(0.1, 1.0);
  std::size_t n = 0;                   ///< population size / Poisson density
  double theta = 0.0;                  ///< effective angle
  Deployment deployment = Deployment::kUniform;
  /// Grid side override; when absent the paper's m = n log n rule is used.
  std::optional<std::size_t> grid_side;

  /// The grid this config evaluates on.
  [[nodiscard]] core::DenseGrid grid() const;
};

/// Validate a config (3 <= n <= core::kMaxCameras, the most cameras the
/// grid engine indexes; theta in (0, pi]); throws on violation, before
/// anything is deployed.
void validate(const TrialConfig& cfg);

/// Deploy one network for this config and seed.
[[nodiscard]] core::Network deploy(const TrialConfig& cfg, std::uint64_t seed);

/// Whole-grid event bits for one trial.  Because the point predicates nest
/// (sufficient => full view => necessary), a single grid pass with early
/// exit computes all three.
struct TrialEvents {
  bool all_necessary = false;
  bool all_full_view = false;
  bool all_sufficient = false;
};

/// Run one trial and report the whole-grid events.
[[nodiscard]] TrialEvents run_trial_events(const TrialConfig& cfg, std::uint64_t seed);

/// Per-trial observability record (see fvc/obs): the engine's gather
/// counters plus the scan shape.  Results are unaffected by collection.
struct TrialMetrics {
  core::GridEvalCounters engine;      ///< fused-kernel counters of the scan
  std::uint64_t engine_build_ns = 0;  ///< candidate-binning time
  std::uint64_t rows_scanned = 0;     ///< rows visited before any early exit
  bool early_exit = false;            ///< necessary condition failed mid-scan
  /// Kernel variant the trial's engine dispatched; nullopt until a trial
  /// runs.  Recorded so run-level exports name the variant the trials
  /// actually used instead of re-resolving after the results are in.
  std::optional<core::KernelVariant> kernel;

  void merge(const TrialMetrics& other) {
    engine.merge(other.engine);
    engine_build_ns += other.engine_build_ns;
    rows_scanned += other.rows_scanned;
    early_exit = early_exit || other.early_exit;
    if (!kernel.has_value()) {
      kernel = other.kernel;
    }
  }
};

/// Metered variant: when `metrics` is non-null, fills it with the trial's
/// engine counters.  Events are identical to the unmetered overload.
[[nodiscard]] TrialEvents run_trial_events(const TrialConfig& cfg, std::uint64_t seed,
                                           TrialMetrics* metrics);

}  // namespace fvc::sim
