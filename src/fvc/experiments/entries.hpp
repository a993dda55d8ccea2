/// \file entries.hpp
/// \brief The experiment functions experiment_table() lists, and the small
/// helpers they share.  Internal to src/fvc/experiments.

#pragma once

#include <cmath>
#include <cstddef>

#include "fvc/core/camera_group.hpp"
#include "fvc/experiments/experiments.hpp"

namespace fvc::experiments {

// paper.cpp: the paper's own evaluation (Sections VI and VII).
Report fig7();
Report fig8();
Report thm1_necessary();
Report thm2_sufficient();
Report thm3_poisson_necessary();
Report thm4_poisson_sufficient();
Report area_equivalence();
Report gap_phase();
Report one_coverage();
Report k_coverage();
Report wang_cao();
Report heterogeneity();

// extensions.cpp: the paper's future-work topics and related-work threads.
Report barrier();
Report k_full_view();
Report probabilistic();
Report exact_theory();
Report conjecture();
Report connectivity();
Report mobility();
Report duty_cycle();

// ablations.cpp: the model assumptions of Section II-A, relaxed one at a
// time, and the engineering responses to the band.
Report boundary();
Report repair();
Report steering();
Report occlusion();
Report orientation_bias();
Report aim();
Report provision();
Report cluster();

/// Homogeneous fleet whose per-camera sensing area phi r^2 / 2 is `area`.
inline core::HeterogeneousProfile fleet_with_area(double area, double fov) {
  return core::HeterogeneousProfile::homogeneous(std::sqrt(2.0 * area / fov), fov);
}

/// hits / total as a probability.
inline double share(std::size_t hits, std::size_t total) {
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace fvc::experiments
