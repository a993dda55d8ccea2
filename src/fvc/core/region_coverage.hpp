/// \file region_coverage.hpp
/// \brief Region-level coverage evaluation over a dense grid.
///
/// These evaluators aggregate the point predicates of full_view.hpp over a
/// `DenseGrid`, producing both the per-point fractions (the expected-area
/// interpretation of P_N / P_S in Section V) and the all-points events
/// (H_N, H_S and exact full-view coverage of the whole grid) used in the
/// Theorem 1 and 2 validations.

#pragma once

#include <cstddef>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"

namespace fvc::core {

/// Per-grid aggregate counts for one deployment.
struct RegionCoverageStats {
  std::size_t total_points = 0;
  std::size_t covered_1 = 0;        ///< 1-covered points
  std::size_t necessary_ok = 0;     ///< points meeting the necessary condition
  std::size_t full_view_ok = 0;     ///< points exactly full-view covered
  std::size_t sufficient_ok = 0;    ///< points meeting the sufficient condition
  std::size_t k_covered_ok = 0;     ///< points k-covered with k = ceil(pi/theta)
  double min_max_gap = 0.0;         ///< smallest max-gap over grid points
  double max_max_gap = 0.0;         ///< largest max-gap over grid points

  [[nodiscard]] double fraction_covered_1() const;
  [[nodiscard]] double fraction_necessary() const;
  [[nodiscard]] double fraction_full_view() const;
  [[nodiscard]] double fraction_sufficient() const;
  [[nodiscard]] double fraction_k_covered() const;

  /// Whole-grid events.
  [[nodiscard]] bool all_necessary() const { return necessary_ok == total_points; }
  [[nodiscard]] bool all_full_view() const { return full_view_ok == total_points; }
  [[nodiscard]] bool all_sufficient() const { return sufficient_ok == total_points; }
};

/// Evaluate every predicate at every grid point.  O(grid * candidates).
/// Backed by the batched `GridEvalEngine` (see grid_eval.hpp); bit-identical
/// to `evaluate_region_scalar`.
[[nodiscard]] RegionCoverageStats evaluate_region(const Network& net, const DenseGrid& grid,
                                                  double theta);

/// The original point-at-a-time evaluation.  Kept as the reference oracle
/// for the batched engine's differential tests; prefer `evaluate_region`
/// everywhere else.
[[nodiscard]] RegionCoverageStats evaluate_region_scalar(const Network& net,
                                                         const DenseGrid& grid,
                                                         double theta);

/// Early-exit whole-grid events (cheaper than evaluate_region when only the
/// event bit is needed, as in the Monte-Carlo threshold scans).
[[nodiscard]] bool grid_all_necessary(const Network& net, const DenseGrid& grid,
                                      double theta);
[[nodiscard]] bool grid_all_sufficient(const Network& net, const DenseGrid& grid,
                                       double theta);
[[nodiscard]] bool grid_all_full_view(const Network& net, const DenseGrid& grid,
                                      double theta);
[[nodiscard]] bool grid_all_k_covered(const Network& net, const DenseGrid& grid,
                                      std::size_t k);

/// The minimum full-view degree over the grid: the largest k such that
/// EVERY grid point is k-full-view covered (0 when some point is not even
/// full-view covered).  One pass over the grid.
[[nodiscard]] std::size_t min_full_view_degree(const Network& net, const DenseGrid& grid,
                                               double theta);

/// Fraction of grid points that are k-full-view covered with `theta`.
[[nodiscard]] double fraction_k_full_view(const Network& net, const DenseGrid& grid,
                                          double theta, std::size_t k);

}  // namespace fvc::core
