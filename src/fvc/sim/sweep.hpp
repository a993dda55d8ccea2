/// \file sweep.hpp
/// \brief Parameter-grid helpers shared by the experiment binaries.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "fvc/obs/cancellation.hpp"

namespace fvc::sim {

/// `count` evenly spaced values from lo to hi inclusive.
/// \pre count >= 2, lo <= hi — except count == 1, which returns {lo}.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t count);

/// `count` geometrically spaced values from lo to hi inclusive.
/// \pre lo > 0, hi >= lo
[[nodiscard]] std::vector<double> geomspace(double lo, double hi, std::size_t count);

/// Geometric integer grid from lo to hi (both included, deduplicated after
/// rounding); used for population-size sweeps like Figure 8's n axis.
[[nodiscard]] std::vector<std::size_t> geomspace_sizes(std::size_t lo, std::size_t hi,
                                                       std::size_t count);

/// Observability hooks shared by every point-by-point sweep loop.
struct SweepOptions {
  /// Polled before each point; a fired token stops the sweep at a point
  /// boundary (finished points are kept).
  obs::CancellationToken* cancel = nullptr;
  /// Invoked after each finished point as progress(done, count).
  obs::ProgressFn progress;
};

/// Run `fn(i)` for i in [0, count) one point after another: each point
/// gets a "sweep.point" trace slice, the token is polled between points,
/// and progress is reported after each point.  Returns the number of points completed (== count
/// unless cancelled).
std::size_t run_sweep(std::size_t count, const SweepOptions& options,
                      const std::function<void(std::size_t)>& fn);

}  // namespace fvc::sim
