/// \file sweep.hpp
/// \brief Parameter-grid helpers shared by the experiment binaries.

#pragma once

#include <cstddef>
#include <vector>

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

}  // namespace fvc::sim
