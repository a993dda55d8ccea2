/// \file spatial_index.hpp
/// \brief Toroidal uniform-grid spatial index over camera positions.
///
/// Coverage queries only ever need cameras within the maximum sensing
/// radius of the query point.  A bucket grid with cell size >= that radius
/// reduces each query to a 3x3 cell neighbourhood (with wraparound), which
/// turns the O(n) scan per grid point into O(n r^2) expected work — the
/// difference between minutes and hours for the Theorem-1/2 validations.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fvc/core/candidate_index.hpp"
#include "fvc/geometry/vec2.hpp"

namespace fvc::core {

/// Immutable bucket-grid index over a fixed set of points on the unit torus.
class SpatialIndex {
 public:
  SpatialIndex() = default;

  /// Build an index over `points`, sized so that a query of radius
  /// `query_radius` touches at most a 3x3 cell block.
  /// \pre query_radius > 0
  SpatialIndex(std::span<const geom::Vec2> points, double query_radius);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t cells_per_side() const { return cells_; }

  /// Invoke `fn(index)` for every stored point whose *cell* is within the
  /// 3x3 neighbourhood of `p`'s cell, or for every stored point when a
  /// coordinate of `p` lies beyond kExactIndexCoord (candidate_index.hpp).
  /// Candidates may be farther than the query radius; the caller performs
  /// the exact distance/coverage test.
  template <typename Fn>
  void for_each_candidate(const geom::Vec2& p, Fn&& fn) const {
    if (entries_.empty()) {
      return;
    }
    if (!(std::abs(p.x) <= kExactIndexCoord && std::abs(p.y) <= kExactIndexCoord)) {
      for (const std::uint32_t i : entries_) {
        fn(static_cast<std::size_t>(i));
      }
      return;
    }
    const auto c = static_cast<std::ptrdiff_t>(cells_);
    const auto [cx, cy] = cell_of(p);
    for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
      for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
        const std::size_t bx = static_cast<std::size_t>((cx + dx + c) % c);
        const std::size_t by = static_cast<std::size_t>((cy + dy + c) % c);
        const std::size_t bucket = bx * cells_ + by;
        const std::uint32_t begin = offsets_[bucket];
        const std::uint32_t end = offsets_[bucket + 1];
        for (std::uint32_t i = begin; i < end; ++i) {
          fn(static_cast<std::size_t>(entries_[i]));
        }
        if (c == 1) {
          break;  // single cell: the dy loop would re-visit it
        }
      }
      if (c == 1) {
        break;
      }
    }
  }

  /// Indices of all candidates near `p` (convenience / tests).
  [[nodiscard]] std::vector<std::size_t> candidates(const geom::Vec2& p) const;

 private:
  [[nodiscard]] std::pair<std::ptrdiff_t, std::ptrdiff_t> cell_of(const geom::Vec2& p) const;

  std::size_t cells_ = 0;                ///< cells per side
  std::vector<std::uint32_t> offsets_;   ///< CSR bucket offsets, size cells_^2+1
  std::vector<std::uint32_t> entries_;   ///< point indices grouped by bucket
};

}  // namespace fvc::core
