/// \file candidate_index.hpp
/// \brief Sizing constants of the grid-eval candidate index.
///
/// The batched grid-evaluation engine (grid_eval.hpp) answers one question
/// per grid point: *which cameras might cover this point?*  It answers it
/// with one index, the strip-ordered pool: cameras are binned once by
/// position into y strips (no replication, O(n) build) and their kernel
/// records pooled in strip order, so the cameras whose disc can reach a
/// height y are the pool slots of the few strips its band spans (see
/// docs/ARCHITECTURE.md, "The candidate index").
/// The index only decides which *superset* of the covering cameras the
/// classify kernel inspects; the kernel's exact radius/sector tests decide
/// coverage, so results never depend on the index.

#pragma once

#include <string_view>

namespace fvc::core {

/// Radius-derived sizing rule shared with the legacy per-query
/// SpatialIndex: the strip side targets max_radius / kCellsPerRadius so a
/// candidate window rarely spans more than a handful of cells per axis.
inline constexpr double kCellsPerRadius = 3.0;

/// Radii below this floor are treated as this floor by the sizing rules —
/// shared with SpatialIndex so degenerate zero-radius networks cannot
/// request an unbounded resolution.
inline constexpr double kMinSizingRadius = 1e-6;

/// The largest |coordinate| of a query point from which the indexes take
/// its cell or strip (SpatialIndex, the engine's torus y band).  Up to
/// 2^24 the coverage arithmetic's point - camera displacement rounds by
/// under 2^-28, far inside the one-cell pad either index walks; past it the
/// displacement loses the camera's coordinate (from about 1e16 on, every
/// torus camera sits at displacement 0 on that axis) and the cell index
/// would overflow its integer, so the indexes visit every cell or strip.
inline constexpr double kExactIndexCoord = 16777216.0;

// The one index left; kept so benchmark records can still label the index.
enum class IndexVariant : unsigned char { kStream };
[[nodiscard]] constexpr IndexVariant resolve_index() { return IndexVariant::kStream; }
[[nodiscard]] constexpr std::string_view index_name(IndexVariant) { return "stream"; }

}  // namespace fvc::core
