/// \file parallel_region.hpp
/// \brief Block-parallel batched grid evaluation for single deployments.
///
/// The Monte-Carlo estimators parallelize over *trials*, so per-trial grid
/// scans stay serial.  Region statistics of one large deployment (`fvc map
/// --metrics`, tools/bench_scale) instead want parallelism *within* one
/// grid scan.  `evaluate_region_parallel` batches the `GridEvalEngine`
/// over contiguous row blocks through `sim::parallel_for_blocked`: workers
/// claim `grain` rows per atomic cursor claim (grain 0 = 1, the default),
/// evaluate the block through one engine call
/// (`GridEvalEngine::block_stats` — no per-row callback indirection), and
/// write one result slot per block.  Block slots are reduced in block
/// order, which is exactly row order — so the result is bit-identical to
/// the serial scan for every thread count and grain (the determinism
/// contract of monte_carlo.hpp, extended to the batched path; locked by
/// tests/sim/test_determinism.cpp and
/// tests/sim/test_parallel_identity.cpp).

#pragma once

#include <cstddef>

#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Block-parallel `core::evaluate_region`.  Bit-identical to the serial
/// (and scalar) evaluation for any `threads` >= 1 and any `grain`
/// (0 = 1 row per claim), whether or not metrics
/// are collected.
///
/// `metrics` (default null: no collection, no clock calls) selects the
/// metered path: identical statistics (same engine, same block merge), plus
/// a filled subtree under the node:
///   engine  — static shape (bin occupancy, build span) and the merged
///             gather counters (candidate histogram, fallbacks)
///   pool    — worker busy/idle time, block/task counts and the grain of
///             the row loop
///   scan    — span over the whole row scan
/// Gather counters live in per-worker slots merged in worker order; the
/// totals are order-independent sums, so the exported values are
/// deterministic for any thread count and grain.
[[nodiscard]] core::RegionCoverageStats evaluate_region_parallel(
    const core::Network& net, const core::DenseGrid& grid, double theta,
    std::size_t threads, std::size_t grain = 0,
    obs::MetricsNode* metrics = nullptr);

}  // namespace fvc::sim
