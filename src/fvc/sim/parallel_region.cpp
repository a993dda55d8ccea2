#include "fvc/sim/parallel_region.hpp"

#include <algorithm>
#include <vector>

#include "fvc/core/grid_eval.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/thread_pool.hpp"

namespace fvc::sim {

namespace {

/// Scheduling shape of one blocked row scan, resolved once so the block
/// callback, the slot allocation and the reduction all agree on it.
struct BlockPlan {
  std::size_t workers = 0;  ///< clamped worker count (slot key range)
  std::size_t grain = 0;    ///< resolved rows per block (>= 1)
  std::size_t blocks = 0;   ///< ceil(rows / grain)
};

BlockPlan plan_blocks(std::size_t rows, std::size_t threads, std::size_t grain) {
  BlockPlan plan;
  if (rows == 0) {
    return plan;
  }
  plan.workers = std::clamp<std::size_t>(threads, 1, rows);
  plan.grain = grain == 0 ? 1 : std::min(grain, rows);
  plan.blocks = (rows + plan.grain - 1) / plan.grain;
  return plan;
}

/// Shared core of the metered/unmetered row scans.  Workers claim `grain`
/// contiguous rows per cursor claim and fuse them through one
/// `block_stats` engine call, writing one slot per block; the slots are
/// reduced in block order, which is exactly row order, so the totals are
/// bit-identical to the serial scan for every thread count and grain.
/// `counter_slots` is either empty (metrics off) or one `GridEvalCounters`
/// per worker — the totals are order-independent sums, so merging the
/// worker slots in worker order is deterministic even though which rows a
/// worker ran is not.
core::RegionCoverageStats scan_rows(const core::GridEvalEngine& engine,
                                    const core::DenseGrid& grid, const BlockPlan& plan,
                                    std::vector<core::GridEvalCounters>* counter_slots,
                                    PoolMetrics* pool) {
  const std::size_t rows = engine.rows();
  std::vector<core::GridRowStats> block_stats(plan.blocks);
  parallel_for_blocked(
      rows, plan.workers, plan.grain,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        // One scratch per worker thread: the stats sweep's per-row buffers
        // are reused across rows and blocks, with no cross-thread sharing.
        thread_local core::GridEvalScratch scratch;
        scratch.counters =
            counter_slots != nullptr ? &(*counter_slots)[worker] : nullptr;
        block_stats[begin / plan.grain] = engine.block_stats(begin, end, scratch);
        scratch.counters = nullptr;  // scratch outlives this call (thread_local)
      },
      pool);
  // Reduce in block order.  Each block was folded over its rows in row
  // order, so this fold replays the serial scan's row-order reduction
  // exactly (regrouped associatively): bit-identical totals regardless of
  // which worker ran which block.
  core::GridRowStats acc;
  for (std::size_t block = 0; block < plan.blocks; ++block) {
    acc.fold(block_stats[block], block == 0);
  }
  return acc.region(grid.size());
}

}  // namespace

core::RegionCoverageStats evaluate_region_parallel(const core::Network& net,
                                                   const core::DenseGrid& grid,
                                                   double theta, std::size_t threads,
                                                   std::size_t grain,
                                                   obs::MetricsNode* metrics) {
  const core::GridEvalEngine engine(net, grid, theta);
  const BlockPlan plan = plan_blocks(engine.rows(), threads, grain);
  if (metrics == nullptr) {
    return scan_rows(engine, grid, plan, nullptr, nullptr);
  }
  std::vector<core::GridEvalCounters> counter_slots(plan.workers);
  PoolMetrics pool;
  core::RegionCoverageStats stats;
  {
    const obs::Span scan_span(metrics->child("scan"));
    stats = scan_rows(engine, grid, plan, &counter_slots, &pool);
  }
  obs::MetricsNode& engine_node = metrics->child("engine");
  engine.describe(engine_node);
  core::GridEvalCounters merged;
  for (const core::GridEvalCounters& c : counter_slots) {
    merged.merge(c);
  }
  merged.describe(engine_node);
  describe(pool, metrics->child("pool"));
  return stats;
}

}  // namespace fvc::sim
