// Property suite for the blocked work-claiming scheduler
// (sim::parallel_for_blocked): for arbitrary
// (count, threads, grain) — including the degenerate corners count = 0,
// threads > count, and grain > count — every index is executed exactly
// once, block shapes are contiguous slices of [0, count) aligned to the
// grain, and the metered section accounts for every index and every claim.

#include "fvc/sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "fvc/stats/rng.hpp"

namespace fvc::sim {
namespace {

/// Runs one blocked section and checks every schedule invariant that must
/// hold for ANY (count, threads, grain): exactly-once execution, block
/// alignment, worker-id range, and metrics accounting.
void check_schedule(std::size_t count, std::size_t threads, std::size_t grain) {
  SCOPED_TRACE("count=" + std::to_string(count) + " threads=" +
               std::to_string(threads) + " grain=" + std::to_string(grain));
  std::vector<std::atomic<int>> visits(count);
  const std::size_t clamped_threads =
      count == 0 ? 0 : std::clamp<std::size_t>(threads, 1, count);
  std::mutex shape_mutex;
  std::vector<std::array<std::size_t, 3>> blocks;  // begin, end, worker
  PoolMetrics pool;
  parallel_for_blocked(
      count, threads, grain,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t i = begin; i < end; ++i) {
          visits[i].fetch_add(1);
        }
        const std::lock_guard<std::mutex> lock(shape_mutex);
        blocks.push_back({begin, end, worker});
      },
      &pool);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  // The grain the section actually scheduled with: recorded, in range,
  // and what every block's shape must be aligned to.
  const std::size_t used = pool.grain;
  if (count == 0) {
    EXPECT_EQ(used, 0u);
    EXPECT_TRUE(blocks.empty());
  } else {
    EXPECT_GE(used, 1u);
    EXPECT_LE(used, count);
    if (grain > 0) {
      EXPECT_EQ(used, std::min(grain, count));
    }
  }
  const std::size_t expected_blocks = count == 0 ? 0 : (count + used - 1) / used;
  EXPECT_EQ(blocks.size(), expected_blocks);
  std::vector<bool> block_seen(expected_blocks, false);
  for (const auto& [begin, end, worker] : blocks) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end, count);
    EXPECT_EQ(begin % used, 0u) << "block not aligned to the grain";
    EXPECT_EQ(end, std::min(begin + used, count)) << "short block not last";
    EXPECT_LT(worker, clamped_threads);
    EXPECT_FALSE(block_seen[begin / used]) << "block claimed twice";
    block_seen[begin / used] = true;
  }
  // Metrics account for exactly the indices and claims that ran.
  EXPECT_EQ(pool.requested_threads, threads);
  EXPECT_EQ(pool.total_tasks(), count);
  EXPECT_EQ(pool.total_blocks(), expected_blocks);
  EXPECT_LE(pool.workers.size(), std::max<std::size_t>(clamped_threads, 0));
}

TEST(ParallelSchedule, DegenerateCorners) {
  check_schedule(0, 4, 3);       // count = 0: no callback, empty metrics
  check_schedule(0, 0, 0);       // everything degenerate at once
  check_schedule(1, 1, 1);       // minimal section
  check_schedule(3, 100, 1);     // threads > count
  check_schedule(3, 100, 64);    // threads > count AND grain > count
  check_schedule(5, 2, 64);      // grain > count: one block
  check_schedule(7, 3, 7);       // grain == count
  check_schedule(64, 4, 0);      // grain 0 = 1
  check_schedule(1000, 0, 5);    // threads = 0 clamps to 1
}

TEST(ParallelSchedule, ArbitraryTriples) {
  stats::Pcg32 rng(0xb10cced);
  for (int i = 0; i < 60; ++i) {
    const std::size_t count = rng() % 2000;
    const std::size_t threads = rng() % 12;
    const std::size_t grain = rng() % 96;
    check_schedule(count, threads, grain);
  }
}

TEST(ParallelSchedule, SingleThreadRunsBlocksInAscendingOrder) {
  std::vector<std::size_t> order;
  parallel_for_blocked(20, 1, 3,
                       [&](std::size_t begin, std::size_t end, std::size_t worker) {
                         EXPECT_EQ(worker, 0u);
                         for (std::size_t i = begin; i < end; ++i) {
                           order.push_back(i);
                         }
                       });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelSchedule, ExceptionPropagatesAndDrains) {
  std::atomic<int> ran{0};
  try {
    parallel_for_blocked(100000, 4, 16,
                         [&](std::size_t begin, std::size_t, std::size_t) {
                           if (begin == 0) {
                             throw std::runtime_error("boom");
                           }
                           ran.fetch_add(1);
                         });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), 100000 / 16);
}

TEST(ParallelSchedule, MeteredBusyTimeBoundedByCapacity) {
  PoolMetrics pool;
  parallel_for_blocked(512, 3, 8,
                       [](std::size_t, std::size_t, std::size_t) {}, &pool);
  EXPECT_EQ(pool.grain, 8u);
  EXPECT_EQ(pool.total_tasks(), 512u);
  EXPECT_EQ(pool.total_blocks(), 64u);
  EXPECT_LE(pool.total_busy_ns(), pool.wall_ns * pool.workers.size());
  EXPECT_EQ(pool.total_idle_ns() + pool.total_busy_ns(),
            pool.wall_ns * pool.workers.size());
}

}  // namespace
}  // namespace fvc::sim
