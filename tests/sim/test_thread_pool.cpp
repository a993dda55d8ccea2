#include "fvc/sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fvc/obs/run_metrics.hpp"

namespace fvc::sim {
namespace {

// Grain-1 per-index driver: every block is exactly one index, so these
// tests pin the scheduler's per-index semantics (visit-once, sequential
// order at one thread, exception drain) at the finest block size.
void for_each_index(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& fn,
                    PoolMetrics* metrics = nullptr) {
  parallel_for_blocked(
      count, threads, 1,
      [&fn](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          fn(i);
        }
      },
      metrics);
}

TEST(DefaultThreadCount, Positive) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_LE(default_thread_count(), 64u);
}

TEST(BlockedGrain1, VisitsEveryIndexOnce) {
  const std::size_t count = 10000;
  std::vector<std::atomic<int>> visits(count);
  for_each_index(count, 8, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(BlockedGrain1, ZeroCountIsNoop) {
  bool called = false;
  for_each_index(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(BlockedGrain1, SingleThreadIsSequential) {
  std::vector<std::size_t> order;
  for_each_index(100, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(BlockedGrain1, ThreadsClampedToCount) {
  // More threads than work items must not deadlock or double-run.
  std::vector<std::atomic<int>> visits(3);
  for_each_index(3, 100, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(BlockedGrain1, ResultsIdenticalAcrossThreadCounts) {
  const std::size_t count = 5000;
  auto run = [count](std::size_t threads) {
    std::vector<double> out(count);
    for_each_index(count, threads,
                   [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double s1 = run(1);
  EXPECT_EQ(run(2), s1);
  EXPECT_EQ(run(7), s1);
  EXPECT_EQ(run(16), s1);
}

TEST(PoolMetrics, AccountsForEveryTask) {
  PoolMetrics pool;
  std::vector<std::atomic<int>> visits(200);
  for_each_index(200, 4, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
  EXPECT_EQ(pool.requested_threads, 4u);
  EXPECT_GE(pool.workers.size(), 1u);
  EXPECT_LE(pool.workers.size(), 4u);
  EXPECT_EQ(pool.total_tasks(), 200u);
  // Busy time is bounded by the section's worker-seconds capacity.
  EXPECT_LE(pool.total_busy_ns(), pool.wall_ns * pool.workers.size());
  EXPECT_EQ(pool.total_idle_ns(),
            pool.wall_ns * pool.workers.size() - pool.total_busy_ns());
}

TEST(PoolMetrics, DegenerateSectionsHaveZeroIdleAndUtilization) {
  // A default-constructed (never-run) section: no workers, no wall time.
  // total_idle_ns() must not underflow and utilization must not divide by
  // zero — both report 0.
  const PoolMetrics never_run;
  EXPECT_EQ(never_run.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(never_run.utilization(), 0.0);

  // A count=0 section leaves the metrics in the same degenerate state.
  PoolMetrics empty;
  for_each_index(0, 4, [](std::size_t) {}, &empty);
  EXPECT_EQ(empty.wall_ns, 0u);
  EXPECT_TRUE(empty.workers.empty());
  EXPECT_EQ(empty.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);

  // Workers but zero wall (timer granularity can produce this): idle is 0,
  // not a wrapped-around huge value.
  PoolMetrics zero_wall;
  zero_wall.workers.resize(2);
  zero_wall.workers[0].busy_ns = 5;
  EXPECT_EQ(zero_wall.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(zero_wall.utilization(), 0.0);
}

TEST(PoolMetrics, UtilizationClampedWhenBusyExceedsCapacity) {
  // Clock skew between the per-block timers and the section wall timer can
  // make summed busy time exceed wall * workers; the accessors saturate
  // instead of reporting idle underflow or utilization > 1.
  PoolMetrics pool;
  pool.wall_ns = 100;
  pool.workers.resize(2);
  pool.workers[0].busy_ns = 150;
  pool.workers[1].busy_ns = 140;  // busy 290 > capacity 200
  EXPECT_EQ(pool.total_idle_ns(), 0u);
  EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);
}

TEST(PoolMetrics, NullPointerMeansUnmetered) {
  // An explicit nullptr must behave exactly like the defaulted argument.
  std::vector<std::size_t> order;
  for_each_index(50, 1, [&](std::size_t i) { order.push_back(i); }, nullptr);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(PoolMetrics, DescribeExportsUtilization) {
  PoolMetrics pool;
  for_each_index(64, 2, [](std::size_t) {}, &pool);
  obs::MetricsNode node("pool");
  describe(pool, node);
  EXPECT_DOUBLE_EQ(node.counter("tasks"), 64.0);
  EXPECT_GE(node.counter("workers"), 1.0);
  EXPECT_DOUBLE_EQ(node.counter("requested_threads"), 2.0);
  EXPECT_GE(node.counter("utilization"), 0.0);
  EXPECT_LE(node.counter("utilization"), 1.0);
  EXPECT_EQ(node.elapsed_ns(), pool.wall_ns);
  ASSERT_NE(node.find_histogram("tasks_per_worker"), nullptr);
  EXPECT_EQ(node.find_histogram("tasks_per_worker")->total(), pool.workers.size());
}

TEST(BlockedGrain1, PropagatesException) {
  EXPECT_THROW(
      for_each_index(100, 4,
                     [](std::size_t i) {
                       if (i == 42) {
                         throw std::runtime_error("boom");
                       }
                     }),
      std::runtime_error);
}

TEST(BlockedGrain1, ExceptionStopsRemainingWork) {
  std::atomic<int> done{0};
  try {
    for_each_index(100000, 4, [&](std::size_t i) {
      if (i == 0) {
        throw std::runtime_error("early");
      }
      done.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // The drain isn't instantaneous, but most work must be skipped.
  EXPECT_LT(done.load(), 100000);
}

// A section started from inside a block runs inline on that block's
// worker (worker id 0, same OS thread) and computes the right answer.
TEST(PersistentPool, NestedCallRunsInlineWithCorrectResults) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::uint64_t> sums(kOuter, 0);
  std::vector<std::atomic<int>> inline_ok(kOuter);
  parallel_for_blocked(kOuter, 4, 1, [&](std::size_t begin, std::size_t, std::size_t) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    std::vector<std::uint64_t> values(kInner, 0);
    bool same_thread = true;
    parallel_for_blocked(kInner, 4, 1,
                         [&](std::size_t b, std::size_t e, std::size_t worker) {
                           same_thread = same_thread && worker == 0 &&
                                         std::this_thread::get_id() == outer_thread;
                           for (std::size_t i = b; i < e; ++i) {
                             values[i] = (begin + 1) * i;
                           }
                         });
    sums[begin] = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
    inline_ok[begin].store(same_thread ? 1 : 0);
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], (o + 1) * (kInner * (kInner - 1) / 2)) << o;
    EXPECT_EQ(inline_ok[o].load(), 1) << o;
  }
}

// Two unrelated threads entering the scheduler at once: one gets the pool,
// the other runs inline; neither waits on the other, and every index of
// both sections runs exactly once.
TEST(PersistentPool, ConcurrentCallersBothComplete) {
  constexpr std::size_t kCount = 4000;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> a(kCount);
    std::vector<std::atomic<int>> b(kCount);
    const auto section = [](std::vector<std::atomic<int>>& visits) {
      for_each_index(kCount, 4, [&](std::size_t i) { visits[i].fetch_add(1); });
    };
    std::thread first(section, std::ref(a));
    std::thread second(section, std::ref(b));
    first.join();
    second.join();
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "round " << round << " index " << i;
      ASSERT_EQ(b[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(PersistentPool, UsableAfterABlockThrows) {
  EXPECT_THROW(for_each_index(1000, 4,
                              [](std::size_t i) {
                                if (i == 7) {
                                  throw std::runtime_error("boom");
                                }
                              }),
               std::runtime_error);
  std::vector<std::atomic<int>> visits(1000);
  PoolMetrics pool;
  for_each_index(1000, 4, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.total_tasks(), 1000u);
}

// The pool is sized once: sequential sections reuse its helpers instead
// of starting threads per call.
TEST(PersistentPool, SequentialSectionsDoNotGrowThePool) {
  for_each_index(64, 4, [](std::size_t) {});
  const std::size_t first_use = pool_threads();
  EXPECT_GE(first_use, 3u);  // grown on demand to at least threads - 1
  std::atomic<std::size_t> ran{0};
  for (int section = 0; section < 200; ++section) {
    for_each_index(16, 4, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 200u * 16u);
  EXPECT_EQ(pool_threads(), first_use);
}

}  // namespace
}  // namespace fvc::sim
