/// \file thread_pool.hpp
/// \brief Minimal work-sharing parallel-for built on blocked work-claiming.
///
/// Workers claim contiguous index *blocks* of `grain` indices from a shared
/// atomic cursor.  A block is the scheduling unit: one callback invocation,
/// one metrics clock pair, one trace slice — so the per-index cost of the
/// scheduler is `1/grain` atomics and virtual calls, and adjacent indices
/// land on the same worker (contiguous writes, no false sharing on
/// neighbouring result slots).  Trials are embarrassingly parallel and
/// independently seeded, so results written into caller-owned per-index (or
/// per-block) slots keep the engine deterministic regardless of thread
/// count or grain.
///
/// Per-index workloads (Monte-Carlo trials, whose unit costs vary wildly
/// and whose per-unit cost dwarfs one atomic claim) pass grain 1
/// explicitly; grid-row scans use grain 0 to get `choose_grain` (see
/// parallel_region.hpp): at 64-row grids the per-row claim overhead is what
/// made 4 threads *slower* than 1 before the blocked scheduler.  The historical per-index `parallel_for(count, threads, fn)`
/// adapter has been removed — `parallel_for_blocked` is the only entry
/// point.
///
/// Observability: the metered overloads fill an `obs`-style `PoolMetrics`
/// — per-worker block/task counts and busy time, the grain used, plus the
/// wall time of the whole parallel section — so utilization
/// (busy / (workers * wall)) and imbalance are visible in exported metrics.
/// The unmetered overloads take the exact same code path with a null
/// metrics pointer: no clock calls per block, no overhead.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fvc::obs {
class MetricsNode;  // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Number of worker threads to use by default: hardware concurrency,
/// clamped to [1, 64].
[[nodiscard]] std::size_t default_thread_count();

/// Blocks each worker should get a chance to claim when work is split
/// evenly: enough slack to rebalance when block costs vary, small enough
/// that the per-block claim cost stays negligible.
inline constexpr std::size_t kGrainOversubscribe = 4;

/// Block grain for `count` indices over `threads` workers:
/// `count / (threads * kGrainOversubscribe)`, floored at `min_grain`
/// (and always >= 1).  `min_grain` is the caller's lever: row scans pass 1
/// (rows are cheap and plentiful), workloads with a known minimum useful
/// chunk pass it explicitly, and the CLI's `--grain` pins the grain
/// outright instead of going through this heuristic.
[[nodiscard]] std::size_t choose_grain(std::size_t count, std::size_t threads,
                                       std::size_t min_grain = 1);

/// Utilization metrics of one parallel section.  Filled only by the
/// metered overloads; per-worker slots are written by their own worker and
/// aggregated after the join, so no synchronization is involved.
struct PoolMetrics {
  struct Worker {
    std::uint64_t tasks = 0;    ///< indices this worker executed
    std::uint64_t blocks = 0;   ///< cursor claims that held those indices
    std::uint64_t busy_ns = 0;  ///< wall time inside the callback
  };
  std::uint64_t wall_ns = 0;    ///< whole-section wall time (fork to join)
  std::size_t requested_threads = 0;  ///< caller's thread argument
  std::size_t grain = 0;        ///< block grain the section scheduled with
  std::vector<Worker> workers;  ///< one entry per actual worker

  [[nodiscard]] std::uint64_t total_tasks() const {
    std::uint64_t t = 0;
    for (const Worker& w : workers) {
      t += w.tasks;
    }
    return t;
  }
  [[nodiscard]] std::uint64_t total_blocks() const {
    std::uint64_t t = 0;
    for (const Worker& w : workers) {
      t += w.blocks;
    }
    return t;
  }
  [[nodiscard]] std::uint64_t total_busy_ns() const {
    std::uint64_t t = 0;
    for (const Worker& w : workers) {
      t += w.busy_ns;
    }
    return t;
  }
  /// Total idle time: worker-seconds the section held but did not use.
  /// Degenerate sections (no workers ran, zero wall time) and timer skew
  /// (per-block busy sums exceeding the section capacity by a clock
  /// quantum) saturate to 0 instead of wrapping around.
  [[nodiscard]] std::uint64_t total_idle_ns() const {
    if (workers.empty() || wall_ns == 0) {
      return 0;
    }
    const std::uint64_t capacity = wall_ns * workers.size();
    const std::uint64_t busy = total_busy_ns();
    return capacity > busy ? capacity - busy : 0;
  }
  /// busy / (workers * wall) in [0, 1]; 0 for degenerate sections (the
  /// 0/0 case), clamped at 1 under timer skew.
  [[nodiscard]] double utilization() const {
    const double capacity =
        static_cast<double>(wall_ns) * static_cast<double>(workers.size());
    if (capacity <= 0.0) {
      return 0.0;
    }
    const double u = static_cast<double>(total_busy_ns()) / capacity;
    return u < 1.0 ? u : 1.0;
  }
};

/// Block callback: run every index in [begin, end).  `worker` identifies
/// the executing worker (stable in [0, threads)), so callers can key
/// per-worker scratch or counter slots without thread-local state.
using ParallelBlockFn =
    std::function<void(std::size_t begin, std::size_t end, std::size_t worker)>;

/// Run `fn(begin, end, worker)` over [0, count) in contiguous blocks of
/// `grain` indices (the last block may be short; grain 0 means
/// `choose_grain(count, threads)`).  Blocks are claimed from an atomic
/// cursor in ascending order, so work still balances when block costs vary
/// while the scheduler touches the cursor only once per block.  With
/// threads == 1 the blocks run in ascending order on the calling thread.
/// The first exception thrown by any worker is rethrown on the caller's
/// thread after all workers join; remaining unclaimed blocks are dropped.
void parallel_for_blocked(std::size_t count, std::size_t threads, std::size_t grain,
                          const ParallelBlockFn& fn, PoolMetrics* metrics = nullptr);

/// Export pool utilization into a metrics node: `workers`, `tasks`,
/// `blocks`, `grain`, `busy_ns`, `idle_ns`, `utilization`, plus a
/// per-worker `tasks_per_worker` histogram (imbalance shows up as spread
/// across buckets).
void describe(const PoolMetrics& pool, obs::MetricsNode& node);

}  // namespace fvc::sim
