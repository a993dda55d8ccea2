/// \file thread_pool.hpp
/// \brief Work-sharing parallel-for on one process-wide worker pool.
///
/// Workers claim contiguous index *blocks* of `grain` indices (grain 0
/// means 1) from a shared atomic cursor.  A block is the scheduling unit:
/// one callback invocation, one metrics clock pair, one trace slice.
/// Results written into caller-owned per-index (or per-block) slots keep
/// every caller deterministic regardless of thread count or grain.
///
/// Sections run on helper threads that start on first use, grow on demand
/// up to 63 (64 workers with the caller, who is always worker 0) and live
/// until the process exits, so a section starts no thread once the pool
/// has reached its size.
///
/// Observability: with a `PoolMetrics` sink a section records per-worker
/// block/task counts and busy time plus its wall time, so utilization
/// (busy / (workers * wall)) and imbalance show in exported metrics.
/// Without one, no clock is read per block.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fvc::obs {
class CancellationToken;  // fvc/obs/cancellation.hpp
class MetricsNode;        // fvc/obs/run_metrics.hpp
}

namespace fvc::sim {

/// Number of worker threads to use by default: hardware concurrency,
/// clamped to [1, 64].
[[nodiscard]] std::size_t default_thread_count();

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

/// Run `fn(begin, end, worker)` over [0, count) in blocks of `grain`
/// indices (the last block may be short), claimed in ascending order by
/// min(threads, count, 64) workers with ids in [0, threads).  The section
/// runs inline on the caller (worker 0, blocks in order) when it has one
/// worker, when it is nested inside a block, or when another thread's
/// section holds the pool, so concurrent callers never wait on each other.
/// `cancel`, when non-null, is polled before every claim: once it fires
/// nothing more is claimed, but a claimed block always runs.  The first
/// exception a block throws drops the unclaimed blocks and is rethrown
/// here after the section; the pool stays usable.
void parallel_for_blocked(std::size_t count, std::size_t threads, std::size_t grain,
                          const ParallelBlockFn& fn, PoolMetrics* metrics = nullptr,
                          const obs::CancellationToken* cancel = nullptr);

/// Helper threads the process-wide pool has started so far.
[[nodiscard]] std::size_t pool_threads();

/// Export pool utilization into a metrics node: `workers`, `tasks`,
/// `blocks`, `grain`, `busy_ns`, `idle_ns`, `utilization`, plus a
/// per-worker `tasks_per_worker` histogram (imbalance shows up as spread
/// across buckets).
void describe(const PoolMetrics& pool, obs::MetricsNode& node);

}  // namespace fvc::sim
