#include "fvc/sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/metrics.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"

namespace fvc::sim {

void describe(const PoolMetrics& pool, obs::MetricsNode& node) {
  node.set("workers", static_cast<double>(pool.workers.size()));
  node.set("requested_threads", static_cast<double>(pool.requested_threads));
  node.set("grain", static_cast<double>(pool.grain));
  node.add("tasks", static_cast<double>(pool.total_tasks()));
  node.add("blocks", static_cast<double>(pool.total_blocks()));
  node.add("busy_ns", static_cast<double>(pool.total_busy_ns()));
  node.add("idle_ns", static_cast<double>(pool.total_idle_ns()));
  node.add_elapsed_ns(pool.wall_ns);
  node.set("utilization", pool.utilization());
  obs::LogHistogram& per_worker = node.histogram("tasks_per_worker");
  for (const PoolMetrics::Worker& w : pool.workers) {
    per_worker.add(w.tasks);
  }
}

namespace {

constexpr std::size_t kMaxThreads = 64;  ///< workers per section, caller included

/// Set on pool helpers, and on a section's caller while it runs blocks: a
/// parallel_for_blocked call made then is nested and runs inline.
thread_local bool t_in_section = false;

/// One parallel section as its workers see it.
struct Section {
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t workers = 1;
  const ParallelBlockFn* fn = nullptr;
  const obs::CancellationToken* cancel = nullptr;
  std::vector<PoolMetrics::Worker>* slots = nullptr;  ///< null = unmetered
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  ///< guarded by error_mutex

  /// Claim and run blocks as worker `self` until the cursor passes
  /// `count`, the token fires, or a block throws (which drains the cursor).
  void work(std::size_t self) {
    const obs::TraceScope worker_scope("pool.worker", obs::TraceCategory::kPool,
                                       "worker", self);
    PoolMetrics::Worker* const slot = slots != nullptr ? &(*slots)[self] : nullptr;
    while (cancel == nullptr || !cancel->stop_requested()) {
      const std::size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) {
        obs::trace_instant("pool.queue_empty", obs::TraceCategory::kPool,
                           "worker", self);
        return;
      }
      const std::size_t end = std::min(begin + grain, count);
      try {
        const obs::TraceScope block_scope("pool.block", obs::TraceCategory::kPool,
                                          "begin", begin, "count", end - begin);
        const std::uint64_t t0 = slot != nullptr ? obs::monotonic_ns() : 0;
        (*fn)(begin, end, self);
        if (slot != nullptr) {
          slot->busy_ns += obs::monotonic_ns() - t0;
          slot->tasks += end - begin;
          ++slot->blocks;
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
        cursor.store(count, std::memory_order_relaxed);  // drain remaining work
        return;
      }
    }
  }
};

/// The process-wide helpers.  Helper i works as worker i of every section
/// with more than i workers; the caller is worker 0 and waits for its
/// helpers to leave before returning, so a Section outlives its use.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : helpers_) {
      t.join();
    }
  }

  /// Run `s`, starting the helpers it lacks; false (nothing run) when
  /// another thread's section holds the pool.
  bool try_run(Section& s) {
    bool idle = false;
    if (!busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
      return false;
    }
    try {
      const std::lock_guard<std::mutex> lock(mutex_);
      while (helpers_.size() + 1 < s.workers) {
        helpers_.emplace_back(&Pool::helper_main, this, helpers_.size() + 1, epoch_);
      }
      section_ = &s;
      pending_ = s.workers - 1;
      ++epoch_;
    } catch (...) {
      busy_.store(false, std::memory_order_release);
      throw;
    }
    wake_.notify_all();
    t_in_section = true;
    s.work(0);
    t_in_section = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] { return pending_ == 0; });
      section_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return helpers_.size();
  }

 private:
  void helper_main(std::size_t id, std::uint64_t seen) {
    t_in_section = true;
    while (true) {
      Section* s = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
        if (stopping_) {
          return;
        }
        seen = epoch_;
        // Not part of this section, or it ended before this helper woke.
        if (section_ == nullptr || id >= section_->workers) {
          continue;
        }
        s = section_;
      }
      s->work(id);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) {
        done_.notify_one();
      }
    }
  }

  std::atomic<bool> busy_{false};  ///< a section holds the pool
  std::mutex mutex_;               ///< guards every member below
  std::condition_variable wake_;   ///< helpers: new epoch or stopping_
  std::condition_variable done_;   ///< caller: pending_ reached 0
  std::vector<std::thread> helpers_;
  Section* section_ = nullptr;     ///< the running section, or null
  std::uint64_t epoch_ = 0;        ///< sections started so far
  std::size_t pending_ = 0;        ///< helpers still in the section
  bool stopping_ = false;
};

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

std::size_t default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc == 0 ? 1 : hc, 1, kMaxThreads);
}

std::size_t pool_threads() { return pool().size(); }

void parallel_for_blocked(std::size_t count, std::size_t threads, std::size_t grain,
                          const ParallelBlockFn& fn, PoolMetrics* metrics,
                          const obs::CancellationToken* cancel) {
  if (metrics != nullptr) {
    metrics->requested_threads = threads;
    metrics->grain = 0;
    metrics->workers.clear();
    metrics->wall_ns = 0;
  }
  if (count == 0) {
    return;
  }
  Section s;
  s.count = count;
  s.grain = grain == 0 ? 1 : std::min(grain, count);
  s.workers = std::clamp<std::size_t>(threads, 1, std::min(count, kMaxThreads));
  s.fn = &fn;
  s.cancel = cancel;
  std::vector<PoolMetrics::Worker> slots(metrics != nullptr ? s.workers : 0);
  if (metrics != nullptr) {
    metrics->grain = s.grain;
    s.slots = &slots;
  }
  const obs::TraceScope pool_scope("pool.parallel_for", obs::TraceCategory::kPool,
                                   "count", count, "threads", s.workers);
  const std::uint64_t wall_start = metrics != nullptr ? obs::monotonic_ns() : 0;
  if (s.workers == 1 || t_in_section || !pool().try_run(s)) {
    s.workers = 1;
    slots.resize(metrics != nullptr ? 1 : 0);
    s.work(0);
  }
  if (metrics != nullptr) {
    metrics->workers = std::move(slots);
    metrics->wall_ns = obs::monotonic_ns() - wall_start;
  }
  if (s.first_error) {
    std::rethrow_exception(s.first_error);
  }
}

}  // namespace fvc::sim
