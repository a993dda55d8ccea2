#include "fvc/sim/monte_carlo.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "fvc/core/grid_eval.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/sim/shard.hpp"
#include "fvc/sim/thread_pool.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {

double EventEstimate::p() const {
  return stats::proportion(successes, trials);
}

stats::Interval EventEstimate::wilson(double z) const {
  return stats::wilson_interval(successes, trials, z);
}

namespace {

/// Metered record of one (point, trial) unit.
struct UnitMeter {
  TrialMetrics metrics;
  std::uint64_t start_ns = 0;
  std::uint64_t ns = 0;
  std::size_t worker = 0;
};

/// Fill the subtree of the point whose units are [first, last) of `meters`
/// (the units that ran): `trials` (wall-time stats, early exits), `engine`
/// (merged counters) and `pool`, which charges the busy time of EVERY unit
/// inside the point's interval [from, to).
void describe_point(obs::MetricsNode& node, std::size_t work, std::size_t first,
                    std::size_t last, std::span<const UnitMeter> meters,
                    std::uint64_t from, std::uint64_t to, const PoolMetrics& section) {
  node.add_elapsed_ns(to - from);
  PoolMetrics pool = section;
  pool.wall_ns = to - from;
  pool.workers.assign(section.workers.size(), {});
  for (const UnitMeter& m : meters) {
    const std::uint64_t begin = std::max(m.start_ns, from);
    const std::uint64_t end = std::min(m.start_ns + m.ns, to);
    pool.workers[m.worker].busy_ns += end > begin ? end - begin : 0;
  }
  obs::MetricsNode& trials_node = node.child("trials");
  obs::LogHistogram& trial_us = trials_node.histogram("trial_us");
  std::size_t early_exits = 0;
  obs::DurationStats trial_time;
  TrialMetrics merged;
  for (const UnitMeter& m : meters.subspan(first, last - first)) {
    ++pool.workers[m.worker].tasks;
    ++pool.workers[m.worker].blocks;
    early_exits += m.metrics.early_exit ? 1 : 0;
    trial_time.add(m.ns);
    trial_us.add(m.ns / 1000);
    merged.merge(m.metrics);
  }
  trials_node.set("trials_requested", static_cast<double>(work));
  trials_node.set("trials_run", static_cast<double>(last - first));
  trials_node.set("trials_cancelled", static_cast<double>(work - (last - first)));
  trials_node.set("early_exit_necessary", static_cast<double>(early_exits));
  trials_node.set("rows_scanned", static_cast<double>(merged.rows_scanned));
  trials_node.set("trial_ns_min", static_cast<double>(trial_time.min()));
  trials_node.set("trial_ns_mean", trial_time.mean());
  trials_node.set("trial_ns_max", static_cast<double>(trial_time.max()));
  trials_node.add_elapsed_ns(trial_time.sum());
  obs::MetricsNode& engine_node = node.child("engine");
  merged.engine.describe(engine_node);
  engine_node.set("build_ns", static_cast<double>(merged.engine_build_ns));
  // Attributed time (candidate binning summed across trials): without
  // this the engine node exports "elapsed_ns": 0 even though every trial
  // paid a construction cost.
  engine_node.add_elapsed_ns(merged.engine_build_ns);
  // The variant captured from the trial engines themselves (every trial
  // dispatches the same one: dispatch depends on the CPU alone).  Absent
  // only when cancellation preceded every trial — then no engine existed
  // and the node names no variant.
  if (merged.kernel.has_value()) {
    core::describe_kernel(*merged.kernel, engine_node);
  }
  describe(pool, node.child("pool"));
}

}  // namespace

std::vector<GridEventsEstimate> run_trial_points(std::span<const TrialPoint> points,
                                                 std::size_t trials, std::size_t threads,
                                                 const RunOptions& options,
                                                 const PointDoneFn& on_point) {
  if (trials == 0) {
    throw std::invalid_argument("estimate_grid_events: trials must be >= 1");
  }
  const std::span<const std::uint64_t> subset = options.trial_indices;
  validate_units(subset, trials, "estimate_grid_events: trial_indices");
  bool metered = false;
  for (const TrialPoint& point : points) {
    validate(point.cfg);
    metered = metered || point.metrics != nullptr;
  }
  // The work list: unit u is trial slot u % work of point u / work, so
  // each point's trials are claimed before the next point's.  Slot w runs
  // trial index subset[w] (or w), seeded from the point's master seed and
  // that index alone, so partitions recombine bit-exactly.  Units are
  // claimed in ascending order and a claimed unit always runs, so the
  // units that ran are exactly [0, done) once the section returns.
  const std::size_t work = subset.empty() ? trials : subset.size();
  const std::size_t units = points.size() * work;
  std::vector<TrialEvents> events(units);
  std::vector<UnitMeter> meters(metered ? units : 0);
  const auto point_events = [&](std::size_t point, std::size_t ran) {
    const std::size_t first = std::min(point * work, ran);
    return std::span<const TrialEvents>(events).subspan(
        first, std::min(first + work, ran) - first);
  };
  // Completion bookkeeping under `mutex`: the done count, each point's
  // countdown of unfinished trials, and the next point to report, so
  // `on_point` sees each point once it and every earlier point finished.
  std::mutex mutex;
  std::size_t done = 0;
  std::vector<std::size_t> remaining(points.size(), work);
  std::size_t next_point = 0;
  std::vector<std::uint64_t> reported_ns(points.size(), 0);
  PoolMetrics section;
  const std::uint64_t start_ns = metered ? obs::monotonic_ns() : 0;
  const auto run_unit = [&](std::size_t u, std::size_t worker) {
    const TrialPoint& point = points[u / work];
    const std::uint64_t t = subset.empty() ? u % work : subset[u % work];
    const std::uint64_t seed = stats::mix64(point.master_seed, t);
    {
      const obs::TraceScope scope("trial", obs::TraceCategory::kTrial, "index", t);
      if (metered) {
        UnitMeter& m = meters[u];
        m.worker = worker;
        m.start_ns = obs::monotonic_ns();
        events[u] = run_trial_events(point.cfg, seed, &m.metrics);
        m.ns = obs::monotonic_ns() - m.start_ns;
      } else {
        events[u] = run_trial_events(point.cfg, seed);
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (options.on_trial) {
      options.on_trial(t, events[u]);
    }
    ++done;
    if (options.progress) {
      options.progress(done, units);
      obs::trace_counter("trials_done", obs::TraceCategory::kTrial, done);
    }
    --remaining[u / work];
    for (; next_point < points.size() && remaining[next_point] == 0; ++next_point) {
      reported_ns[next_point] = metered ? obs::monotonic_ns() : 0;
      if (on_point) {
        on_point(next_point, aggregate_grid_events(point_events(next_point, units)));
      }
    }
  };
  parallel_for_blocked(
      units, threads, 1,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t u = begin; u < end; ++u) {
          run_unit(u, worker);
        }
      },
      metered ? &section : nullptr, options.cancel);

  std::vector<GridEventsEstimate> estimates;
  const std::uint64_t end_ns = metered ? obs::monotonic_ns() : 0;
  std::uint64_t from = start_ns;
  for (std::size_t point = 0; point < points.size(); ++point) {
    estimates.push_back(aggregate_grid_events(point_events(point, done)));
    // A point's interval ends at its report, or at the section's end for
    // the points cancellation left unfinished.
    const std::uint64_t to = point < next_point ? reported_ns[point] : end_ns;
    if (points[point].metrics != nullptr) {
      const std::size_t first = std::min(point * work, done);
      describe_point(*points[point].metrics, work, first,
                     std::min(first + work, done), std::span(meters).first(done),
                     from, to, section);
    }
    from = to;
  }
  return estimates;
}

GridEventsEstimate estimate_grid_events(const TrialConfig& cfg, std::size_t trials,
                                        std::uint64_t master_seed, std::size_t threads,
                                        const RunOptions& options) {
  const TrialPoint point{cfg, master_seed, options.metrics};
  return run_trial_points({&point, 1}, trials, threads, options).front();
}

std::vector<double> encode_trial_events(const TrialEvents& events) {
  return {events.all_necessary ? 1.0 : 0.0, events.all_full_view ? 1.0 : 0.0,
          events.all_sufficient ? 1.0 : 0.0};
}

TrialEvents decode_trial_events(std::span<const double> payload) {
  if (payload.size() != 3) {
    throw std::invalid_argument("decode_trial_events: payload must hold 3 values");
  }
  for (const double v : payload) {
    if (v != 0.0 && v != 1.0) {
      throw std::invalid_argument("decode_trial_events: payload values must be 0 or 1");
    }
  }
  TrialEvents events;
  events.all_necessary = payload[0] == 1.0;
  events.all_full_view = payload[1] == 1.0;
  events.all_sufficient = payload[2] == 1.0;
  return events;
}

GridEventsEstimate aggregate_grid_events(std::span<const TrialEvents> events) {
  GridEventsEstimate est;
  est.necessary.trials = est.full_view.trials = est.sufficient.trials = events.size();
  for (const TrialEvents& ev : events) {
    est.necessary.successes += ev.all_necessary ? 1 : 0;
    est.full_view.successes += ev.all_full_view ? 1 : 0;
    est.sufficient.successes += ev.all_sufficient ? 1 : 0;
  }
  return est;
}

FractionEstimate estimate_fractions(const TrialConfig& cfg, std::size_t trials,
                                    std::uint64_t master_seed, std::size_t threads) {
  if (trials == 0) {
    throw std::invalid_argument("estimate_fractions: trials must be >= 1");
  }
  validate(cfg);
  struct PerTrial {
    core::RegionCoverageStats stats;
    std::size_t deployed = 0;
  };
  std::vector<PerTrial> results(trials);
  // Grain 1: each trial is a whole deployment + grid scan, which dwarfs a
  // cursor claim; per-trial seeding keeps the slots order-independent.
  parallel_for_blocked(trials, threads, 1,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t t = begin; t < end; ++t) {
                           const obs::TraceScope scope(
                               "trial", obs::TraceCategory::kTrial, "index", t);
                           const std::uint64_t seed = stats::mix64(master_seed, t);
                           const core::Network net = deploy(cfg, seed);
                           results[t].deployed = net.size();
                           results[t].stats =
                               core::evaluate_region(net, cfg.grid(), cfg.theta);
                         }
                       });
  FractionEstimate est;
  for (const PerTrial& r : results) {
    est.covered_1.add(r.stats.fraction_covered_1());
    est.necessary.add(r.stats.fraction_necessary());
    est.full_view.add(r.stats.fraction_full_view());
    est.sufficient.add(r.stats.fraction_sufficient());
    est.k_covered.add(r.stats.fraction_k_covered());
    est.deployed_count.add(static_cast<double>(r.deployed));
  }
  return est;
}

}  // namespace fvc::sim
