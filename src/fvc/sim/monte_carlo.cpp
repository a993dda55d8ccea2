#include "fvc/sim/monte_carlo.hpp"

#include <mutex>
#include <stdexcept>
#include <vector>

#include "fvc/core/grid_eval.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
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

/// Bare estimator: no cancellation/progress/metrics/shard machinery at all
/// — the fast path the default (empty) RunOptions resolve to.
GridEventsEstimate estimate_grid_events_bare(const TrialConfig& cfg,
                                             std::size_t trials,
                                             std::uint64_t master_seed,
                                             std::size_t threads) {
  if (trials == 0) {
    throw std::invalid_argument("estimate_grid_events: trials must be >= 1");
  }
  validate(cfg);
  std::vector<TrialEvents> results(trials);
  // Grain 1 (one trial per claim): trial costs vary wildly between early
  // exits and full scans, so fine-grained claiming is what balances them.
  parallel_for_blocked(trials, threads, 1,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t t = begin; t < end; ++t) {
                           const obs::TraceScope scope(
                               "trial", obs::TraceCategory::kTrial, "index", t);
                           results[t] =
                               run_trial_events(cfg, stats::mix64(master_seed, t));
                         }
                       });
  GridEventsEstimate est;
  est.necessary.trials = est.full_view.trials = est.sufficient.trials = trials;
  for (const TrialEvents& ev : results) {
    est.necessary.successes += ev.all_necessary ? 1 : 0;
    est.full_view.successes += ev.all_full_view ? 1 : 0;
    est.sufficient.successes += ev.all_sufficient ? 1 : 0;
  }
  return est;
}

}  // namespace

GridEventsEstimate estimate_grid_events(const TrialConfig& cfg, std::size_t trials,
                                        std::uint64_t master_seed, std::size_t threads,
                                        const RunOptions& options) {
  if (options.cancel == nullptr && !options.progress && options.metrics == nullptr &&
      options.trial_indices.empty() && !options.on_trial && options.grain <= 1) {
    return estimate_grid_events_bare(cfg, trials, master_seed, threads);
  }
  if (trials == 0) {
    throw std::invalid_argument("estimate_grid_events: trials must be >= 1");
  }
  validate(cfg);
  const std::span<const std::uint64_t> subset = options.trial_indices;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (subset[i] >= trials || (i > 0 && subset[i] <= subset[i - 1])) {
      throw std::invalid_argument(
          "estimate_grid_events: trial_indices must be strictly increasing and < trials");
    }
  }
  // The work list this call actually runs: all of [0, trials), or the
  // caller's shard/remainder subset.  Work slot w runs trial index
  // subset[w], whose seed depends only on (master_seed, index) — never on
  // the slot — so partitions recombine bit-exactly.
  const std::size_t work = subset.empty() ? trials : subset.size();
  const bool metered = options.metrics != nullptr;
  const std::uint64_t run_start_ns = metered ? obs::monotonic_ns() : 0;
  struct Slot {
    TrialEvents events;
    TrialMetrics metrics;
    std::uint64_t ns = 0;
    bool ran = false;
  };
  std::vector<Slot> slots(work);
  std::mutex progress_mutex;
  std::size_t done = 0;
  PoolMetrics pool;
  const auto run_slot = [&](std::size_t w) {
    if (options.cancel != nullptr && options.cancel->stop_requested()) {
      return;  // the slot stays !ran; its seed is simply unused
    }
    Slot& slot = slots[w];
    const std::uint64_t t = subset.empty() ? w : subset[w];
    const std::uint64_t seed = stats::mix64(master_seed, t);
    {
      const obs::TraceScope scope("trial", obs::TraceCategory::kTrial,
                                  "index", t);
      if (metered) {
        const std::uint64_t t0 = obs::monotonic_ns();
        slot.events = run_trial_events(cfg, seed, &slot.metrics);
        slot.ns = obs::monotonic_ns() - t0;
      } else {
        slot.events = run_trial_events(cfg, seed);
      }
    }
    slot.ran = true;
    if (options.progress || options.on_trial) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      if (options.on_trial) {
        options.on_trial(t, slot.events);
      }
      ++done;
      if (options.progress) {
        options.progress(done, work);
        obs::trace_counter("trials_done", obs::TraceCategory::kTrial, done);
      }
    }
  };
  // Default grain 1 — see RunOptions::grain.  A cancelled run still
  // finishes only the blocks already claimed, so the cancellation latency
  // grows with the grain; that trade is the caller's via --grain.
  parallel_for_blocked(
      work, threads, options.grain == 0 ? 1 : options.grain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t w = begin; w < end; ++w) {
          run_slot(w);
        }
      },
      metered ? &pool : nullptr);

  GridEventsEstimate est;
  std::size_t ran = 0;
  std::size_t early_exits = 0;
  obs::DurationStats trial_time;
  TrialMetrics merged;
  for (const Slot& slot : slots) {
    if (!slot.ran) {
      continue;
    }
    ++ran;
    est.necessary.successes += slot.events.all_necessary ? 1 : 0;
    est.full_view.successes += slot.events.all_full_view ? 1 : 0;
    est.sufficient.successes += slot.events.all_sufficient ? 1 : 0;
    if (metered) {
      early_exits += slot.metrics.early_exit ? 1 : 0;
      trial_time.add(slot.ns);
      merged.merge(slot.metrics);
    }
  }
  est.necessary.trials = est.full_view.trials = est.sufficient.trials = ran;

  if (metered) {
    obs::MetricsNode& node = *options.metrics;
    // Wall time of the whole estimate on `node` itself; the child nodes
    // below carry *attributed* time (summed across workers), which may
    // exceed this wall time under parallelism.
    node.add_elapsed_ns(obs::monotonic_ns() - run_start_ns);
    obs::MetricsNode& trials_node = node.child("trials");
    trials_node.set("trials_requested", static_cast<double>(work));
    trials_node.set("trials_run", static_cast<double>(ran));
    trials_node.set("trials_cancelled", static_cast<double>(work - ran));
    trials_node.set("early_exit_necessary", static_cast<double>(early_exits));
    trials_node.set("rows_scanned", static_cast<double>(merged.rows_scanned));
    trials_node.set("trial_ns_min", static_cast<double>(trial_time.min()));
    trials_node.set("trial_ns_mean", trial_time.mean());
    trials_node.set("trial_ns_max", static_cast<double>(trial_time.max()));
    trials_node.add_elapsed_ns(trial_time.sum());
    obs::LogHistogram& trial_us = trials_node.histogram("trial_us");
    for (const Slot& slot : slots) {
      if (slot.ran) {
        trial_us.add(slot.ns / 1000);
      }
    }
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
  return est;
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
