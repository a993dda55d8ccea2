/// mc_phase — the paper's Monte-Carlo phase scan (§VI-B/C, Fig 7/8/9).
///
/// `sim::run_phase_scan` at n = 1000, theta = pi/4, on a three-group
/// heterogeneous profile (one group omnidirectional), over q from below
/// s_Nc to above s_Sc.  Low-q trials exit at the first row failing the
/// necessary condition; high-q trials scan the whole n log n grid.  Every
/// trial deploys its own network and builds its own engine, so the time
/// goes to `sim` scheduling, `deploy`, engine build and the boolean
/// predicate path.  The operation is one trial; the latency is one q
/// point (its trials run in parallel, and the slowest gates the point).

#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fvc/analysis/csa.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/phase_scan.hpp"
#include "fvc/sim/sweep.hpp"
#include "fvc/stats/rng.hpp"

#include "probes.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = fvc::sim;
using fvc::stats::mix64;

constexpr std::size_t kThreads = 4;

struct Shape {
  std::size_t n = 1000;
  std::size_t q_points = 10;
  std::size_t trials = 12;  ///< per q point
};

fs::PhaseScanConfig scan_config(const Shape& s, std::uint64_t seed) {
  fs::PhaseScanConfig cfg;
  cfg.base.n = s.n;
  cfg.base.theta = fvc::geom::kPi / 4.0;
  // Radii are relative: the scan rescales them to each q's target area.
  cfg.base.profile = fvc::core::HeterogeneousProfile(std::vector<fvc::core::CameraGroupSpec>{
      {0.30, 0.6, fvc::geom::kTwoPi}, {0.45, 1.0, 2.0}, {0.25, 1.3, 1.0}});
  // s_Sc is about twice s_Nc: 0.7 .. 2.5 brackets the whole gap.
  cfg.q_values = fs::linspace(0.7, 2.5, s.q_points);
  cfg.trials = s.trials;
  cfg.master_seed = seed;
  cfg.threads = kThreads;
  return cfg;
}

/// The TrialConfig of q point i, as run_phase_scan derives it.
fs::TrialConfig point_config(const fs::PhaseScanConfig& cfg, std::size_t i) {
  const double csa_n =
      fvc::analysis::csa_necessary(static_cast<double>(cfg.base.n), cfg.base.theta);
  fs::TrialConfig tc = cfg.base;
  tc.profile = cfg.base.profile.with_weighted_area(cfg.q_values[i] * csa_n);
  return tc;
}

/// Trial t of point i is seeded mix64(mix64(master, i), t) (the
/// determinism contract of monte_carlo.hpp and phase_scan.hpp).
std::uint64_t trial_seed(const fs::PhaseScanConfig& cfg, std::size_t i, std::size_t t) {
  return mix64(mix64(cfg.master_seed, i), t);
}

/// Event tallies, three per q point (necessary, full view, sufficient).
std::vector<double> tallies(const std::vector<fs::PhasePoint>& points) {
  std::vector<double> v;
  for (const fs::PhasePoint& p : points) {
    v.push_back(static_cast<double>(p.events.necessary.successes));
    v.push_back(static_cast<double>(p.events.full_view.successes));
    v.push_back(static_cast<double>(p.events.sufficient.successes));
  }
  return v;
}

struct Loop {
  std::size_t scans = 0;
  std::size_t trials = 0;
  std::vector<double> scan_s;        ///< wall time of each scan
  std::vector<double> point_us;      ///< per-q-point latency
  std::vector<double> setup_s;       ///< wall time of each set-up repetition
  std::vector<double> first_tallies;
  std::uint64_t inconsistent = 0;    ///< scans whose tallies differ from the first
};

/// Set-up: deploy plus engine build of every trial of one scan, serially,
/// the per-trial fixed cost paid before any predicate runs.  Returns seconds.
double setup_once(const fs::PhaseScanConfig& cfg) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < cfg.q_values.size(); ++i) {
    const fs::TrialConfig tc = point_config(cfg, i);
    for (std::size_t t = 0; t < cfg.trials; ++t) {
      std::optional<fvc::core::Network> net;
      {
        const Span span("deploy");
        net.emplace(fs::deploy(tc, trial_seed(cfg, i, t)));
      }
      const Span span("core.build");
      const fvc::core::GridEvalEngine engine(*net, tc.grid(), tc.theta);
    }
  }
  return seconds_since(t0);
}

/// One set-up sample: `setup_once` on each of kThreads threads at once,
/// averaged.  The cores of a shared host differ in speed by up to half, so
/// a single thread would read whichever core it landed on; the mean over
/// all four reads the host, as the scan's own rate does.
double setup_sample(const fs::PhaseScanConfig& cfg) {
  std::vector<double> s(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&cfg, &s, w] { s[w] = setup_once(cfg); });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  return std::accumulate(s.begin(), s.end(), 0.0) / static_cast<double>(kThreads);
}

/// Repeat the scan for `seconds` (at least once).  Three set-up samples
/// (about 15 ms each) precede every scan, so they span the whole run as the
/// scan samples do, instead of one burst that a passing neighbour can skew.
void measure(const fs::PhaseScanConfig& base, double seconds, Loop& loop) {
  const std::uint64_t t0 = now_ns();
  do {
    for (int rep = 0; rep < 3; ++rep) {
      loop.setup_s.push_back(setup_sample(base));
    }
    fs::PhaseScanConfig cfg = base;
    std::uint64_t last = 0;
    cfg.on_point = [&](const fs::PhasePoint&) {
      const std::uint64_t t = now_ns();
      loop.point_us.push_back(static_cast<double>(t - last) * 1e-3);
      last = t;
    };
    Span span("sim.run_phase_scan");
    last = span.start_ns();
    const std::vector<fs::PhasePoint> points = fs::run_phase_scan(cfg);
    loop.scan_s.push_back(static_cast<double>(span.stop()) * 1e-9);
    const std::vector<double> tally = tallies(points);
    if (loop.scans == 0) {
      loop.first_tallies = tally;
    } else if (tally != loop.first_tallies) {
      ++loop.inconsistent;
    }
    ++loop.scans;
    loop.trials += cfg.q_values.size() * cfg.trials;
  } while (seconds_since(t0) < seconds);
}

/// Trials per second of the median scan (robust to a noisy neighbour).
double trial_rate(const fs::PhaseScanConfig& cfg, const Loop& loop) {
  return static_cast<double>(cfg.q_values.size() * cfg.trials) / median(loop.scan_s);
}

}  // namespace

int run_mc_phase(const Options& opt) {
  Shape shape;
  if (opt.smoke) {
    shape = {200, 4, 4};
  }
  const fs::PhaseScanConfig cfg = scan_config(shape, opt.seed);
  Result r;
  add_context(r, opt);
  r.context("n", std::to_string(shape.n));
  r.context("theta", "pi/4");
  r.context("q_values", std::to_string(shape.q_points) + " in [0.7, 2.5]");
  r.context("trials_per_q", std::to_string(shape.trials));
  r.context("grid_side", std::to_string(cfg.base.grid().side()));
  r.context("threads", std::to_string(kThreads));

  // Warm-up: one trial per point (thread start, page faults), untimed.
  {
    fs::PhaseScanConfig warm = cfg;
    warm.trials = 1;
    (void)fs::run_phase_scan(warm);
  }

  Loop loop;
  Loop untraced;
  if (opt.trace) {
    Tracer::get().enable(false);
    measure(cfg, opt.seconds / 2.0, untraced);
    Tracer::get().enable(true);
    measure(cfg, opt.seconds / 2.0, loop);
  } else {
    measure(cfg, opt.seconds, loop);
  }
  const double rate = trial_rate(cfg, loop);

  // ---- output checks ----
  r.tally(loop.scans, loop.inconsistent, "repeated scans reproduce the first scan's tallies");
  const std::vector<double> ref = load_reference(opt);
  print_reference(opt, loop.first_tallies);
  std::vector<double> serial_tallies(loop.first_tallies.size(), 0.0);
  std::vector<double> trial_ms;
  std::uint64_t rows_scanned = 0;
  double serial_s = 0.0;
  if (ref.empty() || opt.trace) {
    // Independent recomputation: every trial through the public per-trial
    // entry point, serially, with the documented seeding.
    for (std::size_t i = 0; i < cfg.q_values.size(); ++i) {
      const fs::TrialConfig tc = point_config(cfg, i);
      for (std::size_t t = 0; t < cfg.trials; ++t) {
        fs::TrialMetrics tm;
        Span span("sim.run_trial_events");
        const fs::TrialEvents ev = fs::run_trial_events(tc, trial_seed(cfg, i, t), &tm);
        const std::uint64_t ns = span.stop();
        serial_s += static_cast<double>(ns) * 1e-9;
        trial_ms.push_back(static_cast<double>(ns) * 1e-6);
        rows_scanned += tm.rows_scanned;
        serial_tallies[3 * i] += ev.all_necessary ? 1 : 0;
        serial_tallies[3 * i + 1] += ev.all_full_view ? 1 : 0;
        serial_tallies[3 * i + 2] += ev.all_sufficient ? 1 : 0;
      }
    }
  }
  if (!ref.empty()) {
    r.check(ref == loop.first_tallies, "event tallies equal the recorded reference");
  }
  if (ref.empty() || opt.trace) {
    r.check(serial_tallies == loop.first_tallies,
            "event tallies equal the serial per-trial recomputation");
  }
  // Scalar oracle on a sample of trials: lowest, middle and highest q.
  for (const std::size_t i : {std::size_t{0}, cfg.q_values.size() / 2, cfg.q_values.size() - 1}) {
    const fs::TrialConfig tc = point_config(cfg, i);
    const std::uint64_t seed = trial_seed(cfg, i, 0);
    const fs::TrialEvents ev = fs::run_trial_events(tc, seed);
    const fvc::core::RegionCoverageStats s =
        fvc::core::evaluate_region_scalar(fs::deploy(tc, seed), tc.grid(), tc.theta);
    r.check(ev.all_necessary == s.all_necessary() && ev.all_full_view == s.all_full_view() &&
                ev.all_sufficient == s.all_sufficient(),
            "trial events equal the scalar oracle at q=" + std::to_string(cfg.q_values[i]));
  }
  r.tally(loop.trials, 0, "trials run");

  // ---- end-to-end ----
  r.end_to_end("setup_s", median(loop.setup_s), "s");
  r.end_to_end("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.end_to_end("ops_per_s", rate, "1/s");
  r.end_to_end("op_p50_us", median(loop.point_us), "us");
  r.end_to_end("op_p99_us", tail(loop.point_us), "us");
  r.alias("trials_per_s", rate, "1/s");
  r.alias("q_point_p50_ms", median(loop.point_us) * 1e-3, "ms");
  r.alias("q_point_tail_ms", tail(loop.point_us) * 1e-3, "ms");
  r.context("q_point_samples", std::to_string(loop.point_us.size()));
  r.context("tail_percentile", std::to_string(tail_percentile(loop.point_us.size())));

  if (opt.trace) {
    // ---- per-layer ----
    r.layer("deploy.ms", median(Tracer::get().durations_ns("deploy")) * 1e-6, "ms");
    // Engine probes on a trial that scans the whole grid (q near 1.5).
    const std::size_t mid = cfg.q_values.size() / 2;
    const fs::TrialConfig tc = point_config(cfg, mid);
    const fvc::core::Network net = fs::deploy(tc, trial_seed(cfg, mid, 0));
    probe_core(net, tc.grid(), tc.theta, tc.grid().side(), 5, r);

    // Pool utilization from one metered scan.
    fvc::obs::MetricsNode node("phase");
    {
      fs::PhaseScanConfig metered = cfg;
      metered.metrics = &node;
      const Span span("sim.run_phase_scan.metered");
      (void)fs::run_phase_scan(metered);
    }
    double busy = 0.0, idle = 0.0;
    for (const auto& child : node.children()) {
      if (const fvc::obs::MetricsNode* pool = child->find_child("pool")) {
        busy += pool->counter("busy_ns");
        idle += pool->counter("idle_ns");
      }
    }
    r.layer("sim.trial_ms_p50", median(trial_ms), "ms");
    r.layer("sim.trial_ms_p99", tail(trial_ms), "ms");
    r.layer("sim.rows_per_trial",
            static_cast<double>(rows_scanned) / static_cast<double>(trial_ms.size()), "count");
    r.layer("sim.pool_util", busy + idle > 0.0 ? busy / (busy + idle) : 0.0, "ratio");
    r.layer("sim.pool_idle_ms", idle * 1e-6, "ms");
    // 1-thread rate: the serial per-trial recomputation above.
    const double rate1 = static_cast<double>(trial_ms.size()) / serial_s;
    r.layer("sim.scale_eff", rate / (4.0 * rate1), "ratio");

    probe_session(std::vector<fvc::core::Camera>(net.cameras().begin(), net.cameras().end()),
                  tc.theta, tc.grid().side(), 8, {0.25, 0.5}, 1024, r);
    probe_daemon(opt, std::vector<fvc::core::Camera>(net.cameras().begin(), net.cameras().end()),
                 tc.theta, tc.grid().side(), 8, {{0.0, 1.0}, {0.25, 0.5}, {0.6, 0.7}}, 400.0,
                 opt.smoke ? 0.3 : 1.0, r);
    report_trace_overhead(trial_rate(cfg, untraced), rate, r);
    Tracer::get().print_summary();
    std::printf("trace %s\n",
                Tracer::get()
                    .write(opt.out_dir + "/trace-mc_phase-seed" + std::to_string(opt.seed) +
                           ".jsonl")
                    .c_str());
  }
  return r.finish(opt);
}

}  // namespace pb
