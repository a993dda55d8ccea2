/// region_scan — ROADMAP's reference rung (the 2048^2 / n = 10^6 profile of
/// tools/bench_scale): one deployment of 10^6 uniform heterogeneous cameras
/// on a 2048^2 grid, scanned whole by `sim::evaluate_region_parallel` at 4
/// threads.
///
/// The candidate index exceeds the last-level cache, each scan builds one
/// large index, and the time goes to `core` gather, classify and direction
/// emission with `max_gap` reported.  There are no per-trial costs.  The
/// operation is one grid point; the latency is one whole-region scan.  A
/// run holds fewer than 20 scans, so the tail percentile is the median and
/// op_p50_us, op_p99_us and ops_per_s all read the median scan.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fvc/core/full_view.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/rng.hpp"

#include "probes.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fc = fvc::core;

constexpr std::size_t kThreads = 4;

std::vector<double> stats_vector(const fc::RegionCoverageStats& s) {
  return {static_cast<double>(s.total_points), static_cast<double>(s.covered_1),
          static_cast<double>(s.necessary_ok), static_cast<double>(s.full_view_ok),
          static_cast<double>(s.sufficient_ok), static_cast<double>(s.k_covered_ok),
          s.min_max_gap, s.max_max_gap};
}

/// Runs `fn` once on each CPU this thread may use (at most 8, so a large
/// host does not stretch set-up), bound to it, then restores the thread's
/// affinity, which the scan's worker threads inherit.  The calling thread
/// itself moves, so every allocation stays in one malloc arena.  Without a
/// usable affinity mask `fn` runs once, unbound.  Returns the runs made.
template <class Fn>
std::size_t on_each_cpu(const Fn& fn) {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::size_t runs = 0;
  if (::sched_getaffinity(0, sizeof all, &all) == 0) {
    for (int c = 0; c < CPU_SETSIZE && runs < 8; ++c) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (CPU_ISSET(c, &all) && ::sched_setaffinity(0, sizeof one, &one) == 0) {
        fn();
        ++runs;
      }
    }
    (void)::sched_setaffinity(0, sizeof all, &all);
  }
  if (runs == 0) {
    fn();
    runs = 1;
  }
  return runs;
}

struct Loop {
  std::vector<double> scan_ms;
  std::vector<double> first;
  std::uint64_t inconsistent = 0;
};

void measure(const fc::Network& net, const fc::DenseGrid& grid, double theta,
             double seconds, Loop& loop) {
  const std::uint64_t t0 = now_ns();
  do {
    Span span("sim.evaluate_region_parallel");
    const fc::RegionCoverageStats s =
        fvc::sim::evaluate_region_parallel(net, grid, theta, kThreads);
    const std::uint64_t ns = span.stop();
    loop.scan_ms.push_back(static_cast<double>(ns) * 1e-6);
    const std::vector<double> v = stats_vector(s);
    if (loop.first.empty()) {
      loop.first = v;
    } else if (v != loop.first) {
      ++loop.inconsistent;
    }
  } while (seconds_since(t0) < seconds);
}

}  // namespace

int run_region_scan(const Options& opt) {
  const std::size_t n = opt.smoke ? 20000 : 1000000;
  const std::size_t side = opt.smoke ? 256 : 2048;
  const double theta = fvc::geom::kPi / 4.0;
  // The profile of tools/bench_scale (the ROADMAP ladder): two equal
  // groups, omnidirectional and a 2.0 rad sector, radii scaled as
  // 1/sqrt(n) from the n = 1000 anchor.
  const double k = std::sqrt(1000.0 / static_cast<double>(n));
  const fc::HeterogeneousProfile profile(std::vector<fc::CameraGroupSpec>{
      {0.5, 0.08 * k, fvc::geom::kTwoPi}, {0.5, 0.12 * k, 2.0}});
  const fc::DenseGrid grid(side);

  Result r;
  add_context(r, opt);
  r.context("n", std::to_string(n));
  r.context("grid_side", std::to_string(side));
  r.context("theta", "pi/4");
  r.context("threads", std::to_string(kThreads));

  // Set-up: deploy plus one engine build, both single-threaded.  The cores
  // of a shared host differ in speed by up to half, so one round runs the
  // set-up once bound to each CPU and averages; the median of three rounds
  // is reported (the first round pays the page faults).  One network lives
  // at a time, so set-up does not raise the peak RSS; the last one is the
  // network scanned.
  Tracer::get().enable(opt.trace);
  std::vector<double> setup_s;
  std::optional<fc::Network> net;
  for (int round = 0; round < 3; ++round) {
    double sum_s = 0.0;
    const std::size_t runs = on_each_cpu([&] {
      net.reset();
      const std::uint64_t t0 = now_ns();
      {
        const Span span("deploy");
        fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(opt.seed, 1);
        net.emplace(fvc::deploy::deploy_uniform_network(profile, n, rng));
      }
      const Span span("core.build");
      const fc::GridEvalEngine engine(*net, grid, theta);
      sum_s += seconds_since(t0);
    });
    setup_s.push_back(sum_s / static_cast<double>(runs));
  }

  // Warm-up scan (first-touch page faults, thread start), untimed.
  (void)fvc::sim::evaluate_region_parallel(*net, grid, theta, kThreads);

  Loop loop;
  Loop untraced;
  if (opt.trace) {
    Tracer::get().enable(false);
    measure(*net, grid, theta, opt.seconds / 2.0, untraced);
    Tracer::get().enable(true);
    measure(*net, grid, theta, opt.seconds / 2.0, loop);
  } else {
    measure(*net, grid, theta, opt.seconds, loop);
  }
  const double points = static_cast<double>(grid.size());
  // Points per second of the median scan (robust to a noisy neighbour).
  const double rate = points / (median(loop.scan_ms) * 1e-3);

  // ---- output checks ----
  r.tally(loop.scan_ms.size(), loop.inconsistent, "repeated scans reproduce the first scan");
  print_reference(opt, loop.first);
  const std::vector<double> ref = load_reference(opt);
  if (!ref.empty()) {
    r.check(ref == loop.first, "RegionCoverageStats equal the recorded reference");
  } else {
    r.check(stats_vector(fc::evaluate_region(*net, grid, theta)) == loop.first,
            "RegionCoverageStats equal the serial engine scan");
  }
  {
    // A sample of grid points against the scalar oracles.
    const fc::GridEvalEngine engine(*net, grid, theta);
    fc::GridEvalScratch scratch;
    std::uint64_t bad = 0;
    const std::size_t samples = 256;
    for (std::size_t i = 0; i < samples; ++i) {
      const std::size_t row = static_cast<std::size_t>(fvc::stats::mix64(opt.seed, 2 * i) % side);
      const std::size_t col =
          static_cast<std::size_t>(fvc::stats::mix64(opt.seed, 2 * i + 1) % side);
      const fvc::geom::Vec2 p = grid.point(row, col);
      const fc::FullViewResult fast = engine.point_full_view(row, col, scratch);
      const fc::FullViewResult slow = fc::full_view_covered(*net, p, theta);
      const bool ok = fast.covered == slow.covered && fast.max_gap == slow.max_gap &&
                      fast.covering_count == slow.covering_count &&
                      engine.point_necessary(row, col, scratch) ==
                          fc::meets_necessary_condition(*net, p, theta) &&
                      engine.point_sufficient(row, col, scratch) ==
                          fc::meets_sufficient_condition(*net, p, theta);
      bad += ok ? 0 : 1;
    }
    r.tally(samples, bad, "sampled grid points equal the scalar oracles");
  }

  // ---- end-to-end ----
  r.end_to_end("setup_s", median(setup_s), "s");
  r.end_to_end("peak_rss_mb", self_peak_rss_mb(), "MB");
  r.end_to_end("ops_per_s", rate, "1/s");
  r.end_to_end("op_p50_us", median(loop.scan_ms) * 1e3, "us");
  r.end_to_end("op_p99_us", tail(loop.scan_ms) * 1e3, "us");
  r.alias("scan_mpts_per_s", rate / 1e6, "Mpts/s");
  r.alias("scan_p50_ms", median(loop.scan_ms), "ms");
  r.context("scans", std::to_string(loop.scan_ms.size()));
  r.context("tail_percentile", std::to_string(tail_percentile(loop.scan_ms.size())));

  if (opt.trace) {
    // ---- per-layer ----
    r.layer("deploy.ms", median(Tracer::get().durations_ns("deploy")) * 1e-6, "ms");
    probe_core(*net, grid, theta, opt.smoke ? 16 : 32, 3, r);
    probe_region_sim(*net, grid, theta, loop.scan_ms, r);
    const std::vector<fc::Camera> cams(net->cameras().begin(), net->cameras().end());
    // A million-camera rebuild takes seconds, so the api probes stay small.
    probe_session(cams, theta, side, 8, {0.5, 0.52}, 512, r);
    probe_daemon(opt, cams, theta, side, 8, {{0.5, 0.505}, {0.25, 0.26}}, 10.0,
                 opt.smoke ? 0.3 : 1.0, r);
    report_trace_overhead(
        points / (median(untraced.scan_ms) * 1e-3), rate, r);
    Tracer::get().print_summary();
    std::printf("trace %s\n",
                Tracer::get()
                    .write(opt.out_dir + "/trace-region_scan-seed" +
                           std::to_string(opt.seed) + ".jsonl")
                    .c_str());
  }
  return r.finish(opt);
}

}  // namespace pb
