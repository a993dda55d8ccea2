/// serve_mix — mixed traffic against a fresh `fvc_sim serve` daemon.
///
/// The daemon serves a deployment file this benchmark generates, on a grid
/// large enough that region queries cost real CPU.  Two phases:
///   * open loop at a fixed offered rate, 300 requests/s (about a quarter of
///     the mixed capacity of a 4-core host, which measured about 1250/s
///     overloaded; at half capacity the median sat on the queueing knee and
///     moved by 2-4x between runs): 60% `point`, 30% `region` over varied
///     strips, 10%
///     what-if `move`.  Moves are writes — they rebuild the engine under
///     the session mutex and dirty cache tiles — and shuttle one camera
///     between four positions, so every answer has a known expected value;
///   * closed loop, `point` only, four connections back to back: the shape
///     the group-commit batcher exists for.
/// The time goes to `api` transport, parse, queue and tile cache; engine
/// work per request is small.  Operations are closed-loop point queries;
/// latencies are open-loop requests timed from when they were due.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/io/network_io.hpp"
#include "fvc/stats/rng.hpp"

#include "probes.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fc = fvc::core;

struct Shape {
  std::size_t n = 2000;
  std::size_t grid_side = 256;
  std::size_t tile_rows = 8;
  double open_rate = 300.0;  ///< requests per second offered in the open loop
};

}  // namespace

int run_serve_mix(const Options& opt) {
  Shape shape;
  if (opt.smoke) {
    shape = {1000, 64, 8, 100.0};
  }
  const double theta = fvc::geom::kPi / 4.0;
  const double k = std::sqrt(2000.0 / static_cast<double>(shape.n));
  const fc::HeterogeneousProfile profile(std::vector<fc::CameraGroupSpec>{
      {0.4, 0.04 * k, fvc::geom::kTwoPi}, {0.4, 0.06 * k, 2.0}, {0.2, 0.06 * k, 1.2}});

  Result r;
  add_context(r, opt);
  r.context("n", std::to_string(shape.n));
  r.context("grid_side", std::to_string(shape.grid_side));
  r.context("tile_rows", std::to_string(shape.tile_rows));
  r.context("theta", "pi/4");
  r.context("open_rate_per_s", std::to_string(shape.open_rate));
  r.context("connections", std::to_string(ServeRun{}.connections));

  Tracer::get().enable(opt.trace);
  std::vector<fc::Camera> cams;
  {
    const Span span("deploy");
    fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(opt.seed, 3);
    cams = fvc::deploy::deploy_uniform(profile, shape.n, rng);
  }
  // The mover (camera 0, given a fixed lens so every seed's moves cost the
  // same) visits its own position and three others.
  cams[0].radius = 0.06;
  cams[0].fov = 2.0;
  const std::string file = opt.out_dir + "/serve_mix.cams";
  fvc::io::save_cameras_file(file, cams);
  std::vector<fc::Camera> positions(4, cams[0]);
  const double spots[3][3] = {{0.21, 0.33, 0.5}, {0.72, 0.81, 2.5}, {0.47, 0.09, 4.0}};
  for (std::size_t s = 1; s < positions.size(); ++s) {
    positions[s].position = {spots[s - 1][0], spots[s - 1][1]};
    positions[s].orientation = spots[s - 1][2];
  }
  Traffic traffic =
      make_traffic(cams, theta, shape.grid_side, shape.tile_rows, 0, positions,
                   {{0.0, 1.0}, {0.0, 0.25}, {0.25, 0.5}, {0.5, 0.75}, {0.75, 1.0},
                    {0.4, 0.6}, {0.1, 0.15}, {0.9, 0.95}},
                   64, opt.seed);
  if (opt.corrupt_reference) {
    // Self-check: a wrong expected answer must surface as a failure.
    traffic.states[0].points[0].covered = !traffic.states[0].points[0].covered;
  }

  // Set-up: spawn until `info` answers, seven times; all but the last are
  // drained at once (each must exit 130), the last serves the load.
  const std::string sock = opt.out_dir + "/serve.sock";
  const std::string log = opt.out_dir + "/daemon-serve_mix.log";
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < 7; ++rep) {
    if (daemon) {
      const int code = daemon->drain(nullptr);
      r.check(code == 130, "set-up daemon SIGINT drain exits 130 (got " +
                               std::to_string(code) + ")");
    }
    // The old daemon's destructor unlinks the socket path: it must run
    // before the next daemon binds it.
    daemon.reset();
    const std::uint64_t t0 = now_ns();
    const Span span("serve.spawn_until_info");
    daemon = std::make_unique<Daemon>(opt.fvc_sim, file, sock, theta, shape.grid_side,
                                      shape.tile_rows, log);
    const bool ready = daemon->wait_ready(60.0);
    setup_s.push_back(seconds_since(t0));
    r.check(ready, "daemon answers info");
    if (!ready) {
      return r.finish(opt);
    }
  }

  ServeRun run;
  run.open_rate = shape.open_rate;
  const double share = opt.trace ? 0.5 : 1.0;
  run.open_seconds = 0.7 * opt.seconds * share;
  run.closed_seconds = 0.3 * opt.seconds * share;
  ServeOutcome o;
  ServeOutcome untraced;
  if (opt.trace) {
    Tracer::get().enable(false);
    untraced = serve_run(*daemon, traffic, run, r);
    daemon.reset();
    daemon = std::make_unique<Daemon>(opt.fvc_sim, file, sock, theta, shape.grid_side,
                                      shape.tile_rows, log);
    r.check(daemon->wait_ready(60.0), "traced daemon answers info");
    Tracer::get().enable(true);
  }
  o = serve_run(*daemon, traffic, run, r);
  // Closed-loop point rate of the median 250 ms window.
  const double qps = median(o.closed.window_qps);
  const double achieved =
      static_cast<double>(o.open.answered) / std::max(o.open.elapsed_s, 1e-9);

  // ---- end-to-end ----
  r.end_to_end("setup_s", median(setup_s), "s");
  r.end_to_end("peak_rss_mb", o.peak_rss_mb, "MB");
  r.end_to_end("ops_per_s", qps, "1/s");
  r.end_to_end("op_p50_us", median(o.open.latency_us), "us");
  r.end_to_end("op_p99_us", tail(o.open.latency_us), "us");
  r.alias("serve_p50_us", median(o.open.latency_us), "us");
  r.alias("serve_p99_us", tail(o.open.latency_us), "us");
  r.alias("serve_point_qps", qps, "1/s");
  r.alias("open_loop_achieved_per_s", achieved, "1/s");
  r.context("open_loop_requests", std::to_string(o.open.answered));
  r.context("tail_percentile", std::to_string(tail_percentile(o.open.latency_us.size())));

  if (opt.trace) {
    // ---- per-layer ----
    report_daemon_layers(o.layers, r);
    for (int rep = 0; rep < 4; ++rep) {
      const Span span("deploy");
      fvc::stats::Pcg32 rng = fvc::stats::make_child_rng(opt.seed, 3);
      (void)fvc::deploy::deploy_uniform(profile, shape.n, rng);
    }
    r.layer("deploy.ms", median(Tracer::get().durations_ns("deploy")) * 1e-6, "ms");
    const fc::Network net(cams);
    const fc::DenseGrid grid(shape.grid_side);
    probe_core(net, grid, theta, 32, 5, r);
    probe_region_sim(net, grid, theta, {}, r);
    probe_session(cams, theta, shape.grid_side, shape.tile_rows, {0.4, 0.6}, 4096, r);
    report_trace_overhead(
        median(untraced.closed.window_qps), qps, r);
    Tracer::get().print_summary();
    std::printf("trace %s\n",
                Tracer::get()
                    .write(opt.out_dir + "/trace-serve_mix-seed" + std::to_string(opt.seed) +
                           ".jsonl")
                    .c_str());
  }
  return r.finish(opt);
}

}  // namespace pb
