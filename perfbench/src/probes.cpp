#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "fvc/api/session.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/io/network_io.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/sim/parallel_region.hpp"

namespace pb {

namespace fc = fvc::core;

void probe_core(const fc::Network& net, const fc::DenseGrid& grid, double theta,
                std::size_t sample_rows, std::size_t builds, Result& r) {
  std::vector<double> build_ms;
  for (std::size_t b = 0; b < builds; ++b) {
    Span span("core.build");
    const fc::GridEvalEngine e(net, grid, theta);
    build_ms.push_back(static_cast<double>(span.stop()) * 1e-6);
  }
  const fc::GridEvalEngine engine(net, grid, theta);
  const std::size_t side = grid.side();
  const std::size_t step = std::max<std::size_t>(1, side / std::max<std::size_t>(1, sample_rows));
  std::vector<std::size_t> rows;
  for (std::size_t row = step / 2; row < side && rows.size() < sample_rows; row += step) {
    rows.push_back(row);
  }
  const double pts = static_cast<double>(rows.size() * side);

  // Each stage gets a fresh scratch, so each pays the same row-slice
  // builds and the differences isolate the stage itself.
  std::vector<double> cand;
  cand.reserve(rows.size() * side);
  std::uint64_t gather_ns = 0;
  {
    fc::GridEvalScratch s;
    Span span("core.point_candidate_count");
    for (const std::size_t row : rows) {
      for (std::size_t col = 0; col < side; ++col) {
        cand.push_back(static_cast<double>(engine.point_candidate_count(row, col, s)));
      }
    }
    gather_ns = span.stop();
  }
  std::uint64_t dirs_ns = 0;
  {
    fc::GridEvalScratch s;
    Span span("core.sorted_directions");
    for (const std::size_t row : rows) {
      for (std::size_t col = 0; col < side; ++col) {
        (void)engine.sorted_directions(row, col, s);
      }
    }
    dirs_ns = span.stop();
  }
  std::uint64_t fused_ns = 0;
  {
    fc::GridEvalScratch s;
    Span span("core.row_stats");
    for (const std::size_t row : rows) {
      (void)engine.row_stats(row, s);
    }
    fused_ns = span.stop();
  }
  // Counters from an untimed pass: the engine's own gather accounting.
  fc::GridEvalCounters ctr;
  {
    fc::GridEvalScratch s;
    s.counters = &ctr;
    for (const std::size_t row : rows) {
      (void)engine.row_stats(row, s);
    }
  }
  r.layer("core.build_ms", median(build_ms), "ms");
  r.layer("core.index_mb", static_cast<double>(engine.index_bytes()) / 1048576.0, "MB");
  r.layer("core.gather_ns_per_pt", static_cast<double>(gather_ns) / pts, "ns");
  r.layer("core.directions_ns_per_pt", static_cast<double>(dirs_ns) / pts, "ns");
  r.layer("core.fused_ns_per_pt", static_cast<double>(fused_ns) / pts, "ns");
  r.layer("core.serial_mpts_per_s", pts / (static_cast<double>(fused_ns) * 1e-9) / 1e6,
          "Mpts/s");
  double cand_sum = 0.0;
  for (const double c : cand) {
    cand_sum += c;
  }
  r.layer("core.cand_per_pt_mean", cand_sum / pts, "count");
  r.layer("core.cand_per_pt_p99", quantile(cand, 0.99), "count");
  r.layer("core.dirs_per_cand",
          ctr.candidates_total > 0 ? static_cast<double>(ctr.directions_total) /
                                         static_cast<double>(ctr.candidates_total)
                                   : 0.0,
          "ratio");
  r.layer("core.trig_fallbacks", static_cast<double>(ctr.trig_fallbacks), "count");
  r.context("core_probe_rows", std::to_string(rows.size()));
}

void probe_session(const std::vector<fc::Camera>& cams, double theta,
                   std::size_t grid_side, std::size_t tile_rows,
                   std::pair<double, double> strip, std::size_t points, Result& r) {
  fvc::api::SessionConfig cfg;
  cfg.cameras = cams;
  cfg.theta = theta;
  cfg.grid_side = grid_side;
  cfg.tile_rows = tile_rows;
  std::optional<fvc::api::Session> session;
  {
    const Span span("api.session_build");
    session.emplace(std::move(cfg));
  }
  std::vector<double> xs(points), ys(points);
  for (std::size_t i = 0; i < points; ++i) {
    xs[i] = std::fmod(0.1 + static_cast<double>(i) * 0.61803398874989485, 1.0);
    ys[i] = std::fmod(0.3 + static_cast<double>(i) * 0.75487766624669276, 1.0);
  }
  std::vector<fvc::api::PointAnswer> out(points);
  std::vector<double> us_per_pt;
  for (int rep = 0; rep < 5; ++rep) {
    Span span("api.query_points");
    session->query_points(xs.data(), ys.data(), points, out.data());
    us_per_pt.push_back(static_cast<double>(span.stop()) * 1e-3 /
                        static_cast<double>(points));
  }
  double cold_us = 0.0;
  {
    Span span("api.query_region.cold");
    (void)session->query_region(strip.first, strip.second);
    cold_us = static_cast<double>(span.stop()) * 1e-3;
  }
  std::vector<double> warm_us;
  for (int rep = 0; rep < 5; ++rep) {
    Span span("api.query_region.warm");
    (void)session->query_region(strip.first, strip.second);
    warm_us.push_back(static_cast<double>(span.stop()) * 1e-3);
  }
  // Move camera 0 away and back: each is a clone-on-edit rebuild.
  const fc::Camera home = session->camera(0);
  fc::Camera away = home;
  away.position.x = std::fmod(home.position.x + 0.5, 1.0);
  std::vector<double> what_if_ms;
  for (int rep = 0; rep < 2; ++rep) {
    Span span("api.move_camera");
    (void)session->move_camera(0, rep % 2 == 0 ? away : home);
    what_if_ms.push_back(static_cast<double>(span.stop()) * 1e-6);
  }
  r.layer("api.points_us_per_pt", median(us_per_pt), "us");
  r.layer("api.region_cold_us", cold_us, "us");
  r.layer("api.region_warm_us", median(warm_us), "us");
  r.layer("api.what_if_ms", median(what_if_ms), "ms");
}

void probe_region_sim(const fc::Network& net, const fc::DenseGrid& grid, double theta,
                      std::vector<double> scan_ms, Result& r) {
  fvc::obs::MetricsNode node("scan");
  double t4 = 0.0;
  {
    Span span("sim.evaluate_region_parallel.metered");
    (void)fvc::sim::evaluate_region_parallel(net, grid, theta, 4, 0, &node);
    t4 = static_cast<double>(span.stop()) * 1e-9;
  }
  double t1 = 0.0;
  {
    Span span("sim.evaluate_region_parallel.1thread");
    (void)fvc::sim::evaluate_region_parallel(net, grid, theta, 1);
    t1 = static_cast<double>(span.stop()) * 1e-9;
  }
  if (scan_ms.empty()) {
    scan_ms.push_back(t4 * 1e3);
  }
  const fvc::obs::MetricsNode* pool = node.find_child("pool");
  r.layer("sim.trial_ms_p50", median(scan_ms), "ms");
  r.layer("sim.trial_ms_p99", tail(scan_ms), "ms");
  r.layer("sim.rows_per_trial", static_cast<double>(grid.side()), "count");
  r.layer("sim.pool_util", pool != nullptr ? pool->counter("utilization") : 0.0, "ratio");
  r.layer("sim.pool_idle_ms", pool != nullptr ? pool->counter("idle_ns") * 1e-6 : 0.0,
          "ms");
  r.layer("sim.scale_eff", t1 / (4.0 * median(scan_ms) * 1e-3), "ratio");
}

void report_daemon_layers(const DaemonLayers& d, Result& r) {
  r.layer("api.batch_mean_size", d.batch_mean_size, "count");
  r.layer("api.coalesced_ratio", d.coalesced_ratio, "ratio");
  r.layer("api.cache_hit_ratio", d.cache_hit_ratio, "ratio");
  r.layer("api.daemon_point_p99_us", d.point_p99_us, "us");
  r.layer("api.daemon_region_p99_us", d.region_p99_us, "us");
  r.layer("api.daemon_what_if_p99_us", d.what_if_p99_us, "us");
  r.layer("api.info_rtt_us", d.info_rtt_us, "us");
  r.layer("load.gen_late_p99_us", d.gen_late_p99_us, "us");
}

void probe_daemon(const Options& opt, const std::vector<fc::Camera>& cams, double theta,
                  std::size_t grid_side, std::size_t tile_rows,
                  std::vector<std::pair<double, double>> strips, double rate,
                  double seconds, Result& r) {
  const std::string file = opt.out_dir + "/probe-" + opt.workload + ".cams";
  fvc::io::save_cameras_file(file, cams);
  const Traffic t = make_traffic(cams, theta, grid_side, tile_rows, 0, {},
                                 std::move(strips), 64, opt.seed);
  Daemon d(opt.fvc_sim, file, opt.out_dir + "/probe.sock", theta, grid_side, tile_rows,
           opt.out_dir + "/daemon-probe.log");
  if (!d.wait_ready(120.0)) {
    r.check(false, "probe daemon came up");
    return;
  }
  ServeRun run;
  run.open_rate = rate;
  run.open_seconds = seconds;
  run.closed_seconds = seconds;
  const ServeOutcome o = serve_run(d, t, run, r);
  report_daemon_layers(o.layers, r);
}

void report_trace_overhead(double untraced_rate, double traced_rate, Result& r) {
  r.layer("trace_overhead_pct",
          traced_rate > 0.0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0, "%");
}

}  // namespace pb
