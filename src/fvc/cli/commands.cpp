#include "fvc/cli/commands.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fvc/analysis/csa.hpp"
#include "fvc/api/client.hpp"
#include "fvc/api/server.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/analysis/exact_theory.hpp"
#include "fvc/analysis/planner.hpp"
#include "fvc/analysis/poisson_theory.hpp"
#include "fvc/analysis/uniform_theory.hpp"
#include "fvc/barrier/barrier.hpp"
#include "fvc/cli/checkpointing.hpp"
#include "fvc/cli/command_registry.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/core/full_view.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/io/network_io.hpp"
#include "fvc/obs/json_export.hpp"
#include "fvc/obs/prom_export.hpp"
#include "fvc/obs/serve_stats.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/obs/trace_export.hpp"
#include "fvc/obs/watchdog.hpp"
#include "fvc/opt/greedy_repair.hpp"
#include "fvc/opt/orient_optimizer.hpp"
#include "fvc/report/heatmap.hpp"
#include "fvc/report/table.hpp"
#include "fvc/io/checkpoint.hpp"
#include "fvc/sim/monte_carlo.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/sim/phase_scan.hpp"
#include "fvc/sim/sweep.hpp"
#include "fvc/sim/thread_pool.hpp"
#include "fvc/sim/threshold_search.hpp"
#include "fvc/stats/rng.hpp"
#include "fvc/track/trajectory.hpp"

namespace fvc::cli {

namespace {

/// The cancellation token of the command currently inside run_command.
/// Written only by run_command (install/clear) and read by the SIGINT
/// trampoline, so request_active_command_stop stays async-signal-safe:
/// lock-free atomics only, no allocation, no locks.
std::atomic<obs::CancellationToken*> g_active_token{nullptr};

/// RAII install/restore of g_active_token around a handler invocation.
/// Restoring (not clearing) keeps well-nested in-process uses correct:
/// a `top` run while a `serve` blocks on another thread hands the slot
/// back to the daemon's token when it finishes.
struct ActiveTokenGuard {
  explicit ActiveTokenGuard(obs::CancellationToken& token)
      : prev_(g_active_token.exchange(&token, std::memory_order_acq_rel)) {}
  ~ActiveTokenGuard() { g_active_token.store(prev_, std::memory_order_release); }
  obs::CancellationToken* const prev_;
};

sim::TrialConfig config_from(const Args& args) {
  sim::TrialConfig cfg;
  cfg.n = args.get_size("n", 500);
  cfg.theta = args.get_double("theta", geom::kHalfPi);
  cfg.profile = core::HeterogeneousProfile::homogeneous(args.get_double("radius", 0.15),
                                                        args.get_double("fov", 2.0));
  cfg.deployment = args.get_bool("poisson", false) ? sim::Deployment::kPoisson
                                                   : sim::Deployment::kUniform;
  if (args.has("grid-side")) {
    cfg.grid_side = args.get_size("grid-side", 32);
  }
  return cfg;
}

core::Network deploy_or_load(CommandContext& ctx) {
  const Args& args = ctx.args();
  obs::MetricsNode& node = ctx.root().child("deploy");
  obs::Span span(node);
  core::Network net = [&] {
    if (args.has("load")) {
      return core::Network(io::load_cameras_file(args.get_string("load", "")));
    }
    const auto profile = core::HeterogeneousProfile::homogeneous(
        args.get_double("radius", 0.15), args.get_double("fov", 2.0));
    stats::Pcg32 rng(args.get_size("seed", 1));
    return deploy::deploy_uniform_network(profile, args.get_size("n", 300), rng);
  }();
  node.set("cameras", static_cast<double>(net.size()));
  node.set("loaded", args.has("load") ? 1.0 : 0.0);
  return net;
}

}  // namespace

void request_active_command_stop() {
  obs::CancellationToken* const token =
      g_active_token.load(std::memory_order_acquire);
  if (token != nullptr) {
    token->request_stop();
  }
}

int cmd_csa(CommandContext& ctx) {
  const Args& args = ctx.args();
  const double n = args.get_double("n", 1000.0);
  const double theta = args.get_double("theta", geom::kHalfPi);
  report::Table t({"quantity", "value"});
  t.add_row({"s_Nc (necessary CSA)", report::fmt_sci(analysis::csa_necessary(n, theta))});
  t.add_row({"s_Sc (sufficient CSA)", report::fmt_sci(analysis::csa_sufficient(n, theta))});
  t.add_row({"sectors k_N", std::to_string(analysis::necessary_sector_count(theta))});
  t.add_row({"sectors k_S", std::to_string(analysis::sufficient_sector_count(theta))});
  t.print(ctx.out());
  ctx.root().set("n", n);
  return kExitSuccess;
}

int cmd_plan(CommandContext& ctx) {
  const Args& args = ctx.args();
  const double n = args.get_double("n", 1000.0);
  const double theta = args.get_double("theta", geom::kHalfPi);
  const double fov = args.get_double("fov", 2.0);
  const double margin = args.get_double("margin", 1.5);
  report::Table t({"plan", "value"});
  t.add_row({"radius for margin*s_Sc",
             report::fmt(analysis::required_radius(analysis::Condition::kSufficient, n,
                                                   theta, fov, margin),
                         4)});
  if (args.has("radius")) {
    const auto profile =
        core::HeterogeneousProfile::homogeneous(args.get_double("radius", 0.1), fov);
    const std::size_t pop = analysis::required_population(
        analysis::Condition::kSufficient, profile, theta, margin, 3, 100000000);
    t.add_row({"population for given radius", std::to_string(pop)});
  }
  t.print(ctx.out());
  ctx.root().set("n", n);
  return kExitSuccess;
}

int cmd_simulate(CommandContext& ctx) {
  const Args& args = ctx.args();
  const sim::TrialConfig cfg = config_from(args);
  const std::size_t trials = args.get_size("trials", 40);
  const std::uint64_t seed = args.get_size("seed", 1);
  sim::RunOptions options;
  options.cancel = &ctx.cancel();
  options.progress = ctx.progress_fn();
  options.metrics = ctx.metrics_child("estimate");
  options.grain = args.get_size("grain", 0);
  const CheckpointOptions ckpt = checkpoint_options_from(args);
  if (!ckpt.unit_driven()) {
    const auto est = sim::estimate_grid_events(cfg, trials, seed,
                                               sim::default_thread_count(), options);
    report::Table t({"event", "probability", "95% CI"});
    const auto row = [&](const char* name, const sim::EventEstimate& e) {
      const auto ci = e.wilson();
      t.add_row({name, report::fmt(e.p(), 3),
                 report::fmt_interval(ci.lo, ci.hi, 3)});
    };
    row("grid meets necessary condition (H_N)", est.necessary);
    row("grid full-view covered", est.full_view);
    row("grid meets sufficient condition (H_S)", est.sufficient);
    t.print(ctx.out());
    return kExitSuccess;
  }
  // Sharded / checkpointed / resumed: drive the run through an explicit
  // unit list and fold the report from the checkpoint document, so it
  // covers resumed work too (and only this shard's slice when sharded).
  CanonicalConfig canon;
  canon.add("cmd", "simulate");
  canon.add("n", static_cast<std::uint64_t>(cfg.n));
  canon.add("theta", cfg.theta);
  canon.add("radius", args.get_double("radius", 0.15));
  canon.add("fov", args.get_double("fov", 2.0));
  canon.add("poisson", static_cast<std::uint64_t>(args.get_bool("poisson", false)));
  if (cfg.grid_side.has_value()) {
    canon.add("grid-side", static_cast<std::uint64_t>(*cfg.grid_side));
  }
  canon.add("trials", static_cast<std::uint64_t>(trials));
  CheckpointSession session(ckpt, "simulate", seed, canon.digest(), trials);
  options.trial_indices = session.pending();
  options.on_trial = [&session](std::uint64_t index, const sim::TrialEvents& events) {
    session.record(index, sim::encode_trial_events(events));
  };
  if (!session.pending().empty()) {
    (void)sim::estimate_grid_events(cfg, trials, seed, sim::default_thread_count(),
                                    options);
  }
  session.finish();
  render_checkpoint_report(ctx.out(), session.checkpoint());
  return kExitSuccess;
}

int cmd_poisson(CommandContext& ctx) {
  const Args& args = ctx.args();
  const double n = args.get_double("n", 500.0);
  const double theta = args.get_double("theta", geom::kHalfPi);
  const auto profile = core::HeterogeneousProfile::homogeneous(
      args.get_double("radius", 0.15), args.get_double("fov", 2.0));
  report::Table t({"quantity", "value"});
  t.add_row({"P_N (Theorem 3)",
             report::fmt(analysis::prob_point_necessary_poisson(profile, n, theta), 4)});
  t.add_row({"P_S (Theorem 4)",
             report::fmt(analysis::prob_point_sufficient_poisson(profile, n, theta), 4)});
  t.print(ctx.out());
  ctx.root().set("n", n);
  return kExitSuccess;
}

int cmd_exact(CommandContext& ctx) {
  const Args& args = ctx.args();
  const std::size_t n = args.get_size("n", 500);
  const double theta = args.get_double("theta", geom::kHalfPi);
  const auto profile = core::HeterogeneousProfile::homogeneous(
      args.get_double("radius", 0.15), args.get_double("fov", 2.0));
  report::Table t({"per-point probability", "value"});
  t.add_row({"sufficient condition (Sec IV bound)",
             report::fmt(analysis::point_success_sufficient(profile, n, theta), 4)});
  t.add_row({"EXACT full view (Stevens mixture)",
             report::fmt(analysis::prob_point_full_view_uniform(profile, n, theta), 4)});
  t.add_row({"necessary condition (Sec III bound)",
             report::fmt(analysis::point_success_necessary(profile, n, theta), 4)});
  t.print(ctx.out());
  ctx.root().set("n", static_cast<double>(n));
  return kExitSuccess;
}

int cmd_phase(CommandContext& ctx) {
  const Args& args = ctx.args();
  sim::PhaseScanConfig scan;
  scan.base.n = args.get_size("n", 500);
  scan.base.theta = args.get_double("theta", geom::kHalfPi);
  scan.base.profile = core::HeterogeneousProfile::homogeneous(0.2, 2.0);
  scan.q_values = sim::linspace(args.get_double("q-lo", 0.5), args.get_double("q-hi", 3.0),
                                args.get_size("points", 6));
  scan.trials = args.get_size("trials", 30);
  scan.master_seed = args.get_size("seed", 1);
  scan.cancel = &ctx.cancel();
  scan.progress = ctx.progress_fn();
  scan.metrics = ctx.metrics_child("phase");
  const CheckpointOptions ckpt = checkpoint_options_from(args);
  std::optional<CheckpointSession> session;
  if (ckpt.unit_driven()) {
    CanonicalConfig canon;
    canon.add("cmd", "phase");
    canon.add("n", static_cast<std::uint64_t>(scan.base.n));
    canon.add("theta", scan.base.theta);
    canon.add("q-lo", args.get_double("q-lo", 0.5));
    canon.add("q-hi", args.get_double("q-hi", 3.0));
    canon.add("points", static_cast<std::uint64_t>(scan.q_values.size()));
    canon.add("trials", static_cast<std::uint64_t>(scan.trials));
    session.emplace(ckpt, "phase", scan.master_seed, canon.digest(),
                    scan.q_values.size());
    scan.point_indices = session->pending();
    scan.on_point = [&session](const sim::PhasePoint& point) {
      session->record(point.index, sim::encode_phase_point(point));
    };
  }
  std::optional<obs::Span> span;
  if (scan.metrics != nullptr) {
    span.emplace(*scan.metrics);
  }
  std::vector<sim::PhasePoint> points;
  if (!session.has_value() || !session->pending().empty()) {
    points = sim::run_phase_scan(scan);
  }
  if (span.has_value()) {
    span->stop();
  }
  if (scan.metrics != nullptr) {
    const std::size_t requested = session.has_value() ? session->pending().size()
                                                      : scan.q_values.size();
    scan.metrics->set("points_requested", static_cast<double>(requested));
    scan.metrics->set("points_run", static_cast<double>(points.size()));
  }
  if (session.has_value()) {
    session->finish();
    render_checkpoint_report(ctx.out(), session->checkpoint());
    return kExitSuccess;
  }
  report::Table t({"q", "P(H_N)", "P(full view)", "P(H_S)"});
  for (const auto& pt : points) {
    t.add_row({report::fmt(pt.q, 2), report::fmt(pt.events.necessary.p(), 3),
               report::fmt(pt.events.full_view.p(), 3),
               report::fmt(pt.events.sufficient.p(), 3)});
  }
  t.print(ctx.out());
  return kExitSuccess;
}

int cmd_threshold(CommandContext& ctx) {
  const Args& args = ctx.args();
  const sim::TrialConfig base = config_from(args);
  const std::size_t trials = args.get_size("trials", 30);
  const std::size_t repeats = args.get_size("repeats", 4);
  const std::uint64_t seed = args.get_size("seed", 1);
  const std::string event = args.get_string("event", "full-view");
  if (event != "necessary" && event != "full-view" && event != "sufficient") {
    throw std::invalid_argument(
        "--event: expected necessary, full-view, or sufficient");
  }
  sim::ThresholdRepeatConfig rc;
  rc.base.q_lo = args.get_double("q-lo", 0.5);
  rc.base.q_hi = args.get_double("q-hi", 4.0);
  rc.base.target = args.get_double("target", 0.5);
  rc.base.iterations = static_cast<int>(args.get_size("iterations", 6));
  rc.base.seed = seed;
  rc.base.cancel = &ctx.cancel();
  rc.base.progress = ctx.progress_fn();
  rc.repeats = repeats;
  const double csa_n =
      analysis::csa_necessary(static_cast<double>(base.n), base.theta);
  const std::size_t threads = sim::default_thread_count();
  const auto estimator = [&](double q, std::uint64_t step_seed) {
    sim::TrialConfig point_cfg = base;
    point_cfg.profile = base.profile.with_weighted_area(q * csa_n);
    sim::RunOptions opt;
    opt.cancel = &ctx.cancel();
    opt.grain = args.get_size("grain", 0);
    const auto est =
        sim::estimate_grid_events(point_cfg, trials, step_seed, threads, opt);
    if (est.full_view.trials == 0) {
      return 0.0;  // cancelled before any trial ran; the repeat is dropped
    }
    if (event == "necessary") {
      return est.necessary.p();
    }
    if (event == "sufficient") {
      return est.sufficient.p();
    }
    return est.full_view.p();
  };
  // Always run through a session: without --checkpoint it just accumulates
  // the outcomes in memory, giving one render path for plain, sharded and
  // resumed invocations alike.
  CanonicalConfig canon;
  canon.add("cmd", "threshold");
  canon.add("n", static_cast<std::uint64_t>(base.n));
  canon.add("theta", base.theta);
  canon.add("radius", args.get_double("radius", 0.15));
  canon.add("fov", args.get_double("fov", 2.0));
  canon.add("poisson", static_cast<std::uint64_t>(args.get_bool("poisson", false)));
  if (base.grid_side.has_value()) {
    canon.add("grid-side", static_cast<std::uint64_t>(*base.grid_side));
  }
  canon.add("q-lo", rc.base.q_lo);
  canon.add("q-hi", rc.base.q_hi);
  canon.add("target", rc.base.target);
  canon.add("iterations", static_cast<std::uint64_t>(rc.base.iterations));
  canon.add("trials", static_cast<std::uint64_t>(trials));
  canon.add("repeats", static_cast<std::uint64_t>(repeats));
  canon.add("event", event);
  CheckpointSession session(checkpoint_options_from(args), "threshold", seed,
                            canon.digest(), repeats);
  rc.repeat_indices = session.pending();
  rc.on_repeat = [&session](const sim::ThresholdOutcome& outcome) {
    session.record(outcome.index, {outcome.q});
  };
  obs::MetricsNode* node = ctx.metrics_child("threshold");
  std::size_t ran = 0;
  if (!session.pending().empty()) {
    std::optional<obs::Span> span;
    if (node != nullptr) {
      span.emplace(*node);
    }
    ran = sim::run_threshold_repeats(estimator, rc).size();
  }
  if (node != nullptr) {
    node->set("repeats_requested", static_cast<double>(session.pending().size()));
    node->set("repeats_run", static_cast<double>(ran));
  }
  session.finish();
  render_checkpoint_report(ctx.out(), session.checkpoint());
  return kExitSuccess;
}

int cmd_merge_shards(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const std::string inputs = args.get_string("inputs", "");
  if (inputs.empty()) {
    throw std::invalid_argument(
        "merge-shards: --inputs a.ckpt,b.ckpt,... is required");
  }
  std::vector<io::Checkpoint> shards;
  std::size_t start = 0;
  while (start <= inputs.size()) {
    const std::size_t comma = inputs.find(',', start);
    const std::string path =
        inputs.substr(start, comma == std::string::npos ? comma : comma - start);
    if (path.empty()) {
      throw std::invalid_argument("merge-shards: empty path in --inputs");
    }
    shards.push_back(io::load_checkpoint_file(path));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  const io::Checkpoint merged = io::merge_checkpoints(shards);
  if (args.has("output")) {
    const std::string output = args.get_string("output", "");
    io::save_checkpoint_file(output, merged);
    out << "merged checkpoint: wrote " << output << "\n";
  }
  out << "merged " << shards.size() << " shard(s): " << merged.units.size() << "/"
      << merged.total_units << " units\n";
  render_checkpoint_report(out, merged);
  ctx.root().set("shards", static_cast<double>(shards.size()));
  ctx.root().set("units_merged", static_cast<double>(merged.units.size()));
  ctx.root().set("units_total", static_cast<double>(merged.total_units));
  // Non-zero when units are missing, so scripts (and CI) can demand a
  // complete merge without parsing the report.
  return merged.complete() ? kExitSuccess : kExitFailure;
}

int cmd_map(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const double theta = args.get_double("theta", geom::kHalfPi);
  const core::Network net = deploy_or_load(ctx);
  if (args.has("save")) {
    io::save_cameras_file(args.get_string("save", ""), net.cameras());
    out << "saved " << net.size() << " cameras to " << args.get_string("save", "")
        << "\n";
  }
  const std::size_t side = args.get_size("side", 48);
  {
    obs::Span span(ctx.root().child("render"));
    std::vector<double> dirs;
    const report::CoverageMap map(side, [&](const geom::Vec2& p) {
      net.viewed_directions_into(p, dirs);
      return core::full_view_covered(dirs, theta).covered ? 1.0 : 0.0;
    });
    map.render_ascii(out);
  }
  out << "('@' = full-view covered, ' ' = not)\n";
  // Metrics-only extra pass: the ASCII map samples cell centers through the
  // point API, so the engine counters come from a metered whole-grid
  // evaluation on a grid of the same side (engine points == side^2).
  if (obs::MetricsNode* node = ctx.metrics_child("region")) {
    obs::Span span(*node);
    const core::DenseGrid grid(side);
    const core::RegionCoverageStats stats = sim::evaluate_region_parallel(
        net, grid, theta, sim::default_thread_count(), args.get_size("grain", 0),
        node);
    node->set("grid_points", static_cast<double>(stats.total_points));
    node->set("covered_1_points", static_cast<double>(stats.covered_1));
    node->set("full_view_points", static_cast<double>(stats.full_view_ok));
  }
  return kExitSuccess;
}

int cmd_barrier(CommandContext& ctx) {
  const Args& args = ctx.args();
  const double theta = args.get_double("theta", geom::kHalfPi);
  const core::Network net = deploy_or_load(ctx);
  barrier::BarrierSpec strip;
  strip.y_lo = args.get_double("y-lo", 0.45);
  strip.y_hi = args.get_double("y-hi", 0.55);
  obs::MetricsNode& node = ctx.root().child("barrier");
  const barrier::BarrierResult r = [&] {
    obs::Span span(node);
    return barrier::evaluate_barrier(net, strip, theta);
  }();
  node.set("covered_fraction", r.covered_fraction);
  node.set("weak_held", r.weak ? 1.0 : 0.0);
  node.set("strong_held", r.strong ? 1.0 : 0.0);
  report::Table t({"barrier metric", "value"});
  t.add_row({"strip cells full-view covered", report::fmt(r.covered_fraction, 3)});
  t.add_row({"weak barrier (straight crossings)", r.weak ? "HELD" : "BREACHED"});
  t.add_row({"strong barrier (any crossing path)", r.strong ? "HELD" : "BREACHED"});
  t.print(ctx.out());
  return kExitSuccess;
}

int cmd_track(CommandContext& ctx) {
  const Args& args = ctx.args();
  const double theta = args.get_double("theta", geom::kHalfPi);
  const core::Network net = deploy_or_load(ctx);
  stats::Pcg32 rng(args.get_size("seed", 1) ^ 0x77AC4);
  const std::size_t walks = args.get_size("walks", 20);
  double fv = 0.0;
  double facing = 0.0;
  std::size_t captured_walks = 0;
  obs::MetricsNode& node = ctx.root().child("walks");
  {
    obs::Span span(node);
    for (std::size_t w = 0; w < walks; ++w) {
      const track::Trajectory path = track::random_waypoint_path(rng, 4, 0.02);
      const track::TrackReport r = track::evaluate_trajectory(net, path, theta);
      fv += r.full_view_fraction();
      facing += r.facing_captured_fraction();
      captured_walks += r.first_capture.has_value() ? 1 : 0;
    }
  }
  node.set("walks", static_cast<double>(walks));
  node.set("captured_walks", static_cast<double>(captured_walks));
  report::Table t({"tracking metric", "value"});
  t.add_row({"mean path full-view fraction", report::fmt(fv / static_cast<double>(walks), 3)});
  t.add_row({"mean facing-captured fraction",
             report::fmt(facing / static_cast<double>(walks), 3)});
  t.add_row({"walks with at least one capture",
             std::to_string(captured_walks) + "/" + std::to_string(walks)});
  t.print(ctx.out());
  return kExitSuccess;
}

int cmd_repair(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const double theta = args.get_double("theta", geom::kHalfPi);
  const core::Network net = deploy_or_load(ctx);
  const core::DenseGrid grid(args.get_size("grid-side", 20));
  opt::RepairConfig cfg;
  cfg.theta = theta;
  cfg.camera_radius = args.get_double("radius", 0.2);
  cfg.camera_fov = args.get_double("fov", 2.0);
  obs::MetricsNode& node = ctx.root().child("repair");
  const opt::RepairResult result = [&] {
    obs::Span span(node);
    return opt::repair_full_view(net, grid, cfg);
  }();
  node.set("initial_holes", static_cast<double>(result.initial_holes));
  node.set("cameras_added", static_cast<double>(result.added.size()));
  node.set("success", result.success ? 1.0 : 0.0);
  report::Table t({"repair metric", "value"});
  t.add_row({"grid points failing before", std::to_string(result.initial_holes)});
  t.add_row({"patch cameras added", std::to_string(result.added.size())});
  t.add_row({"grid fully covered after", result.success ? "YES" : "NO (budget hit)"});
  t.print(out);
  if (args.has("save")) {
    const core::Network fixed = opt::apply_repair(net, result);
    io::save_cameras_file(args.get_string("save", ""), fixed.cameras());
    out << "saved " << fixed.size() << " cameras to " << args.get_string("save", "")
        << "\n";
  }
  return result.success ? kExitSuccess : kExitFailure;
}

int cmd_aim(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const double theta = args.get_double("theta", geom::kHalfPi);
  const core::Network net = deploy_or_load(ctx);
  const core::DenseGrid grid(args.get_size("grid-side", 16));
  opt::AimConfig cfg;
  cfg.theta = theta;
  cfg.candidates = args.get_size("candidates", 12);
  obs::MetricsNode& node = ctx.root().child("aim");
  const opt::AimResult result = [&] {
    obs::Span span(node);
    return opt::optimize_orientations(net, grid, cfg);
  }();
  node.set("initial_covered", static_cast<double>(result.initial_covered));
  node.set("final_covered", static_cast<double>(result.final_covered));
  node.set("reorientations", static_cast<double>(result.reorientations));
  node.set("sweeps", static_cast<double>(result.sweeps_used));
  report::Table t({"aiming metric", "value"});
  t.add_row({"grid points covered before", std::to_string(result.initial_covered)});
  t.add_row({"grid points covered after", std::to_string(result.final_covered)});
  t.add_row({"cameras re-aimed", std::to_string(result.reorientations)});
  t.add_row({"sweeps", std::to_string(result.sweeps_used)});
  t.print(out);
  if (args.has("save")) {
    io::save_cameras_file(args.get_string("save", ""), result.cameras);
    out << "saved " << result.cameras.size() << " cameras to "
        << args.get_string("save", "") << "\n";
  }
  return kExitSuccess;
}

int cmd_serve(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    throw std::invalid_argument("serve: --socket PATH is required");
  }
  const std::uint64_t metrics_every_ms = args.get_size("metrics-every", 0);
  if (metrics_every_ms > 0 && !ctx.metrics_requested()) {
    throw std::invalid_argument("serve: --metrics-every needs --metrics FILE");
  }
  const std::string prom_path = args.get_string("prom", "");
  if (args.has("prom") && prom_path.empty()) {
    throw std::invalid_argument("serve: --prom needs a file path");
  }
  const std::uint64_t prom_every_ms = args.get_size("prom-every", 1000);
  const core::Network net = deploy_or_load(ctx);

  api::SessionConfig scfg;
  scfg.cameras.assign(net.cameras().begin(), net.cameras().end());
  scfg.theta = args.get_double("theta", geom::kHalfPi);
  scfg.grid_side = args.get_size("grid-side", 64);
  scfg.tile_rows = args.get_size("tile-rows", 8);
  scfg.cache_tiles = args.get_size("cache-tiles", 1024);
  scfg.grain = args.get_size("grain", 1);
  scfg.metrics = ctx.metrics_child("session");
  scfg.progress = ctx.progress_fn();
  api::Session session(std::move(scfg));

  obs::ServeStats stats;
  if (ctx.watchdog() != nullptr) {
    obs::Watchdog* wd = ctx.watchdog();
    stats.set_stall_source([wd] { return wd->stalls_flagged(); });
  }
  api::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.stats = &stats;
  cfg.batch_max = args.get_size("batch-max", 256);
  cfg.batch_window_us = args.get_size("batch-window-us", 0);
  // The tile-cache mirror refresh for the periodic Prometheus export;
  // runs under the session mutex like every tick (see PeriodicTask).
  const auto refresh_cache_mirror = [&session, &stats] {
    const api::TileCacheStats& cs = session.cache_stats();
    obs::CacheMirror m;
    m.hits = cs.hits;
    m.misses = cs.misses;
    m.evictions = cs.evictions;
    m.carried_forward = cs.carried_forward;
    m.tiles = session.cache().size();
    m.capacity = session.cache().capacity();
    m.bytes = session.cache().approx_bytes();
    stats.note_cache(m);
  };
  if (metrics_every_ms > 0) {
    const std::string metrics_path = args.get_string("metrics", "");
    cfg.ticks.push_back(
        {metrics_every_ms, [&ctx, metrics_path] {
           obs::write_json_file_atomic(metrics_path, ctx.metrics());
         }});
  }
  if (!prom_path.empty()) {
    cfg.ticks.push_back({prom_every_ms, [&stats, &refresh_cache_mirror, prom_path] {
                           refresh_cache_mirror();
                           // The export must not move a stats poller's
                           // deltas, so it never advances the baseline.
                           obs::write_prometheus_file_atomic(
                               prom_path, stats.snapshot(/*advance_baseline=*/false));
                         }});
  }
  out << "serving " << session.camera_count() << " cameras (digest "
      << session.digest_hex() << ", grid " << session.grid_side() << "x"
      << session.grid_side() << ") on " << socket_path << "\n";
  out.flush();  // the smoke harness waits for this line before connecting
  const api::ServeReport report = [&] {
    obs::MetricsNode& node = ctx.root().child("serve");
    obs::Span span(node);
    api::ServeReport r = api::serve(session, cfg, ctx.cancel());
    node.set("connections", static_cast<double>(r.connections));
    node.set("requests", static_cast<double>(r.requests));
    node.set("errors", static_cast<double>(r.errors));
    return r;
  }();
  if (!prom_path.empty()) {
    // Final export so the file reflects the whole run, drain included.
    refresh_cache_mirror();
    obs::write_prometheus_file_atomic(prom_path,
                                      stats.snapshot(/*advance_baseline=*/false));
  }
  report::Table t({"serve metric", "value"});
  t.add_row({"connections", std::to_string(report.connections)});
  t.add_row({"requests served", std::to_string(report.requests)});
  t.add_row({"error responses", std::to_string(report.errors)});
  const api::TileCacheStats& cs = session.cache_stats();
  t.add_row({"tile cache hits", std::to_string(cs.hits)});
  t.add_row({"tile cache misses", std::to_string(cs.misses)});
  t.add_row({"tile cache evictions", std::to_string(cs.evictions)});
  t.add_row({"tiles carried across edits", std::to_string(cs.carried_forward)});
  t.print(out);
  // The accept loop only exits on cancellation, so run_command's
  // cancelled && code == 0 path reports kExitCancelled (130) — the clean
  // SIGINT drain the CI smoke leg asserts on.
  return kExitSuccess;
}

int cmd_top(CommandContext& ctx) {
  const Args& args = ctx.args();
  std::ostream& out = ctx.out();
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    throw std::invalid_argument("top: --socket PATH is required");
  }
  const bool once = args.get_bool("once", false);
  const bool raw_json = args.get_bool("json", false);
  const std::uint64_t interval_ms = std::max<std::uint64_t>(
      args.get_size("interval-ms", 1000), 50);
  const std::size_t count = once ? 1 : args.get_size("count", 0);

  api::Client client(socket_path);  // throws when nothing is listening

  const auto fmt1 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };

  // Rates come from successive *totals*, client-side — robust against
  // other stats pollers (each poll advances the daemon's delta baseline,
  // so the wire deltas belong to whoever polled last, not to us).
  struct PrevPoll {
    bool valid = false;
    std::uint64_t ns = 0;
    std::array<double, obs::kReqTypeCount> counts{};
  };
  PrevPoll prev;
  std::size_t polls = 0;
  while (!ctx.cancel().stop_requested()) {
    const std::optional<std::string> response = client.try_request("{\"op\":\"stats\"}");
    if (!response.has_value()) {
      out << "top: daemon hung up\n";
      return polls > 0 ? kExitSuccess : kExitFailure;
    }
    const std::uint64_t now = obs::monotonic_ns();
    const api::WireObject obj = api::parse_flat_object(*response);
    if (!api::get_bool(obj, "ok")) {
      out << "top: stats error: " << api::get_string(obj, "error") << "\n";
      return kExitFailure;
    }
    ++polls;
    if (raw_json) {
      out << *response << "\n";
      out.flush();
    } else {
      const double uptime_s = api::get_number(obj, "uptime_ms") / 1000.0;
      if (!once && polls > 1) {
        out << "\x1b[2J\x1b[H";  // refresh in place (loop mode only)
      }
      out << "fvc top — " << api::get_string(obj, "digest") << "  uptime "
          << fmt1(uptime_s) << "s  conns "
          << static_cast<std::uint64_t>(api::get_number(obj, "connections_active"))
          << "/"
          << static_cast<std::uint64_t>(api::get_number(obj, "connections_total"))
          << "  in-flight "
          << static_cast<std::uint64_t>(api::get_number(obj, "in_flight"))
          << "  stalls "
          << static_cast<std::uint64_t>(api::get_number(obj, "stalls"))
          << "  errors "
          << static_cast<std::uint64_t>(api::get_number(obj, "errors_total"))
          << "\n";
      report::Table t({"type", "total", "req/s", "p50 us", "p90 us", "p99 us"});
      const double dt_s = prev.valid
                              ? static_cast<double>(now - prev.ns) / 1e9
                              : uptime_s;  // first poll: average since start
      for (std::size_t i = 0; i < obs::kReqTypeCount; ++i) {
        const std::string name = obs::req_type_name(static_cast<obs::ReqType>(i));
        const double total = api::get_number(obj, name + "_count");
        const double base = prev.valid ? prev.counts[i] : 0.0;
        const double rate = dt_s > 0.0 ? (total - base) / dt_s : 0.0;
        t.add_row({name, std::to_string(static_cast<std::uint64_t>(total)),
                   fmt1(rate), fmt1(api::get_number(obj, name + "_p50_us")),
                   fmt1(api::get_number(obj, name + "_p90_us")),
                   fmt1(api::get_number(obj, name + "_p99_us"))});
        prev.counts[i] = total;
      }
      t.print(out);
      const double batch_rounds = api::get_number(obj, "batch_rounds");
      out << "batch: "
          << static_cast<std::uint64_t>(api::get_number(obj, "batched_requests"))
          << " coalesced reqs in "
          << static_cast<std::uint64_t>(batch_rounds) << " rounds ("
          << static_cast<std::uint64_t>(api::get_number(obj, "batch_points"))
          << " points)  size p50/p90/p99 "
          << fmt1(api::get_number(obj, "batch_size_p50")) << "/"
          << fmt1(api::get_number(obj, "batch_size_p90")) << "/"
          << fmt1(api::get_number(obj, "batch_size_p99")) << "\n";
      const double hits = api::get_number(obj, "cache_hits");
      const double misses = api::get_number(obj, "cache_misses");
      const double lookups = hits + misses;
      out << "cache: hit rate "
          << fmt1(lookups > 0.0 ? 100.0 * hits / lookups : 0.0) << "% ("
          << static_cast<std::uint64_t>(hits) << " hits, "
          << static_cast<std::uint64_t>(misses) << " misses, "
          << static_cast<std::uint64_t>(api::get_number(obj, "cache_evictions"))
          << " evictions)  tiles "
          << static_cast<std::uint64_t>(api::get_number(obj, "cache_tiles")) << "/"
          << static_cast<std::uint64_t>(api::get_number(obj, "cache_capacity"))
          << "  ~" << fmt1(api::get_number(obj, "cache_bytes") / 1024.0)
          << " KiB\n";
      out.flush();
    }
    if (raw_json) {
      // The table path updates prev in its render loop; mirror it here.
      for (std::size_t i = 0; i < obs::kReqTypeCount; ++i) {
        const std::string name = obs::req_type_name(static_cast<obs::ReqType>(i));
        prev.counts[i] = api::get_number(obj, name + "_count");
      }
    }
    prev.ns = now;
    prev.valid = true;
    if (count > 0 && polls >= count) {
      break;
    }
    // Chunked sleep so Ctrl-C lands within ~50ms, not a full interval.
    for (std::uint64_t slept = 0;
         slept < interval_ms && !ctx.cancel().stop_requested(); slept += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return kExitSuccess;
}

int run_command(const Args& args, std::ostream& out) {
  const std::string& cmd = args.command();
  if (cmd.empty()) {
    print_help(out);
    return kExitFailure;
  }
  if (cmd == "help") {
    print_help(out);
    return kExitSuccess;
  }
  const CommandSpec* spec = find_command(cmd);
  if (spec == nullptr) {
    out << "unknown command: " << cmd << "\n\n";
    print_help(out);
    return kExitFailure;
  }
  args.expect_only(allowed_flags(*spec));
  // --kernel pins the grid-eval kernel variant for every engine the command
  // constructs.  Validation (unknown name, variant not compiled in or not
  // executable on this CPU) happens at engine construction via
  // resolve_kernel, which throws rather than silently falling back.  The
  // pin is process-global, so it is cleared on every exit path — callers
  // (tests) may invoke run_command repeatedly.
  struct KernelPinGuard {
    ~KernelPinGuard() { core::set_forced_kernel(std::nullopt); }
  } kernel_pin_guard;
  if (args.has("kernel")) {
    const std::string name = args.get_string("kernel", "");
    const auto variant = core::kernel_from_name(name);
    if (!variant.has_value()) {
      throw std::invalid_argument(
          "--kernel: unknown variant '" + name +
          "' (expected scalar, generic, avx2, or neon)");
    }
    core::set_forced_kernel(*variant);
  }
  CommandContext ctx(args, out);
  ctx.metrics().set_label("tool", "fvc_sim");
  ctx.metrics().set_label("command", cmd);
  if (args.has("kernel")) {
    ctx.metrics().set_label("kernel", args.get_string("kernel", ""));
  }
  // Shard identity travels in the metrics labels so a merged document
  // (RunMetrics::merge keeps the merger's labels, adopts shard-only ones)
  // still says which slice each export described.
  if (args.has("shard-count")) {
    ctx.metrics().set_label("shard_index", args.get_string("shard-index", "0"));
    ctx.metrics().set_label("shard_count", args.get_string("shard-count", "1"));
  }

  // --trace FILE: collect a timeline for the whole handler and export it
  // below.  The session is installed before the watchdog starts so the
  // monitor thread's own events land in a ring too.
  const std::string trace_path =
      args.has("trace") ? args.get_string("trace", "") : std::string();
  if (args.has("trace") && trace_path.empty()) {
    throw std::invalid_argument("--trace needs a file path");
  }
  std::optional<obs::TraceSession> trace_session;
  if (!trace_path.empty()) {
    trace_session.emplace();
    trace_session->install();
  }

  // --stall-timeout-ms MS: arm the watchdog for this invocation.  It feeds
  // on ctx.progress_fn() via the handler's sim-layer options.
  std::optional<obs::Watchdog> watchdog;
  const std::uint64_t stall_timeout_ms = args.get_size("stall-timeout-ms", 0);
  if (stall_timeout_ms > 0) {
    obs::WatchdogConfig wd;
    wd.stall_timeout_ms = stall_timeout_ms;
    wd.poll_interval_ms = std::min<std::uint64_t>(stall_timeout_ms, 100);
    wd.cancel = &ctx.cancel();
    wd.request_stop_on_stall = args.get_bool("stall-stop", false);
    watchdog.emplace(std::move(wd));
    ctx.set_watchdog(&*watchdog);
  }

  int code = kExitSuccess;
  {
    const ActiveTokenGuard token_guard(ctx.cancel());
    obs::Span run_span(ctx.root());
    const obs::TraceScope cmd_scope("command", obs::TraceCategory::kCli);
    code = spec->run(ctx);
  }
  // Join the monitor before draining so the drained timeline includes any
  // stall instants and no writer outlives the session.
  if (watchdog.has_value()) {
    ctx.set_watchdog(nullptr);
    watchdog->stop();
  }
  const bool cancelled = ctx.cancel().stop_requested();
  if (cancelled && code == kExitSuccess) {
    code = kExitCancelled;
    out << "cancelled: partial results (completed work only)\n";
  }
  ctx.root().set("exit_code", static_cast<double>(code));
  ctx.root().set("cancelled", cancelled ? 1.0 : 0.0);
  if (ctx.metrics_requested()) {
    const std::string path = args.get_string("metrics", "");
    if (path.empty()) {
      throw std::invalid_argument("--metrics needs a file path");
    }
    obs::write_json_file(path, ctx.metrics());
    out << "metrics: wrote " << path << "\n";
  }
  if (trace_session.has_value()) {
    const obs::TraceSession::Drained drained = trace_session->drain();
    trace_session->uninstall();
    obs::TraceExportMeta meta;
    meta.process_name = "fvc_sim";
    meta.labels["command"] = cmd;
    if (args.has("kernel")) {
      meta.labels["kernel"] = args.get_string("kernel", "");
    }
    if (cancelled) {
      meta.labels["cancelled"] = "1";
    }
    obs::write_chrome_trace_file(trace_path, drained, meta);
    out << "trace: wrote " << trace_path << "\n";
  }
  return code;
}

}  // namespace fvc::cli
