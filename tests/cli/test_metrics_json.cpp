/// Schema tests for the --metrics JSON surface: every subcommand must emit
/// one parseable fvc.metrics/1 document with the stable keys, the root
/// span must dominate its direct children (monotonic span nesting — the
/// root wraps the whole handler, stage spans run sequentially inside it),
/// and the engine counters must be consistent with the grid size.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fvc/cli/command_registry.hpp"
#include "fvc/cli/commands.hpp"
#include "fvc/core/cpu_features.hpp"
#include "support/minijson.hpp"

namespace fvc::cli {
namespace {

using testsupport::JsonValue;
using testsupport::parse_json;

struct RunResult {
  int code = 0;
  std::string output;
  JsonValue doc;
};

RunResult run_with_metrics(std::vector<const char*> argv) {
  // ctest may run the TESTs of this binary concurrently; key the temp file
  // on the test name so parallel runs cannot clobber each other.
  const std::string path =
      std::string("/tmp/fvc_cli_metrics_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  argv.push_back("--metrics");
  argv.push_back(path.c_str());
  const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  RunResult r;
  r.code = run_command(args, out);
  r.output = out.str();
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "metrics file missing for " << argv[0];
  std::stringstream ss;
  ss << is.rdbuf();
  std::remove(path.c_str());
  r.doc = parse_json(ss.str());
  return r;
}

/// The schema-stable keys every node must carry.
void check_node_shape(const JsonValue& node) {
  EXPECT_TRUE(node.at("name").is_string());
  EXPECT_TRUE(node.at("elapsed_ns").is_number());
  EXPECT_TRUE(node.at("counters").is_object());
  EXPECT_TRUE(node.at("histograms").is_object());
  for (const JsonValue& child : node.at("children").arr()) {
    check_node_shape(child);
  }
}

/// Document-level invariants shared by every command.
void check_document(const JsonValue& doc, const std::string& command) {
  EXPECT_EQ(doc.at("schema").str(), "fvc.metrics/1");
  EXPECT_EQ(doc.at("labels").at("command").str(), command);
  EXPECT_EQ(doc.at("labels").at("tool").str(), "fvc_sim");
  const JsonValue& root = doc.at("root");
  check_node_shape(root);
  EXPECT_EQ(root.at("name").str(), "run");
  EXPECT_GT(root.at("elapsed_ns").number(), 0.0);
  EXPECT_TRUE(root.at("counters").contains("exit_code"));
  // Monotonic span nesting: the root span wraps the whole handler and the
  // stage spans beneath it run sequentially, so their sum cannot exceed it.
  double child_sum = 0.0;
  for (const JsonValue& child : root.at("children").arr()) {
    child_sum += child.at("elapsed_ns").number();
  }
  EXPECT_LE(child_sum, root.at("elapsed_ns").number());
}

const JsonValue& child_named(const JsonValue& node, const std::string& name) {
  for (const JsonValue& child : node.at("children").arr()) {
    if (child.at("name").str() == name) {
      return child;
    }
  }
  throw std::out_of_range("no child named '" + name + "'");
}

TEST(MetricsJson, EveryCommandEmitsAValidDocument) {
  // merge-shards folds existing checkpoint files; produce a complete one
  // for it to consume (a 1-way "partition").
  const char* merge_input = "/tmp/fvc_cli_metrics_merge_input.json";
  {
    const char* tokens[] = {"simulate", "--n",        "100", "--radius",
                            "0.3",      "--trials",   "3",   "--grid-side",
                            "6",        "--checkpoint", merge_input};
    const Args args = Args::parse(11, tokens);
    std::ostringstream out;
    ASSERT_EQ(run_command(args, out), 0);
  }
  const std::vector<std::vector<const char*>> invocations = {
      {"csa"},
      {"plan", "--radius", "0.1"},
      {"simulate", "--n", "120", "--radius", "0.3", "--trials", "4", "--grid-side", "8"},
      {"poisson"},
      {"exact", "--n", "200"},
      {"phase", "--n", "120", "--points", "2", "--trials", "3"},
      {"threshold", "--n", "100", "--radius", "0.3", "--grid-side", "6", "--trials",
       "3", "--repeats", "2", "--iterations", "2"},
      {"merge-shards", "--inputs", merge_input},
      {"map", "--n", "100", "--radius", "0.3", "--side", "10"},
      {"barrier", "--n", "200", "--radius", "0.25"},
      {"track", "--n", "150", "--radius", "0.25", "--walks", "3"},
      {"repair", "--n", "120", "--radius", "0.2", "--grid-side", "8"},
      {"aim", "--n", "100", "--radius", "0.2", "--fov", "1.5", "--grid-side", "8"},
      {"experiment", "--id", "FIG7"},
  };
  // serve blocks until cancelled and top needs a live daemon, so both are
  // exercised separately below; the +2 keeps this guard demanding an
  // entry for every new subcommand.
  ASSERT_EQ(invocations.size() + 2, command_table().size())
      << "new subcommand missing from the metrics schema test";
  for (const auto& argv : invocations) {
    const RunResult r = run_with_metrics(argv);
    EXPECT_EQ(r.code, 0) << argv[0];
    check_document(r.doc, argv[0]);
    EXPECT_NE(r.output.find("metrics: wrote"), std::string::npos) << argv[0];
  }
  std::remove(merge_input);

  // serve: run on a thread, request cooperative stop once the socket is
  // bound (proof the handler is inside its accept loop), and demand the
  // drained run still exits 130 and flushes a valid partial document.
  const std::string sock = "/tmp/fvc_cli_metrics_every_serve.sock";
  const std::string serve_metrics = "/tmp/fvc_cli_metrics_every_serve.json";
  std::remove(sock.c_str());
  const char* serve_tokens[] = {"serve",       "--socket", sock.c_str(),
                                "--n",         "40",       "--grid-side",
                                "8",           "--metrics", serve_metrics.c_str()};
  const Args serve_args = Args::parse(9, serve_tokens);
  std::ostringstream serve_out;
  int serve_code = -1;
  std::thread server([&] { serve_code = run_command(serve_args, serve_out); });
  for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(::access(sock.c_str(), F_OK), 0) << "serve never bound its socket";

  // top against the live daemon: one snapshot, then the standard document
  // checks — a metered top run is a command like any other.
  const RunResult top = run_with_metrics({"top", "--socket", sock.c_str(),
                                          "--once", "--json"});
  EXPECT_EQ(top.code, 0);
  check_document(top.doc, "top");
  EXPECT_NE(top.output.find("\"schema\":\"fvc.serve_stats/1\""),
            std::string::npos)
      << top.output;

  request_active_command_stop();
  server.join();
  EXPECT_EQ(serve_code, kExitCancelled);
  std::ifstream is(serve_metrics);
  ASSERT_TRUE(is.good()) << "metrics file missing for serve";
  std::stringstream ss;
  ss << is.rdbuf();
  std::remove(serve_metrics.c_str());
  check_document(parse_json(ss.str()), "serve");
  EXPECT_NE(serve_out.str().find("metrics: wrote"), std::string::npos);
}

TEST(MetricsJson, SimulateEstimateSubtree) {
  const RunResult r = run_with_metrics(
      {"simulate", "--n", "120", "--radius", "0.3", "--trials", "6", "--grid-side", "8"});
  ASSERT_EQ(r.code, 0);
  const JsonValue& est = child_named(r.doc.at("root"), "estimate");
  const JsonValue& trials = child_named(est, "trials");
  EXPECT_DOUBLE_EQ(trials.at("counters").at("trials_requested").number(), 6.0);
  EXPECT_DOUBLE_EQ(trials.at("counters").at("trials_run").number(), 6.0);
  EXPECT_DOUBLE_EQ(trials.at("counters").at("trials_cancelled").number(), 0.0);
  EXPECT_DOUBLE_EQ(trials.at("histograms").at("trial_us").at("total").number(), 6.0);

  const JsonValue& engine = child_named(est, "engine");
  const double points = engine.at("counters").at("points").number();
  EXPECT_GT(points, 0.0);
  // One histogram observation per evaluated grid point, and with an 8x8
  // grid over 6 trials at most 6 * 64 points can be touched (early exits
  // only reduce the count).
  EXPECT_LE(points, 6.0 * 64.0);
  EXPECT_DOUBLE_EQ(
      engine.at("histograms").at("candidates_per_point").at("total").number(), points);
  // On this boolean scan the histogram counts each point's exact
  // classifies, so every point the sweep decided alone lands in the first
  // bucket (0 or 1 candidates).
  EXPECT_GE(engine.at("histograms").at("candidates_per_point").at("buckets").arr().at(0).number(),
            engine.at("counters").at("swept_points").number());
  EXPECT_GT(engine.at("counters").at("sweep_camera_rows").number(), 0.0);
  EXPECT_GE(engine.at("counters").at("candidates_total").number(),
            engine.at("counters").at("directions_total").number());
  // Points the sector-occupancy decision settled without atan2 or sort.
  EXPECT_TRUE(engine.at("counters").contains("atan2_calls"));
  EXPECT_LE(engine.at("counters").at("occupancy_points").number(), points);
  // Regression: the engine node used to export "elapsed_ns": 0 — it must
  // carry the attributed construction time (candidate binning, summed
  // across trials) and agree with the build_ns counter.
  EXPECT_GT(engine.at("elapsed_ns").number(), 0.0);
  EXPECT_GT(engine.at("counters").at("build_ns").number(), 0.0);
  EXPECT_DOUBLE_EQ(engine.at("elapsed_ns").number(),
                   engine.at("counters").at("build_ns").number());
  // The same node names the kernel variant the CPU dispatched and its
  // lane width.
  const core::KernelVariant kernel = core::resolve_kernel();
  EXPECT_DOUBLE_EQ(engine.at("counters").at("kernel_lanes").number(),
                   static_cast<double>(core::kernel_lanes(kernel)));
  EXPECT_DOUBLE_EQ(
      engine.at("counters").at("kernel_" + std::string(core::kernel_name(kernel))).number(),
      1.0);

  const JsonValue& pool = child_named(est, "pool");
  EXPECT_DOUBLE_EQ(pool.at("counters").at("tasks").number(), 6.0);
  EXPECT_GE(pool.at("counters").at("workers").number(), 1.0);
}

TEST(MetricsJson, MapRegionCountersMatchGridSize) {
  const RunResult r =
      run_with_metrics({"map", "--n", "100", "--radius", "0.3", "--side", "12"});
  ASSERT_EQ(r.code, 0);
  const JsonValue& region = child_named(r.doc.at("root"), "region");
  EXPECT_DOUBLE_EQ(region.at("counters").at("grid_points").number(), 144.0);
  const JsonValue& engine = child_named(region, "engine");
  EXPECT_DOUBLE_EQ(engine.at("counters").at("points").number(), 144.0);
  EXPECT_DOUBLE_EQ(
      engine.at("histograms").at("candidates_per_point").at("total").number(), 144.0);
  EXPECT_DOUBLE_EQ(engine.at("counters").at("grid_side").number(), 12.0);
  // The deploy stage ran and recorded the fleet size.
  const JsonValue& deploy = child_named(r.doc.at("root"), "deploy");
  EXPECT_DOUBLE_EQ(deploy.at("counters").at("cameras").number(), 100.0);
}

TEST(MetricsJson, PhasePerPointSubtrees) {
  const RunResult r =
      run_with_metrics({"phase", "--n", "120", "--points", "3", "--trials", "2"});
  ASSERT_EQ(r.code, 0);
  const JsonValue& phase = child_named(r.doc.at("root"), "phase");
  EXPECT_DOUBLE_EQ(phase.at("counters").at("points_requested").number(), 3.0);
  EXPECT_DOUBLE_EQ(phase.at("counters").at("points_run").number(), 3.0);
  double q_sum = 0.0;
  for (int i = 0; i < 3; ++i) {
    const JsonValue& point = child_named(phase, "q_" + std::to_string(i));
    EXPECT_TRUE(point.at("counters").contains("q"));
    q_sum += point.at("counters").at("q").number();
    const JsonValue& trials = child_named(point, "trials");
    EXPECT_DOUBLE_EQ(trials.at("counters").at("trials_run").number(), 2.0);
  }
  EXPECT_GT(q_sum, 0.0);
  // Per-point spans nest inside the phase span (sequential scan).
  double point_sum = 0.0;
  for (const JsonValue& child : phase.at("children").arr()) {
    point_sum += child.at("elapsed_ns").number();
  }
  EXPECT_LE(point_sum, phase.at("elapsed_ns").number());
}

TEST(MetricsJson, NoMetricsFlagWritesNothing) {
  const char* tokens[] = {"csa"};
  const Args args = Args::parse(1, tokens);
  std::ostringstream out;
  EXPECT_EQ(run_command(args, out), 0);
  EXPECT_EQ(out.str().find("metrics:"), std::string::npos);
}

TEST(MetricsJson, EmptyMetricsPathThrows) {
  const char* tokens[] = {"csa", "--metrics="};
  const Args args = Args::parse(2, tokens);
  std::ostringstream out;
  EXPECT_THROW((void)run_command(args, out), std::invalid_argument);
}

TEST(Registry, HelpIsGeneratedFromTheTable) {
  std::ostringstream help;
  print_help(help);
  const std::string text = help.str();
  EXPECT_NE(text.find("usage: fvc_sim"), std::string::npos);
  EXPECT_NE(text.find("commands:"), std::string::npos);
  for (const CommandSpec& cmd : command_table()) {
    EXPECT_NE(text.find(std::string(cmd.name)), std::string::npos) << cmd.name;
    EXPECT_NE(text.find(std::string(cmd.summary)), std::string::npos) << cmd.name;
    for (const FlagSpec& flag : cmd.flags) {
      EXPECT_NE(text.find("--" + std::string(flag.name)), std::string::npos)
          << cmd.name << " --" << flag.name;
    }
  }
  for (const FlagSpec& flag : global_flags()) {
    EXPECT_NE(text.find("--" + std::string(flag.name)), std::string::npos);
  }
}

TEST(Registry, AllowlistsIncludeTheGlobalFlags) {
  for (const CommandSpec& cmd : command_table()) {
    const auto allowed = allowed_flags(cmd);
    EXPECT_EQ(allowed.count("metrics"), 1u) << cmd.name;
    for (const FlagSpec& flag : cmd.flags) {
      EXPECT_EQ(allowed.count(std::string(flag.name)), 1u)
          << cmd.name << " --" << flag.name;
    }
  }
}

TEST(Registry, LookupAndUniqueness) {
  for (const CommandSpec& cmd : command_table()) {
    const CommandSpec* found = find_command(cmd.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &cmd);  // names are unique
    ASSERT_NE(cmd.run, nullptr);
  }
  EXPECT_EQ(find_command("help"), nullptr);  // help is handled by run_command
  EXPECT_EQ(find_command("nope"), nullptr);
}

}  // namespace
}  // namespace fvc::cli
