/// Schema tests for the --trace Chrome-trace JSON surface: a traced
/// command must emit one parseable document with the fvc.trace/1 otherData
/// header, process/thread metadata events, balanced begin/end slices per
/// thread, and the engine/trial slices a traced simulate promises.  Also
/// pins the cancellation exit contract (kExitCancelled, partial flush) the
/// SIGINT trampoline relies on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fvc/cli/command_registry.hpp"
#include "fvc/cli/commands.hpp"
#include "fvc/obs/trace.hpp"
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

RunResult run_with_trace(std::vector<const char*> argv) {
  const std::string path =
      std::string("/tmp/fvc_cli_trace_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  argv.push_back("--trace");
  argv.push_back(path.c_str());
  const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  RunResult r;
  r.code = run_command(args, out);
  r.output = out.str();
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "trace file missing for " << argv[0];
  std::stringstream ss;
  ss << is.rdbuf();
  std::remove(path.c_str());
  r.doc = parse_json(ss.str());
  return r;
}

TEST(TraceJson, SimulateEmitsSchemaHeaderAndMetadata) {
  const RunResult r = run_with_trace(
      {"simulate", "--n", "60", "--trials", "4", "--seed", "3"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("trace: wrote"), std::string::npos);
  const JsonValue& other = r.doc.at("otherData");
  EXPECT_EQ(other.at("schema").str(), "fvc.trace/1");
  EXPECT_EQ(other.at("command").str(), "simulate");
  EXPECT_GE(other.at("threads").number(), obs::kTraceEnabled ? 1.0 : 0.0);
  EXPECT_GE(other.at("evicted").number(), 0.0);
  const auto& events = r.doc.at("traceEvents").arr();
  ASSERT_FALSE(events.empty());
  // First event names the process for Perfetto's track labels.
  EXPECT_EQ(events[0].at("name").str(), "process_name");
  EXPECT_EQ(events[0].at("ph").str(), "M");
  EXPECT_EQ(events[0].at("args").at("name").str(), "fvc_sim");
}

TEST(TraceJson, SimulateSlicesBalanceAndCoverEngineAndTrials) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (FVC_TRACING=OFF)";
  }
  const RunResult r = run_with_trace(
      {"simulate", "--n", "60", "--trials", "6", "--seed", "5"});
  EXPECT_EQ(r.code, 0);
  std::map<double, long> depth;         // tid -> open slices
  std::map<std::string, long> slices;   // name -> B count
  bool saw_counter = false;
  for (const JsonValue& ev : r.doc.at("traceEvents").arr()) {
    const std::string ph = ev.at("ph").str();
    if (ph == "M") {
      continue;
    }
    const double tid = ev.at("tid").number();
    EXPECT_GE(ev.at("ts").number(), 0.0);  // rebased to the run origin
    if (ph == "B") {
      ++depth[tid];
      ++slices[ev.at("name").str()];
    } else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "end without begin on tid " << tid;
    } else if (ph == "C") {
      saw_counter = true;
    }
  }
  for (const auto& [tid, open] : depth) {
    EXPECT_EQ(open, 0) << "unbalanced slices on tid " << tid;
  }
  // The taxonomy a traced simulate promises: a command slice, the pool
  // fan-out, one slice per trial, and the engine build/scan inside each.
  EXPECT_EQ(slices["command"], 1);
  EXPECT_GE(slices["pool.parallel_for"], 1);
  EXPECT_EQ(slices["trial"], 6);
  EXPECT_EQ(slices["engine.build"], 6);
  EXPECT_EQ(slices["engine.scan"], 6);
  EXPECT_TRUE(saw_counter) << "no trials_done counter track";
}

TEST(TraceJson, EventsCarryCategoryAndSortedTimestamps) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (FVC_TRACING=OFF)";
  }
  const RunResult r = run_with_trace(
      {"simulate", "--n", "60", "--trials", "3", "--seed", "2"});
  double prev_ts = 0.0;
  for (const JsonValue& ev : r.doc.at("traceEvents").arr()) {
    if (ev.at("ph").str() == "M") {
      continue;
    }
    const std::string cat = ev.at("cat").str();
    EXPECT_TRUE(cat == "engine" || cat == "pool" || cat == "trial" ||
                cat == "scan" || cat == "watchdog" || cat == "cli")
        << "unknown category " << cat;
    const double ts = ev.at("ts").number();
    EXPECT_GE(ts, prev_ts) << "drained timeline not sorted by timestamp";
    prev_ts = ts;
  }
}

TEST(TraceJson, PhaseScanEmitsSweepPoints) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (FVC_TRACING=OFF)";
  }
  const RunResult r = run_with_trace({"phase", "--n", "50", "--points", "3",
                                      "--trials", "2", "--seed", "1"});
  EXPECT_EQ(r.code, 0);
  long sweep_points = 0;
  for (const JsonValue& ev : r.doc.at("traceEvents").arr()) {
    if (ev.at("ph").str() == "B" && ev.at("name").str() == "sweep.point") {
      ++sweep_points;
      EXPECT_EQ(ev.at("cat").str(), "scan");
    }
  }
  EXPECT_EQ(sweep_points, 3);
}

TEST(TraceJson, WatchdogCancelledRunStillWritesTraceAndExits130) {
  // The watchdog route to cancellation: progress only arrives at trial
  // boundaries, so a single heavy trial (~200ms here; the grid is sized
  // for the row-swept boolean scan) with a 25ms stall
  // deadline guarantees a quiet period that trips the watchdog mid-trial
  // (run_command owns the token, so this is the race-free stand-in for the
  // SIGINT trampoline).  The run must still flush a valid trace with the
  // cancelled label and report kExitCancelled.
  const std::string path = "/tmp/fvc_cli_trace_cancelled.json";
  const std::vector<const char*> argv = {
      "simulate",     "--n",        "3000",      "--trials",
      "1",            "--seed",     "3",         "--grid-side",
      "1400",         "--trace",    path.c_str(), "--stall-timeout-ms",
      "25",           "--stall-stop", "1"};
  const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  testing::internal::CaptureStderr();  // swallow the watchdog diagnostic
  const int code = run_command(args, out);
  const std::string diagnostic = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, kExitCancelled);
  EXPECT_NE(out.str().find("cancelled: partial results"), std::string::npos);
  EXPECT_NE(diagnostic.find("no progress for"), std::string::npos);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  std::remove(path.c_str());
  const JsonValue doc = parse_json(ss.str());
  EXPECT_EQ(doc.at("otherData").at("schema").str(), "fvc.trace/1");
  EXPECT_EQ(doc.at("otherData").at("cancelled").str(), "1");
}

TEST(TraceJson, TraceFlagRequiresAPath) {
  std::vector<const char*> argv = {"csa", "--trace", ""};
  const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  EXPECT_THROW(run_command(args, out), std::invalid_argument);
}

}  // namespace
}  // namespace fvc::cli
