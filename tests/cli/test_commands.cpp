#include "fvc/cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fvc::cli {
namespace {

std::pair<int, std::string> run(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv(tokens);
  const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out;
  const int code = run_command(args, out);
  return {code, out.str()};
}

TEST(Commands, EmptyPrintsHelpAndFails) {
  const auto [code, out] = run({});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("usage: fvc_sim"), std::string::npos);
}

TEST(Commands, HelpSucceeds) {
  const auto [code, out] = run({"help"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(Commands, UnknownCommandFails) {
  const auto [code, out] = run({"frobnicate"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("unknown command: frobnicate"), std::string::npos);
}

TEST(Commands, Csa) {
  const auto [code, out] = run({"csa", "--n", "1000", "--theta", "0.785"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("s_Nc (necessary CSA)"), std::string::npos);
  EXPECT_NE(out.find("s_Sc (sufficient CSA)"), std::string::npos);
  EXPECT_NE(out.find("sectors k_N"), std::string::npos);
}

TEST(Commands, CsaRejectsUnknownFlags) {
  std::vector<const char*> argv = {"csa", "--bogus", "1"};
  const Args args = Args::parse(3, argv.data());
  std::ostringstream out;
  EXPECT_THROW((void)run_command(args, out), std::invalid_argument);
}

TEST(Commands, Plan) {
  const auto [code, out] =
      run({"plan", "--n", "1000", "--theta", "0.785", "--fov", "2.0", "--radius", "0.1"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("radius for margin*s_Sc"), std::string::npos);
  EXPECT_NE(out.find("population for given radius"), std::string::npos);
}

TEST(Commands, SimulateSmall) {
  const auto [code, out] = run({"simulate", "--n", "150", "--radius", "0.3", "--trials",
                                "5", "--grid-side", "8"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("grid full-view covered"), std::string::npos);
  EXPECT_NE(out.find("H_N"), std::string::npos);
}

TEST(Commands, SimulateRejectsAPopulationPastTheEngineLimit) {
  // Rejected by the trial config's validation, before a deployment
  // reserves room for that many cameras.
  try {
    (void)run({"simulate", "--n", "18446744073709549568", "--trials", "2"});
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n = 18446744073709549568 exceeds 4294967295"),
              std::string::npos)
        << e.what();
  }
}

TEST(Commands, Poisson) {
  const auto [code, out] = run({"poisson", "--n", "400", "--radius", "0.2"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("P_N (Theorem 3)"), std::string::npos);
  EXPECT_NE(out.find("P_S (Theorem 4)"), std::string::npos);
}

TEST(Commands, ExactShowsAllThreeLaws) {
  const auto [code, out] = run({"exact", "--n", "300", "--radius", "0.2"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("EXACT full view (Stevens mixture)"), std::string::npos);
  EXPECT_NE(out.find("sufficient condition"), std::string::npos);
  EXPECT_NE(out.find("necessary condition"), std::string::npos);
}

TEST(Commands, PhaseSmall) {
  const auto [code, out] = run({"phase", "--n", "150", "--points", "3", "--trials", "5"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("P(H_N)"), std::string::npos);
}

TEST(Commands, MapRendersGrid) {
  const auto [code, out] =
      run({"map", "--n", "200", "--radius", "0.3", "--side", "10"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("full-view covered"), std::string::npos);
  // 10 rows of 10 chars somewhere in the output.
  EXPECT_GE(out.size(), 110u);
}

TEST(Commands, MapSaveThenLoadRoundTrips) {
  const std::string path = "/tmp/fvc_cli_test_fleet.txt";
  const auto [code1, out1] =
      run({"map", "--n", "100", "--radius", "0.25", "--side", "8", "--save",
           path.c_str()});
  EXPECT_EQ(code1, 0);
  EXPECT_NE(out1.find("saved 100 cameras"), std::string::npos);
  const auto [code2, out2] = run({"map", "--load", path.c_str(), "--side", "8"});
  EXPECT_EQ(code2, 0);
  std::remove(path.c_str());
}

TEST(Commands, Barrier) {
  const auto [code, out] = run({"barrier", "--n", "300", "--radius", "0.25"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("weak barrier"), std::string::npos);
  EXPECT_NE(out.find("strong barrier"), std::string::npos);
  const bool verdict = out.find("HELD") != std::string::npos ||
                       out.find("BREACHED") != std::string::npos;
  EXPECT_TRUE(verdict);
}

TEST(Commands, Track) {
  const auto [code, out] =
      run({"track", "--n", "250", "--radius", "0.25", "--walks", "5"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("mean path full-view fraction"), std::string::npos);
  EXPECT_NE(out.find("/5"), std::string::npos);
}

TEST(Commands, RepairPatchesAndReportsSuccess) {
  const auto [code, out] = run({"repair", "--n", "150", "--radius", "0.2", "--grid-side",
                                "10"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("patch cameras added"), std::string::npos);
  EXPECT_NE(out.find("YES"), std::string::npos);
}

TEST(Commands, AimReportsImprovement) {
  const auto [code, out] = run({"aim", "--n", "150", "--radius", "0.2", "--fov", "1.2",
                                "--grid-side", "10", "--candidates", "8"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("grid points covered before"), std::string::npos);
  EXPECT_NE(out.find("cameras re-aimed"), std::string::npos);
}

TEST(Commands, AimSaveProducesLoadableFleet) {
  const std::string path = "/tmp/fvc_cli_aim_fleet.txt";
  const auto [code1, out1] = run({"aim", "--n", "80", "--radius", "0.2", "--fov", "1.5",
                                  "--grid-side", "8", "--save", path.c_str()});
  EXPECT_EQ(code1, 0);
  const auto [code2, out2] = run({"map", "--load", path.c_str(), "--side", "8"});
  EXPECT_EQ(code2, 0);
  std::remove(path.c_str());
}

TEST(Commands, ExperimentRunsARegisteredId) {
  const auto [code, out] = run({"experiment", "--id", "FIG7"});
  EXPECT_EQ(code, kExitSuccess);
  EXPECT_NE(out.find("=== FIG7: "), std::string::npos);
  EXPECT_NE(out.find("Overall: OK"), std::string::npos);
}

TEST(Commands, ExperimentWithAFailedCheckPrintsMismatchAndFails) {
  const experiments::Experiment fake{"FAKE", "one check fails", [] {
                                       experiments::Report r;
                                       r.checks = {{"holds", true}, {"does not hold", false}};
                                       return r;
                                     }};
  std::ostringstream out;
  EXPECT_EQ(report_experiment(fake, out), kExitFailure);
  EXPECT_NE(out.str().find("  * does not hold -> MISMATCH\n"), std::string::npos);
  EXPECT_NE(out.str().find("Overall: MISMATCH (1 of 2 checks fail)"), std::string::npos);
}

TEST(Commands, ExperimentWithoutAKnownIdListsTheIdsAndFails) {
  const auto [code, out] = run({"experiment", "--id", "NOPE"});
  EXPECT_EQ(code, kExitFailure);
  EXPECT_NE(out.find("unknown experiment: NOPE"), std::string::npos);
  for (const experiments::Experiment& e : experiments::experiment_table()) {
    EXPECT_NE(out.find("  " + std::string(e.id) + "  "), std::string::npos) << e.id;
  }
  const auto [bare_code, bare_out] = run({"experiment"});
  EXPECT_EQ(bare_code, kExitFailure);
  EXPECT_NE(bare_out.find("experiment needs --id"), std::string::npos);
  EXPECT_NE(bare_out.find("  CLUSTER  "), std::string::npos);
}

TEST(Commands, DeterministicForFixedSeed) {
  const auto a = run({"simulate", "--n", "120", "--radius", "0.3", "--trials", "5",
                      "--grid-side", "8", "--seed", "9"});
  const auto b = run({"simulate", "--n", "120", "--radius", "0.3", "--trials", "5",
                      "--grid-side", "8", "--seed", "9"});
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace fvc::cli
