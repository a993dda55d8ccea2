#include "fvc/sim/trial.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fvc/core/region_coverage.hpp"
#include "fvc/geometry/angle.hpp"

namespace fvc::sim {
namespace {

using core::HeterogeneousProfile;
using geom::kHalfPi;

TrialConfig base_config() {
  TrialConfig cfg{HeterogeneousProfile::homogeneous(0.25, 2.0), 150, kHalfPi,
                  Deployment::kUniform, std::nullopt};
  cfg.grid_side = 12;  // keep tests fast
  return cfg;
}

TEST(TrialConfig, GridDefaultsToNLogN) {
  TrialConfig cfg = base_config();
  cfg.grid_side.reset();
  cfg.n = 100;
  EXPECT_EQ(cfg.grid().side(), core::DenseGrid::for_network_size(100).side());
  cfg.grid_side = 9;
  EXPECT_EQ(cfg.grid().side(), 9u);
}

TEST(TrialConfig, Validation) {
  TrialConfig cfg = base_config();
  cfg.n = 2;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.theta = 0.0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.grid_side = 0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  EXPECT_NO_THROW(validate(base_config()));
}

TEST(TrialConfig, ValidationBoundsThePopulationBeforeDeploying) {
  TrialConfig cfg = base_config();
  cfg.n = core::kMaxCameras;
  EXPECT_NO_THROW(validate(cfg));
  for (const std::size_t n : {core::kMaxCameras + 1, std::size_t{18446744073709549568ULL}}) {
    cfg.n = n;
    try {
      validate(cfg);
      ADD_FAILURE() << "n = " << n << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("n = " + std::to_string(n)), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(core::kMaxCameras)), std::string::npos) << msg;
    }
    // deploy validates first, so it throws before reserving n cameras.
    EXPECT_THROW((void)deploy(cfg, 1), std::invalid_argument);
  }
}

TEST(Deploy, UniformProducesExactCount) {
  const TrialConfig cfg = base_config();
  const core::Network net = deploy(cfg, 123);
  EXPECT_EQ(net.size(), 150u);
}

TEST(Deploy, PoissonProducesRandomCount) {
  TrialConfig cfg = base_config();
  cfg.deployment = Deployment::kPoisson;
  const core::Network net = deploy(cfg, 123);
  EXPECT_GT(net.size(), 90u);
  EXPECT_LT(net.size(), 220u);
}

TEST(Deploy, DeterministicPerSeed) {
  const TrialConfig cfg = base_config();
  const core::Network a = deploy(cfg, 7);
  const core::Network b = deploy(cfg, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.camera(i).position, b.camera(i).position);
    EXPECT_EQ(a.camera(i).orientation, b.camera(i).orientation);
  }
  const core::Network c = deploy(cfg, 8);
  EXPECT_NE(a.camera(0).position, c.camera(0).position);
}

TEST(RunTrialEvents, NestingHolds) {
  const TrialConfig cfg = base_config();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TrialEvents ev = run_trial_events(cfg, seed);
    if (ev.all_sufficient) {
      EXPECT_TRUE(ev.all_full_view) << "seed=" << seed;
    }
    if (ev.all_full_view) {
      EXPECT_TRUE(ev.all_necessary) << "seed=" << seed;
    }
  }
}

TEST(RunTrialEvents, AgreesWithRegionEvaluation) {
  const TrialConfig cfg = base_config();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const TrialEvents ev = run_trial_events(cfg, seed);
    const core::RegionCoverageStats st =
        core::evaluate_region(deploy(cfg, seed), cfg.grid(), cfg.theta);
    EXPECT_EQ(ev.all_necessary, st.all_necessary()) << "seed=" << seed;
    EXPECT_EQ(ev.all_full_view, st.all_full_view()) << "seed=" << seed;
    EXPECT_EQ(ev.all_sufficient, st.all_sufficient()) << "seed=" << seed;
  }
}

TEST(RunTrialEvents, TinyNetworkFailsEverything) {
  TrialConfig cfg = base_config();
  cfg.profile = HeterogeneousProfile::homogeneous(0.01, 0.1);
  const TrialEvents ev = run_trial_events(cfg, 3);
  EXPECT_FALSE(ev.all_necessary);
  EXPECT_FALSE(ev.all_full_view);
  EXPECT_FALSE(ev.all_sufficient);
}

TEST(RunTrialEvents, SaturatedNetworkPassesEverything) {
  TrialConfig cfg = base_config();
  cfg.profile = HeterogeneousProfile::homogeneous(0.45, geom::kTwoPi);
  cfg.n = 600;
  const TrialEvents ev = run_trial_events(cfg, 4);
  EXPECT_TRUE(ev.all_necessary);
  EXPECT_TRUE(ev.all_full_view);
  EXPECT_TRUE(ev.all_sufficient);
}

}  // namespace
}  // namespace fvc::sim
