// Bit-identity stress suite for the blocked parallel grid scan: random
// deployments on random grid sizes, evaluated serially and through
// `evaluate_region_parallel` across a matrix of thread counts and grains.
// The contract is BITWISE equality — the double reductions are compared by
// bit pattern (std::bit_cast), not tolerance, so a scheduling change that
// reorders the min/max fold in a way that flips even one mantissa bit
// fails here.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::sim {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 7};
constexpr std::size_t kGrains[] = {1, 3, 0};  // 0 = the default (1)

void expect_bitwise_equal(const core::RegionCoverageStats& serial,
                          const core::RegionCoverageStats& parallel) {
  EXPECT_EQ(serial.total_points, parallel.total_points);
  EXPECT_EQ(serial.covered_1, parallel.covered_1);
  EXPECT_EQ(serial.necessary_ok, parallel.necessary_ok);
  EXPECT_EQ(serial.full_view_ok, parallel.full_view_ok);
  EXPECT_EQ(serial.sufficient_ok, parallel.sufficient_ok);
  EXPECT_EQ(serial.k_covered_ok, parallel.k_covered_ok);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.min_max_gap),
            std::bit_cast<std::uint64_t>(parallel.min_max_gap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.max_max_gap),
            std::bit_cast<std::uint64_t>(parallel.max_max_gap));
}

core::Network random_network(stats::Pcg32& rng, std::size_t n) {
  // Two-group heterogeneous profile with randomized radii/fov: one
  // omnidirectional group, one directional, radii in the regime where
  // points see between zero and a few dozen cameras.
  const double r1 = 0.05 + 0.25 * (rng() / 4294967296.0);
  const double r2 = 0.05 + 0.25 * (rng() / 4294967296.0);
  const double fov = 0.5 + 2.5 * (rng() / 4294967296.0);
  const core::HeterogeneousProfile profile(std::vector<core::CameraGroupSpec>{
      {0.5, r1, geom::kTwoPi}, {0.5, r2, fov}});
  return deploy::deploy_uniform_network(profile, n, rng);
}

// Every whole-grid entry point against the point-at-a-time oracle, so a
// defect shared by the serial and blocked scans cannot hide: the batched
// engine, the blocked scan across the thread/grain matrix, the batched scan
// under a live trace session, and a metered blocked scan (tracing and
// metering never touch arithmetic).
void expect_every_scan_matches_oracle(const core::Network& net, const core::DenseGrid& grid,
                                      double theta) {
  const core::RegionCoverageStats oracle = core::evaluate_region_scalar(net, grid, theta);
  expect_bitwise_equal(oracle, core::evaluate_region(net, grid, theta));
  for (const std::size_t threads : kThreadCounts) {
    for (const std::size_t grain : kGrains) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " grain=" + std::to_string(grain));
      expect_bitwise_equal(oracle, evaluate_region_parallel(net, grid, theta, threads, grain));
    }
  }
  {
    obs::TraceSession session(1 << 16);
    session.install();
    const core::RegionCoverageStats traced = core::evaluate_region(net, grid, theta);
    session.uninstall();
    SCOPED_TRACE("traced");
    expect_bitwise_equal(oracle, traced);
  }
  obs::MetricsNode node("region");
  SCOPED_TRACE("metered");
  expect_bitwise_equal(oracle, evaluate_region_parallel(net, grid, theta, 4, 0, &node));
}

TEST(ParallelIdentity, RandomDeploymentsAcrossThreadsAndGrains) {
  stats::Pcg32 rng(0x1de27171);
  for (int it = 0; it < 8; ++it) {
    const std::size_t n = 20 + rng() % 180;
    const std::size_t side = 1 + rng() % 33;  // includes side 1 and primes
    const double theta = 0.2 + 0.8 * geom::kHalfPi * (rng() / 4294967296.0);
    SCOPED_TRACE("it=" + std::to_string(it) + " n=" + std::to_string(n) +
                 " side=" + std::to_string(side) + " theta=" + std::to_string(theta));
    expect_every_scan_matches_oracle(random_network(rng, n), core::DenseGrid(side), theta);
  }
}

TEST(ParallelIdentity, ReferenceDeploymentEveryScanPathMatchesScalar) {
  // One fixed deployment of realistic size beside the random ones: n = 1000
  // on 64^2 at theta = pi/4, an omnidirectional and a 2.0 rad group.
  constexpr std::size_t n = 1000;
  const core::HeterogeneousProfile profile(std::vector<core::CameraGroupSpec>{
      {0.5, 0.08, geom::kTwoPi}, {0.5, 0.12, 2.0}});
  stats::Pcg32 rng = stats::make_child_rng(20240805, n);
  expect_every_scan_matches_oracle(deploy::deploy_uniform_network(profile, n, rng),
                                   core::DenseGrid(64), geom::kPi / 4.0);
}

TEST(ParallelIdentity, GrainLargerThanRows) {
  stats::Pcg32 rng(0x9a51);
  const core::Network net = random_network(rng, 120);
  const core::DenseGrid grid(9);
  const double theta = geom::kHalfPi / 2.0;
  const core::RegionCoverageStats serial = core::evaluate_region(net, grid, theta);
  expect_bitwise_equal(serial, evaluate_region_parallel(net, grid, theta, 4, 64));
  expect_bitwise_equal(serial, evaluate_region_parallel(net, grid, theta, 7, 9));
}

TEST(ParallelIdentity, MeteredScanIsBitIdenticalToo) {
  stats::Pcg32 rng(0xfeed5);
  const core::Network net = random_network(rng, 150);
  const core::DenseGrid grid(17);
  const double theta = geom::kHalfPi / 2.0;
  const core::RegionCoverageStats serial = core::evaluate_region(net, grid, theta);
  for (const std::size_t grain : kGrains) {
    obs::MetricsNode node("region");
    expect_bitwise_equal(
        serial, evaluate_region_parallel(net, grid, theta, 3, grain, &node));
    // The metered pool subtree reflects the blocked schedule.
    EXPECT_EQ(node.child("pool").counter("tasks"), 17.0);
  }
}

}  // namespace
}  // namespace fvc::sim
