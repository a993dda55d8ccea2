#include "fvc/sim/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace fvc::sim {
namespace {

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.25);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Linspace, SinglePoint) {
  const auto v = linspace(2.0, 5.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(Linspace, DegenerateRange) {
  const auto v = linspace(3.0, 3.0, 4);
  for (double x : v) {
    EXPECT_DOUBLE_EQ(x, 3.0);
  }
}

TEST(Linspace, Validation) {
  EXPECT_THROW((void)linspace(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)linspace(1.0, 0.0, 3), std::invalid_argument);
}

TEST(Geomspace, EndpointsAndRatio) {
  const auto v = geomspace(1.0, 16.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 16.0);
  EXPECT_NEAR(v[1], 2.0, 1e-12);
  EXPECT_NEAR(v[2], 4.0, 1e-12);
  EXPECT_NEAR(v[3], 8.0, 1e-12);
}

TEST(Geomspace, Validation) {
  EXPECT_THROW((void)geomspace(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)geomspace(2.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW((void)geomspace(1.0, 2.0, 0), std::invalid_argument);
}

TEST(GeomspaceSizes, RoundsAndDeduplicates) {
  const auto v = geomspace_sizes(100, 10000, 5);
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v.front(), 100u);
  EXPECT_EQ(v.back(), 10000u);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_GT(v[i], v[i - 1]);
  }
}

TEST(GeomspaceSizes, SmallRangeDeduplicates) {
  const auto v = geomspace_sizes(3, 5, 10);
  // Rounding collapses many entries; all must remain strictly increasing.
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_GT(v[i], v[i - 1]);
  }
  EXPECT_LE(v.size(), 3u);
}

TEST(GeomspaceSizes, Validation) {
  EXPECT_THROW((void)geomspace_sizes(0, 10, 3), std::invalid_argument);
}

}  // namespace
}  // namespace fvc::sim
