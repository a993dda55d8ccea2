// `detail::round_half_away` must be `std::round` bit for bit: the torus
// unwrap of the strip walk and the scalar classify use it in place of the
// libm call, and every engine path is bit-identical to the scalar oracles.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fvc/core/round_half_away.hpp"
#include "fvc/stats/distributions.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::core {
namespace {

void expect_same_bits(double x) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(detail::round_half_away(x)),
            std::bit_cast<std::uint64_t>(std::round(x)))
      << "x = " << x << " (bits " << std::bit_cast<std::uint64_t>(x) << ")";
}

TEST(RoundHalfAway, EdgeValuesMatchStdRoundBitForBit) {
  using lim = std::numeric_limits<double>;
  const double below_half = std::nextafter(0.5, 0.0);  // 0.49999999999999994
  const double below_one = std::nextafter(1.0, 0.0);   // 1 - ulp
  std::vector<double> values = {0.0,
                                0.5,
                                below_half,
                                1.5,
                                below_one,
                                2.5,
                                std::nextafter(1.5, 0.0),
                                std::nextafter(1.5, 2.0),
                                lim::denorm_min(),
                                1e-310,
                                std::nextafter(lim::min(), 0.0),  // largest subnormal
                                lim::min(),
                                4503599627370495.5,  // 2^52 - 1/2
                                4503599627370496.0,  // 2^52
                                9007199254740993.0,
                                2251799813685248.5,  // 2^51 + 1/2
                                lim::max(),
                                lim::infinity()};
  for (const double v : values) {
    expect_same_bits(v);
    expect_same_bits(-v);
  }
}

TEST(RoundHalfAway, RandomValuesMatchStdRoundBitForBit) {
  stats::Pcg32 rng = stats::make_child_rng(23, 1);
  for (int i = 0; i < 1000000; ++i) {
    const double x = stats::uniform_in(rng, -2.0, 2.0);
    if (x != -2.0) {  // the open interval (-2, 2)
      expect_same_bits(x);
    }
  }
}

}  // namespace
}  // namespace fvc::core
