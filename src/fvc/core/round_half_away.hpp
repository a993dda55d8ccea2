/// \file round_half_away.hpp
/// \brief `std::round` without the libm call, for the engine's hot loops.

#pragma once

#include <cmath>
#include <cstdint>

namespace fvc::core::detail {

/// Bit-identical to `std::round(x)` (nearest integer, halves away from
/// zero, the sign of x kept, so -0.4 gives -0.0) for every double.  Inline
/// and branch-light, so the torus unwrap in the strip walk and the scalar
/// classify costs no call.  Adding 0.5 - 2^-54 (the largest double below
/// one half) and truncating rounds exactly: a fraction below one half stays
/// below 1 after the addition's rounding (0.49999999999999994 + that is
/// 1 - 2^-53), and a fraction of one half or more reaches 1 (0.5 + that
/// rounds to even, 1.0).  |x| >= 2^52 is already integral, NaN and the
/// infinities included, and returned as is.
inline double round_half_away(double x) {
  constexpr double kBelowHalf = 0.49999999999999994;  // 0.5 - 2^-54
  if (!(std::abs(x) < 4503599627370496.0)) {            // 2^52
    return x;
  }
  const auto t = static_cast<std::int64_t>(x + std::copysign(kBelowHalf, x));
  return std::copysign(static_cast<double>(t), x);
}

}  // namespace fvc::core::detail
