/// The NEON batch kernels: the classify and the row sweep's band scan and
/// interval pass (AArch64, where AdvSIMD is baseline — so no special
/// compile flags are needed, only a dedicated TU for symmetry with the
/// AVX2 variant and for per-variant differential testing).

#if !defined(__aarch64__)
#error "grid_eval_kernel_neon.cpp is AArch64-only"
#endif

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/simd.hpp"

namespace fvc::core::detail {

ClassifyResult classify_neon(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special) {
  return classify_batches<simd::NeonBatch>(c, count, px, py, torus, xs, ys,
                                           special);
}

void sweep_intervals_neon(const SweepBatch& b, std::size_t count) {
  sweep_intervals_batches<simd::NeonBatch>(b, count);
}

BandScan band_scan_neon(const double* sy, const double* r2, std::uint32_t begin,
                      std::uint32_t end, double y, bool torus, std::uint32_t cap,
                      std::uint32_t* slots, double* dy, double* r2_out) {
  return band_scan_batches<simd::NeonBatch>(sy, r2, begin, end, y, torus, cap, slots, dy, r2_out);
}

}  // namespace fvc::core::detail
