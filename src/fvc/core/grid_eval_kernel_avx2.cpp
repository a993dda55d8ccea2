/// The AVX2 batch kernels: the classify, the row sweep's band scan,
/// interval pass and piece stage, and the stats path's pair stage.  This
/// translation unit is the only one in the build compiled with -mavx2 (see
/// src/CMakeLists.txt): it must contain nothing but the kernel
/// instantiations, and must not define any inline/template symbol another
/// TU could also instantiate — otherwise the linker could
/// fold a baseline caller onto AVX2 code and fault on pre-AVX2 hosts.  Its
/// exported symbols, the *_avx2 entry points, are reached only after
/// runtime dispatch (cpu_features.hpp) confirms AVX2.

#if !defined(__AVX2__)
#error "grid_eval_kernel_avx2.cpp must be compiled with -mavx2"
#endif

#include "fvc/core/grid_eval_kernel.hpp"
#include "fvc/core/simd.hpp"

namespace fvc::core::detail {

ClassifyResult classify_avx2(const CandSpans& c, std::size_t count, double px,
                             double py, bool torus, double* xs, double* ys,
                             std::uint32_t* special) {
  return classify_batches<simd::Avx2Batch>(c, count, px, py, torus, xs, ys,
                                           special);
}

void sweep_intervals_avx2(const SweepBatch& b, std::size_t count) {
  sweep_intervals_batches<simd::Avx2Batch>(b, count);
}

BandScan band_scan_avx2(const double* sy, const double* r2, std::uint32_t begin,
                      std::uint32_t end, double y, bool torus, std::uint32_t cap,
                      std::uint32_t* slots, double* dy, double* r2_out) {
  return band_scan_batches<simd::Avx2Batch>(sy, r2, begin, end, y, torus, cap, slots, dy, r2_out);
}

std::size_t sweep_pieces_avx2(const SweepBatch& b, std::size_t count, const SectorWalk& t,
                              const std::uint32_t* sat, SweepPieces& out) {
  return sweep_pieces_batches<simd::Avx2Batch>(b, count, t, sat, out);
}

PairCounts stats_pairs_avx2(const PairRuns& runs, const PairRow& row) {
  return stats_pairs_batches<simd::Avx2Batch>(runs, row);
}

}  // namespace fvc::core::detail
