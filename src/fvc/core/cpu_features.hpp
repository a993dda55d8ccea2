/// \file cpu_features.hpp
/// \brief Runtime CPU capability probe and grid-eval kernel dispatch.
///
/// The batched grid-evaluation engine (grid_eval.hpp) has two hot loops —
/// the per-candidate classify, and the row sweep's band compaction and
/// interval pass — implemented as interchangeable *kernel variants*
/// (grid_eval_kernel.hpp), one choice selecting both:
///
///   scalar   the per-entry oracle loops (lane width 1); always available,
///            the fallback on CPUs without a vector kernel, and the
///            reference every other variant is tested against
///   avx2     the 4-wide batch kernels over AVX2 intrinsics; compiled only
///            on x86-64 with GCC/Clang, runnable only when the CPU
///            reports AVX2
///
/// Other architectures (AArch64 included) run scalar.  The two variants are
/// bit-identical by construction: lane arithmetic is the same IEEE
/// mul/add/compare sequence as the scalar oracle (see
/// docs/ARCHITECTURE.md).  Dispatch therefore only affects speed, never
/// results, and is a function of the CPU alone: each engine construction
/// resolves to avx2 when the running CPU supports it, else scalar.  The one
/// exception is `set_forced_kernel`, the test seam the per-variant
/// differential suites use to run the same input under both supported
/// variants.  Pinning a variant the build does not contain or the CPU
/// cannot execute is an error (std::runtime_error), not a silent fallback.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fvc::core {

/// The grid-eval kernel variants.
enum class KernelVariant : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};
inline constexpr std::size_t kKernelVariantCount = 2;

/// Stable lower-case name ("scalar", "avx2"; "unknown" for a value outside
/// the enum).
[[nodiscard]] std::string_view kernel_name(KernelVariant v);

/// Double lanes the variant processes per step (1 for scalar, else 4).
[[nodiscard]] std::size_t kernel_lanes(KernelVariant v);

/// True when the variant's kernel was compiled into this build.
[[nodiscard]] bool kernel_compiled(KernelVariant v);

/// True when the variant is compiled AND the running CPU can execute it.
[[nodiscard]] bool kernel_supported(KernelVariant v);

/// The widest supported variant: avx2, else scalar.
[[nodiscard]] KernelVariant preferred_kernel();

/// Test seam: pin the variant every engine constructed from now on uses,
/// until reset with nullopt.  Validity is checked by resolve_kernel, not
/// here.
void set_forced_kernel(std::optional<KernelVariant> v);

/// The variant the next engine will use: the pin, else preferred_kernel().
/// Throws std::runtime_error when the pinned variant is not compiled in or
/// not executable on this CPU.
[[nodiscard]] KernelVariant resolve_kernel();

}  // namespace fvc::core
