/// \file forced_kernel.hpp
/// \brief Kernel pinning for the per-variant differential suites.
///
/// `core::set_forced_kernel` is process-global, so a test that pins a
/// variant must release the pin on every exit path, including an ASSERT
/// unwinding mid-test.  `ForcedKernel` does that; `supported_kernels()`
/// lists the variants this build and CPU can run, scalar first.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "fvc/core/cpu_features.hpp"

namespace fvc::testsupport {

/// RAII pin: every engine constructed while it lives uses `v`.
class ForcedKernel {
 public:
  explicit ForcedKernel(core::KernelVariant v) { core::set_forced_kernel(v); }
  ~ForcedKernel() { core::set_forced_kernel(std::nullopt); }
  ForcedKernel(const ForcedKernel&) = delete;
  ForcedKernel& operator=(const ForcedKernel&) = delete;
};

/// Every variant `kernel_supported` accepts here, in enum order (scalar
/// first).
inline std::vector<core::KernelVariant> supported_kernels() {
  std::vector<core::KernelVariant> out;
  for (std::size_t i = 0; i < core::kKernelVariantCount; ++i) {
    const auto v = static_cast<core::KernelVariant>(i);
    if (core::kernel_supported(v)) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace fvc::testsupport
