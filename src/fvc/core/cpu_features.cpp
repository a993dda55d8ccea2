#include "fvc/core/cpu_features.hpp"

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>

namespace fvc::core {

namespace {

constexpr std::array<std::string_view, kKernelVariantCount> kNames = {
    "scalar", "avx2"};

/// The set_forced_kernel pin.  Encoded as variant index + 1 (0 = not pinned)
/// so the whole state fits one lock-free atomic.
std::atomic<int> g_forced{0};

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

std::string_view kernel_name(KernelVariant v) {
  const auto i = static_cast<std::size_t>(v);
  return i < kNames.size() ? kNames[i] : "unknown";
}

std::size_t kernel_lanes(KernelVariant v) {
  return v == KernelVariant::kScalar ? 1 : 4;
}

bool kernel_compiled(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kAvx2:
#if defined(FVC_KERNEL_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool kernel_supported(KernelVariant v) {
  if (!kernel_compiled(v)) {
    return false;
  }
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

KernelVariant preferred_kernel() {
  if (kernel_supported(KernelVariant::kAvx2)) {
    return KernelVariant::kAvx2;
  }
  return KernelVariant::kScalar;
}

void set_forced_kernel(std::optional<KernelVariant> v) {
  g_forced.store(v.has_value() ? static_cast<int>(*v) + 1 : 0,
                 std::memory_order_relaxed);
}

KernelVariant resolve_kernel() {
  const int raw = g_forced.load(std::memory_order_relaxed);
  if (raw == 0) {
    return preferred_kernel();
  }
  const auto pinned = static_cast<KernelVariant>(raw - 1);
  const std::string name(kernel_name(pinned));
  if (!kernel_compiled(pinned)) {
    throw std::runtime_error("forced kernel: kernel '" + name +
                             "' is not compiled into this build");
  }
  if (!kernel_supported(pinned)) {
    throw std::runtime_error("forced kernel: kernel '" + name +
                             "' is not executable on this CPU");
  }
  return pinned;
}

}  // namespace fvc::core
