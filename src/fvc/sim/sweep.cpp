#include "fvc/sim/sweep.hpp"

#include <cmath>
#include <stdexcept>

namespace fvc::sim {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("linspace: count must be >= 1");
  }
  if (!(lo <= hi)) {
    throw std::invalid_argument("linspace: lo must be <= hi");
  }
  if (count == 1) {
    return {lo};
  }
  std::vector<double> out;
  out.reserve(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(i + 1 == count ? hi : lo + static_cast<double>(i) * step);
  }
  return out;
}

std::vector<double> geomspace(double lo, double hi, std::size_t count) {
  if (!(lo > 0.0) || !(hi >= lo)) {
    throw std::invalid_argument("geomspace: need 0 < lo <= hi");
  }
  if (count == 0) {
    throw std::invalid_argument("geomspace: count must be >= 1");
  }
  if (count == 1) {
    return {lo};
  }
  std::vector<double> out;
  out.reserve(count);
  const double ratio = std::log(hi / lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(i + 1 == count ? hi : lo * std::exp(static_cast<double>(i) * ratio));
  }
  return out;
}

std::vector<std::size_t> geomspace_sizes(std::size_t lo, std::size_t hi, std::size_t count) {
  if (lo == 0) {
    throw std::invalid_argument("geomspace_sizes: lo must be >= 1");
  }
  const auto values = geomspace(static_cast<double>(lo), static_cast<double>(hi), count);
  std::vector<std::size_t> out;
  out.reserve(values.size());
  for (double v : values) {
    const auto r = static_cast<std::size_t>(std::llround(v));
    if (out.empty() || out.back() != r) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace fvc::sim
