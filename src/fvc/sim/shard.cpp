#include "fvc/sim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fvc::sim {

void validate(const ShardSpec& shard) {
  if (shard.count == 0) {
    throw std::invalid_argument("ShardSpec: count must be >= 1");
  }
  if (shard.index >= shard.count) {
    throw std::invalid_argument("ShardSpec: index " + std::to_string(shard.index) +
                                " out of range for count " + std::to_string(shard.count));
  }
}

void validate_units(std::span<const std::uint64_t> units, std::uint64_t total,
                    const char* what) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i] >= total || (i > 0 && units[i] <= units[i - 1])) {
      throw std::invalid_argument(std::string(what) +
                                  " must be strictly increasing and < " +
                                  std::to_string(total));
    }
  }
}

std::vector<std::uint64_t> owned_units(const ShardSpec& shard, std::uint64_t total,
                                       std::span<const std::uint64_t> skip) {
  validate(shard);
  std::vector<std::uint64_t> units;
  units.reserve(static_cast<std::size_t>(total / shard.count) + 1);
  for (std::uint64_t u = shard.index; u < total; u += shard.count) {
    if (!std::binary_search(skip.begin(), skip.end(), u)) {
      units.push_back(u);
    }
  }
  return units;
}

}  // namespace fvc::sim
