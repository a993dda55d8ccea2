/// \file shard.hpp
/// \brief Round-robin sharding of Monte-Carlo unit indices.
///
/// Every statistical run in the sim layer is a fold over independent
/// *units* — trials (mix64-seeded per index), phase-scan points, threshold
/// repeats.  Because each unit's outcome depends only on (master seed,
/// unit index), any partition of the index space can run in separate
/// processes and later merge to bitwise-identical statistics.  A ShardSpec
/// names one cell of that partition: shard `index` of `count` owns the
/// units u with u % count == index.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fvc::sim {

/// One cell of a round-robin partition of unit indices.
struct ShardSpec {
  std::size_t index = 0;  ///< which shard this process is, in [0, count)
  std::size_t count = 1;  ///< total number of shards; 1 = unsharded

  [[nodiscard]] bool owns(std::uint64_t unit) const { return unit % count == index; }
  [[nodiscard]] bool is_sharded() const { return count > 1; }
};

/// Throws std::invalid_argument unless count >= 1 and index < count.
void validate(const ShardSpec& shard);

/// Throws std::invalid_argument (message prefixed by `what`) unless
/// `units` is strictly increasing with every index < total: the contract of
/// every unit-subset option (trial, point and repeat indices).
void validate_units(std::span<const std::uint64_t> units, std::uint64_t total,
                    const char* what);

/// The unit indices in [0, total) this shard owns, minus `skip` (sorted
/// unique indices of already-completed units, e.g. from a resumed
/// checkpoint).  Returned in increasing order.
[[nodiscard]] std::vector<std::uint64_t> owned_units(const ShardSpec& shard,
                                                     std::uint64_t total,
                                                     std::span<const std::uint64_t> skip);

}  // namespace fvc::sim
