/// \file cluster.hpp
/// \brief Clustered random deployments — Matern, Gaussian and strip hotspot.
///
/// Airdrops rarely produce perfectly independent positions: sensors leave
/// the aircraft in sticks and land in clumps.  The standard point-process
/// model is the Matern cluster process: parent locations form a Poisson
/// process of intensity `parents`, each parent spawns Poisson(`mean_children`)
/// sensors placed uniformly in a disc of radius `spread` around it (torus
/// wrapped).  The overall intensity is parents * mean_children; letting
/// spread -> large recovers uniform-like behaviour, spread -> 0 degenerates
/// to multi-sensor piles.  The CLUSTER bench measures how clumping wastes
/// sensing area relative to the paper's uniform assumption at equal
/// density.
///
/// Two further generators exist as adversarial inputs for the candidate
/// index (core/candidate_index.hpp): the **Gaussian cluster** (exact-count
/// heaps around a few centres, so most y strips are empty and a few are
/// very dense) and the **strip hotspot** (a dense horizontal band, the
/// worst case for the row-streamed index, whose y-strips all land in a
/// handful of slices).
/// Both take an exact `count` rather than an intensity so differential
/// suites compare identical population sizes across deployment families.

#pragma once

#include <cstddef>
#include <vector>

#include "fvc/core/camera.hpp"
#include "fvc/core/camera_group.hpp"
#include "fvc/core/network.hpp"
#include "fvc/stats/rng.hpp"

namespace fvc::deploy {

/// Matern cluster process parameters.
struct ClusterConfig {
  double parent_intensity = 20.0;  ///< expected number of cluster centres
  double mean_children = 10.0;     ///< expected sensors per cluster
  double spread = 0.05;            ///< cluster disc radius

  /// Expected total sensor count.
  [[nodiscard]] double expected_count() const {
    return parent_intensity * mean_children;
  }

  /// \throws std::invalid_argument unless all parameters are positive.
  void validate() const;
};

/// Deploy a Matern-clustered fleet of `profile` cameras (group membership
/// by thinning, orientations uniform — only POSITIONS are clustered).
[[nodiscard]] std::vector<core::Camera> deploy_matern_cluster(
    const core::HeterogeneousProfile& profile, const ClusterConfig& config,
    stats::Pcg32& rng);

/// As `deploy_matern_cluster`, wrapped into a Network.
[[nodiscard]] core::Network deploy_matern_cluster_network(
    const core::HeterogeneousProfile& profile, const ClusterConfig& config,
    stats::Pcg32& rng);

/// Gaussian cluster process with exact population: `clusters` centres are
/// drawn uniformly, then cameras are dealt to centres round-robin with
/// isotropic Gaussian offsets of std-dev `sigma` (torus wrapped).  With
/// small `sigma` almost the whole fleet piles into a few spots — the
/// clustered stress case for candidate-index memory bounds.
struct GaussianClusterConfig {
  std::size_t count = 200;   ///< total cameras (exact, unlike Matern)
  std::size_t clusters = 4;  ///< cluster centres, uniform on the torus
  double sigma = 0.02;       ///< std-dev of the Gaussian offset per axis

  /// \throws std::invalid_argument unless count, clusters and sigma are
  /// positive.
  void validate() const;
};

/// Deploy a Gaussian-clustered fleet of `profile` cameras (group
/// membership by thinning, orientations uniform — only POSITIONS cluster).
[[nodiscard]] std::vector<core::Camera> deploy_gaussian_cluster(
    const core::HeterogeneousProfile& profile, const GaussianClusterConfig& config,
    stats::Pcg32& rng);

/// As `deploy_gaussian_cluster`, wrapped into a Network.
[[nodiscard]] core::Network deploy_gaussian_cluster_network(
    const core::HeterogeneousProfile& profile, const GaussianClusterConfig& config,
    stats::Pcg32& rng);

/// Strip hotspot with exact population: a `hot_fraction` share of the
/// fleet lands in the horizontal band `center ± half_width` (y wrapped,
/// x uniform); the rest is uniform background.  Concentrates nearly every
/// camera into a few y-strips — the adversarial row density for the
/// row-streamed candidate index.
struct StripHotspotConfig {
  std::size_t count = 200;    ///< total cameras (exact)
  double center = 0.5;        ///< y centre of the hot band
  double half_width = 0.02;   ///< half-width of the band in y
  double hot_fraction = 0.9;  ///< share of cameras landing in the band

  /// \throws std::invalid_argument unless count and half_width are
  /// positive, center is in [0, 1) and hot_fraction is in [0, 1].
  void validate() const;
};

/// Deploy a strip-hotspot fleet of `profile` cameras (group membership by
/// thinning, orientations uniform).
[[nodiscard]] std::vector<core::Camera> deploy_strip_hotspot(
    const core::HeterogeneousProfile& profile, const StripHotspotConfig& config,
    stats::Pcg32& rng);

/// As `deploy_strip_hotspot`, wrapped into a Network.
[[nodiscard]] core::Network deploy_strip_hotspot_network(
    const core::HeterogeneousProfile& profile, const StripHotspotConfig& config,
    stats::Pcg32& rng);

}  // namespace fvc::deploy
