/// \file probes.hpp
/// \brief Per-layer probes: each times calls into one layer's public
/// functions on the workload's own deployment and reads only the counters
/// those functions export.
///
/// Every traced run reports every per-layer metric.  A layer the workload
/// itself exercises is measured on the workload's traffic; a layer it
/// bypasses (the daemon, for the batch workloads) is probed on the
/// workload's deployment, so a change to that layer shows where it would
/// land without moving the workload's end-to-end numbers.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "fvc/core/camera.hpp"
#include "fvc/core/grid.hpp"
#include "fvc/core/network.hpp"

#include "bench.hpp"
#include "serve.hpp"

namespace pb {

/// core.*: engine build time (median of `builds`), index size, and the
/// gather / directions / fused stage timings plus candidate counters over
/// `sample_rows` evenly spaced rows, one thread, one engine.
void probe_core(const fvc::core::Network& net, const fvc::core::DenseGrid& grid,
                double theta, std::size_t sample_rows, std::size_t builds, Result& r);

/// api.* in-process: `Session::query_points` per point, a region strip cold
/// and warm, and what-if move rebuilds.
void probe_session(const std::vector<fvc::core::Camera>& cams, double theta,
                   std::size_t grid_side, std::size_t tile_rows,
                   std::pair<double, double> strip, std::size_t points, Result& r);

/// sim.* pool metrics and scaling of whole-region scans of one deployment
/// (`sim::evaluate_region_parallel`, 4 threads metered, and 1 thread).
/// `scan_ms` are per-scan wall times of the workload's own loop when it
/// has one (otherwise the probe's 4-thread scans are used).
void probe_region_sim(const fvc::core::Network& net, const fvc::core::DenseGrid& grid,
                      double theta, std::vector<double> scan_ms, Result& r);

/// api.* daemon metrics into the record.
void report_daemon_layers(const DaemonLayers& d, Result& r);

/// Run a short daemon probe on a deployment the workload itself never
/// serves: no-op moves, the given strips, `seconds` of mixed and
/// closed-loop traffic.
void probe_daemon(const Options& opt, const std::vector<fvc::core::Camera>& cams,
                  double theta, std::size_t grid_side, std::size_t tile_rows,
                  std::vector<std::pair<double, double>> strips, double rate,
                  double seconds, Result& r);

/// trace_overhead_pct from an untraced and a traced rate of one loop.
void report_trace_overhead(double untraced_rate, double traced_rate, Result& r);

}  // namespace pb
