/// \file serve.hpp
/// \brief Driving an `fvc_sim serve` daemon: spawn and drain, the request
/// pools with their mirror answers, and the open- and closed-loop load
/// generators.
///
/// Every served answer is checked bit-exactly against an in-process mirror
/// `api::Session`.  The what-if traffic moves one designated camera (the
/// mover) between a few fixed positions, so the deployment is always in
/// one of a small set of states; each state has its own mirror answers, and
/// the digest a response carries names the state it was computed in.

#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fvc/api/session.hpp"
#include "fvc/core/camera.hpp"

#include "bench.hpp"

namespace pb {

/// A daemon child process.  Owns the process: the destructor kills and
/// reaps a daemon that was not drained.
class Daemon {
 public:
  /// Start `fvc_sim serve` on `camera_file`; stdout/stderr go to `log`.
  Daemon(const std::string& fvc_sim, const std::string& camera_file,
         const std::string& socket, double theta, std::size_t grid_side,
         std::size_t tile_rows, const std::string& log);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  /// Poll `info` until it answers; false on timeout or an early exit.
  bool wait_ready(double timeout_s);
  /// SIGINT, then reap.  Returns the exit code (-1 when killed by a
  /// signal or not reaped in time); `peak_rss_mb` receives the child's
  /// peak resident set.
  int drain(double* peak_rss_mb);
  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// Expected answers of one deployment state.
struct ServeState {
  std::string digest;
  std::vector<fvc::api::PointAnswer> points;
  std::vector<fvc::api::RegionAnswer> regions;
};

/// Request pools plus the mirror answers for every reachable state.
struct Traffic {
  std::vector<std::string> point_requests;  ///< point pool
  std::vector<std::pair<double, double>> strips;  ///< region pool
  std::vector<std::string> region_requests;
  /// What-if pool: request s moves the mover into state s (a no-op move
  /// when `states` has a single entry).
  std::vector<std::string> move_requests;
  std::vector<ServeState> states;
  std::map<std::string, std::size_t> state_of;  ///< digest -> state
};

/// Build the pools and mirror answers.  State s places camera `mover` at
/// `mover_positions[s]`; an empty list means one state and no-op moves.
Traffic make_traffic(const std::vector<fvc::core::Camera>& cameras, double theta,
                     std::size_t grid_side, std::size_t tile_rows,
                     std::size_t mover,
                     const std::vector<fvc::core::Camera>& mover_positions,
                     std::vector<std::pair<double, double>> strips,
                     std::size_t point_pool, std::uint64_t seed);

/// Raw counters of one `stats` poll.
struct DaemonStats {
  std::map<std::string, double> v;
  [[nodiscard]] double operator[](const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};
/// Poll the stats verb; empty map on failure.
DaemonStats poll_stats(const std::string& socket);

struct LoadResult {
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t points = 0, regions = 0, moves = 0;
  std::uint64_t mismatches = 0, errors = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_us;  ///< open loop: from the scheduled send time
  std::vector<double> late_us;     ///< open loop: send time minus scheduled time
  std::vector<double> window_qps;  ///< closed loop: answers/s per 250 ms window
};

/// Open loop: request i is due at t0 + i / rate; `connections` clients
/// claim requests in order.  Mix: 60% point, 30% region, 10% what-if.
LoadResult open_loop(const std::string& socket, const Traffic& t, double rate,
                     double seconds, std::size_t connections);

/// Closed loop: `connections` clients send `point` requests back to back.
/// Throughput is also counted per 250 ms window, so a caller can take the
/// median window instead of one long average.
LoadResult closed_loop(const std::string& socket, const Traffic& t, double seconds,
                       std::size_t connections);

/// Median round trip of `count` sequential `info` requests, microseconds.
double info_rtt_us(const std::string& socket, std::size_t count);

/// Per-layer daemon metrics of one mixed run: the stats-verb percentiles
/// after the open loop, cache and batching deltas, and the info floor.
struct DaemonLayers {
  double point_p99_us = 0.0, region_p99_us = 0.0, what_if_p99_us = 0.0;
  double cache_hit_ratio = 0.0;
  double batch_mean_size = 0.0;
  double coalesced_ratio = 0.0;
  double info_rtt_us = 0.0;
  double gen_late_p99_us = 0.0;
};

/// Check the stats-verb per-type deltas between two polls against what a
/// load phase issued (one extra `stats` request: the opening poll).
void check_accounting(const DaemonStats& before, const DaemonStats& after,
                      const LoadResult& load, Result& r, const char* phase);

/// A complete serve run against a fresh daemon: readiness, preflight,
/// info floor, open loop, closed loop, stats bracket, SIGINT drain.  Used by
/// serve_mix directly and, shortened, as the daemon probe of the other
/// workloads.
struct ServeRun {
  double open_rate = 0.0;
  double open_seconds = 0.0;
  double closed_seconds = 0.0;
  std::size_t connections = 4;
};
struct ServeOutcome {
  LoadResult open, closed;
  DaemonLayers layers;
  double peak_rss_mb = 0.0;
};
ServeOutcome serve_run(Daemon& d, const Traffic& t, const ServeRun& run, Result& r);

}  // namespace pb
