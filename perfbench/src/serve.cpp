#include "serve.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fvc/api/client.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/stats/rng.hpp"

extern char** environ;

namespace pb {

using fvc::api::Client;
using fvc::api::JsonObjectWriter;
using fvc::api::WireObject;

// ---- daemon process ------------------------------------------------------------

Daemon::Daemon(const std::string& fvc_sim, const std::string& camera_file,
               const std::string& socket, double theta, std::size_t grid_side,
               std::size_t tile_rows, const std::string& log)
    : socket_(socket) {
  ::unlink(socket.c_str());
  char theta_buf[40];
  std::snprintf(theta_buf, sizeof theta_buf, "%.17g", theta);
  const std::vector<std::string> args = {
      fvc_sim,       "serve",     "--load",       camera_file,
      "--socket",    socket,      "--theta",      theta_buf,
      "--grid-side", std::to_string(grid_side), "--tile-rows",
      std::to_string(tile_rows)};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                   0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  const int rc = posix_spawn(&pid_, fvc_sim.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + fvc_sim);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  ::unlink(socket_.c_str());
}

bool Daemon::wait_ready(double timeout_s) {
  const std::uint64_t t0 = now_ns();
  while (seconds_since(t0) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // exited before serving
      return false;
    }
    try {
      Client c(socket_);
      const WireObject info = fvc::api::parse_flat_object(c.request("{\"op\":\"info\"}"));
      if (fvc::api::get_bool(info, "ok")) {
        return true;
      }
    } catch (const std::exception&) {
      // not listening yet
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

int Daemon::drain(double* peak_rss_mb) {
  if (pid_ <= 0) {
    return -1;
  }
  ::kill(pid_, SIGINT);
  const std::uint64_t t0 = now_ns();
  int status = 0;
  rusage ru{};
  pid_t got = 0;
  while ((got = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 && seconds_since(t0) < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (got != pid_) {
    return -1;  // the destructor kills and reaps it
  }
  pid_ = -1;
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- pools and mirror answers -------------------------------------------------

namespace {

double fract(double v) { return v - std::floor(v); }

std::string point_request(double x, double y) {
  JsonObjectWriter w;
  w.add_string("op", "point");
  w.add_number("x", x);
  w.add_number("y", y);
  return w.finish();
}

std::string region_request(double lo, double hi) {
  JsonObjectWriter w;
  w.add_string("op", "region");
  w.add_number("y_lo", lo);
  w.add_number("y_hi", hi);
  return w.finish();
}

std::string move_request(std::size_t index, const fvc::core::Camera* to) {
  JsonObjectWriter w;
  w.add_string("op", "what_if");
  w.add_string("action", "move");
  w.add_integer("index", index);
  if (to != nullptr) {
    w.add_number("x", to->position.x);
    w.add_number("y", to->position.y);
    w.add_number("orientation", to->orientation);
    w.add_number("radius", to->radius);
    w.add_number("fov", to->fov);
  }
  return w.finish();
}

/// The state a response was computed in, from its digest.
const ServeState* state_for(const Traffic& t, const WireObject& obj) {
  if (!fvc::api::get_bool(obj, "ok")) {
    return nullptr;
  }
  const auto it = t.state_of.find(fvc::api::get_string(obj, "digest"));
  return it == t.state_of.end() ? nullptr : &t.states[it->second];
}

bool point_ok(const Traffic& t, const WireObject& obj, std::size_t idx) {
  const ServeState* s = state_for(t, obj);
  if (s == nullptr) {
    return false;
  }
  const fvc::api::PointAnswer& want = s->points[idx];
  return fvc::api::get_bool(obj, "covered") == want.covered &&
         fvc::api::get_bool(obj, "necessary") == want.necessary &&
         fvc::api::get_bool(obj, "sufficient") == want.sufficient &&
         fvc::api::get_number(obj, "max_gap") == want.max_gap &&
         fvc::api::get_number(obj, "covering_count") ==
             static_cast<double>(want.covering_count);
}

bool region_ok(const Traffic& t, const WireObject& obj, std::size_t idx) {
  const ServeState* s = state_for(t, obj);
  if (s == nullptr) {
    return false;
  }
  const fvc::api::RegionAnswer& want = s->regions[idx];
  const auto num = [&obj](const char* k) { return fvc::api::get_number(obj, k); };
  return num("row_begin") == static_cast<double>(want.row_begin) &&
         num("row_end") == static_cast<double>(want.row_end) &&
         num("total_points") == static_cast<double>(want.stats.total_points) &&
         num("covered_1") == static_cast<double>(want.stats.covered_1) &&
         num("necessary_ok") == static_cast<double>(want.stats.necessary_ok) &&
         num("full_view_ok") == static_cast<double>(want.stats.full_view_ok) &&
         num("sufficient_ok") == static_cast<double>(want.stats.sufficient_ok) &&
         num("k_covered_ok") == static_cast<double>(want.stats.k_covered_ok) &&
         num("min_max_gap") == want.stats.min_max_gap &&
         num("max_max_gap") == want.stats.max_max_gap;
}

bool move_ok(const Traffic& t, const WireObject& obj, std::size_t target) {
  return fvc::api::get_bool(obj, "ok") &&
         fvc::api::get_string(obj, "digest") == t.states[target].digest;
}

void note_failure(std::atomic<std::uint64_t>& printed, const char* what,
                  const std::string& raw) {
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: serve %s mismatch: %.300s\n", what, raw.c_str());
  }
}

}  // namespace

Traffic make_traffic(const std::vector<fvc::core::Camera>& cameras, double theta,
                     std::size_t grid_side, std::size_t tile_rows, std::size_t mover,
                     const std::vector<fvc::core::Camera>& mover_positions,
                     std::vector<std::pair<double, double>> strips,
                     std::size_t point_pool, std::uint64_t seed) {
  Traffic t;
  const double off = static_cast<double>(fvc::stats::mix64(seed, 77) >> 11) * 0x1p-53;
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < point_pool; ++i) {
    xs.push_back(fract(off + static_cast<double>(i) * 0.61803398874989485));
    ys.push_back(fract(0.5 * off + static_cast<double>(i) * 0.75487766624669276));
    t.point_requests.push_back(point_request(xs.back(), ys.back()));
  }
  t.strips = std::move(strips);
  for (const auto& [lo, hi] : t.strips) {
    t.region_requests.push_back(region_request(lo, hi));
  }
  const std::size_t n_states = mover_positions.empty() ? 1 : mover_positions.size();
  for (std::size_t s = 0; s < n_states; ++s) {
    std::vector<fvc::core::Camera> cams = cameras;
    if (!mover_positions.empty()) {
      cams[mover] = mover_positions[s];
    }
    fvc::api::SessionConfig cfg;
    cfg.cameras = std::move(cams);
    cfg.theta = theta;
    cfg.grid_side = grid_side;
    cfg.tile_rows = tile_rows;
    fvc::api::Session mirror(std::move(cfg));
    ServeState st;
    st.digest = mirror.digest_hex();
    st.points.resize(point_pool);
    for (std::size_t i = 0; i < point_pool; ++i) {
      st.points[i] = mirror.query_point(xs[i], ys[i]);
    }
    for (const auto& [lo, hi] : t.strips) {
      st.regions.push_back(mirror.query_region(lo, hi));
    }
    t.state_of[st.digest] = s;
    t.states.push_back(std::move(st));
    t.move_requests.push_back(
        move_request(mover, mover_positions.empty() ? nullptr : &mover_positions[s]));
  }
  return t;
}

// ---- load generators ------------------------------------------------------------

DaemonStats poll_stats(const std::string& socket) {
  DaemonStats s;
  try {
    Client c(socket);
    const WireObject obj = fvc::api::parse_flat_object(c.request("{\"op\":\"stats\"}"));
    for (const auto& [k, v] : obj) {
      if (v.kind == fvc::api::WireValue::Kind::kNumber) {
        s.v[k] = v.number;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: stats poll failed: %s\n", e.what());
  }
  return s;
}

LoadResult open_loop(const std::string& socket, const Traffic& t, double rate,
                     double seconds, std::size_t connections) {
  LoadResult res;
  res.issued = static_cast<std::uint64_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> points{0}, regions{0}, moves{0}, bad{0}, errors{0},
      printed{0};
  std::vector<std::vector<double>> lat(connections), late(connections);
  const Span phase("load.open_loop");
  const std::uint64_t phase_id = phase.id();
  const std::uint64_t t0 = now_ns();
  std::atomic<std::uint64_t> last_done{t0};
  const auto worker = [&](std::size_t w) {
    try {
      Client c(socket);
      while (true) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= res.issued) {
          return;
        }
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const std::uint64_t kind = i % 10;  // 0-5 point, 6-8 region, 9 what-if
        const std::size_t pidx = static_cast<std::size_t>((i * 2654435761u) %
                                                          t.point_requests.size());
        const std::size_t ridx = static_cast<std::size_t>((i / 3) % t.strips.size());
        const std::size_t target = static_cast<std::size_t>((i / 10) % t.states.size());
        const std::string& body = kind < 6   ? t.point_requests[pidx]
                                  : kind < 9 ? t.region_requests[ridx]
                                             : t.move_requests[target];
        const std::uint64_t sent = now_ns();
        std::optional<std::string> raw;
        {
          const Span span(kind < 6 ? "api.point" : kind < 9 ? "api.region" : "api.what_if",
                          i + 1, phase_id);
          raw = c.try_request(body);
        }
        const std::uint64_t done = now_ns();
        if (!raw.has_value()) {
          errors.fetch_add(1);
          return;
        }
        lat[w].push_back(static_cast<double>(done - due) * 1e-3);
        late[w].push_back(static_cast<double>(sent > due ? sent - due : 0) * 1e-3);
        std::uint64_t prev = last_done.load();
        while (done > prev && !last_done.compare_exchange_weak(prev, done)) {
        }
        const WireObject obj = fvc::api::parse_flat_object(*raw);
        bool good = false;
        if (kind < 6) {
          points.fetch_add(1);
          good = point_ok(t, obj, pidx);
        } else if (kind < 9) {
          regions.fetch_add(1);
          good = region_ok(t, obj, ridx);
        } else {
          moves.fetch_add(1);
          good = move_ok(t, obj, target);
        }
        if (!good) {
          bad.fetch_add(1);
          note_failure(printed, "open-loop", *raw);
        }
      }
    } catch (const std::exception& e) {
      errors.fetch_add(1);
      std::fprintf(stderr, "perfbench: open-loop client %zu died: %s\n", w, e.what());
    }
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < connections; ++w) {
      workers.emplace_back(worker, w);
    }
  }
  res.elapsed_s = static_cast<double>(last_done.load() - t0) * 1e-9;
  for (std::size_t w = 0; w < connections; ++w) {
    res.latency_us.insert(res.latency_us.end(), lat[w].begin(), lat[w].end());
    res.late_us.insert(res.late_us.end(), late[w].begin(), late[w].end());
  }
  res.answered = res.latency_us.size();
  res.points = points;
  res.regions = regions;
  res.moves = moves;
  res.mismatches = bad;
  res.errors = errors;
  return res;
}

LoadResult closed_loop(const std::string& socket, const Traffic& t, double seconds,
                       std::size_t connections) {
  LoadResult res;
  std::atomic<std::uint64_t> answered{0}, bad{0}, errors{0}, printed{0};
  const Span phase("load.closed_loop");
  const std::uint64_t phase_id = phase.id();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::atomic<std::uint64_t> last_done{t0};
  const std::size_t pool = t.point_requests.size();
  constexpr std::uint64_t kWindowNs = 250'000'000;
  const std::size_t windows = static_cast<std::size_t>(seconds * 1e9) / kWindowNs;
  std::vector<std::atomic<std::uint64_t>> per_window(windows + 1);
  const auto worker = [&](std::size_t w) {
    try {
      Client c(socket);
      for (std::size_t k = 0; now_ns() < deadline; ++k) {
        const std::size_t idx = (w + k * connections) % pool;
        std::optional<std::string> raw;
        {
          const Span span("api.point", (std::uint64_t{1} << 40) + w * (1u << 24) + k + 1,
                          phase_id);
          raw = c.try_request(t.point_requests[idx]);
        }
        const std::uint64_t done = now_ns();
        if (!raw.has_value()) {
          errors.fetch_add(1);
          return;
        }
        answered.fetch_add(1);
        per_window[std::min<std::size_t>((done - t0) / kWindowNs, windows)].fetch_add(1);
        std::uint64_t prev = last_done.load();
        while (done > prev && !last_done.compare_exchange_weak(prev, done)) {
        }
        if (!point_ok(t, fvc::api::parse_flat_object(*raw), idx)) {
          bad.fetch_add(1);
          note_failure(printed, "closed-loop", *raw);
        }
      }
    } catch (const std::exception& e) {
      errors.fetch_add(1);
      std::fprintf(stderr, "perfbench: closed-loop client %zu died: %s\n", w, e.what());
    }
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < connections; ++w) {
      workers.emplace_back(worker, w);
    }
  }
  res.elapsed_s = static_cast<double>(last_done.load() - t0) * 1e-9;
  for (std::size_t w = 0; w < windows; ++w) {  // full windows only
    res.window_qps.push_back(static_cast<double>(per_window[w]) * 1e9 / kWindowNs);
  }
  if (res.window_qps.empty() && last_done.load() > t0) {  // shorter than one window
    res.window_qps.push_back(static_cast<double>(answered) * 1e9 /
                             static_cast<double>(last_done.load() - t0));
  }
  res.answered = answered;
  res.issued = answered + errors;
  res.points = answered;
  res.mismatches = bad;
  res.errors = errors;
  return res;
}

double info_rtt_us(const std::string& socket, std::size_t count) {
  std::vector<double> rtt;
  try {
    Client c(socket);
    for (std::size_t i = 0; i < count; ++i) {
      Span span("api.info", i + 1);
      (void)c.request("{\"op\":\"info\"}");
      rtt.push_back(static_cast<double>(span.stop()) * 1e-3);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: info probe failed: %s\n", e.what());
  }
  return median(rtt);
}

void check_accounting(const DaemonStats& before, const DaemonStats& after,
                      const LoadResult& load, Result& r, const char* phase) {
  const auto delta = [&](const char* k) { return after[k] - before[k]; };
  const bool ok = !after.v.empty() && !before.v.empty() &&
                  delta("point_count") == static_cast<double>(load.points) &&
                  delta("region_count") == static_cast<double>(load.regions) &&
                  delta("what_if_count") == static_cast<double>(load.moves) &&
                  delta("requests_total") == static_cast<double>(load.answered + 1);
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: %s stats deltas point %.0f/%llu region %.0f/%llu "
                 "what_if %.0f/%llu requests %.0f/%llu+1\n",
                 phase, delta("point_count"),
                 static_cast<unsigned long long>(load.points), delta("region_count"),
                 static_cast<unsigned long long>(load.regions), delta("what_if_count"),
                 static_cast<unsigned long long>(load.moves), delta("requests_total"),
                 static_cast<unsigned long long>(load.answered));
  }
  r.check(ok, std::string("stats-verb accounting of the ") + phase);
}

ServeOutcome serve_run(Daemon& d, const Traffic& t, const ServeRun& run, Result& r) {
  ServeOutcome out;
  {
    bool ok = false;
    try {
      Client c(d.socket());
      const WireObject info = fvc::api::parse_flat_object(c.request("{\"op\":\"info\"}"));
      ok = fvc::api::get_bool(info, "ok") &&
           fvc::api::get_string(info, "digest") == t.states[0].digest;
    } catch (const std::exception&) {
    }
    r.check(ok, "daemon preflight digest");
  }
  out.layers.info_rtt_us = info_rtt_us(d.socket(), 200);
  const DaemonStats s0 = poll_stats(d.socket());
  if (run.open_seconds > 0.0) {
    out.open = open_loop(d.socket(), t, run.open_rate, run.open_seconds, run.connections);
  }
  const DaemonStats s1 = poll_stats(d.socket());
  out.closed = closed_loop(d.socket(), t, run.closed_seconds, run.connections);
  const DaemonStats s2 = poll_stats(d.socket());

  // Unanswered requests fail too; a lost connection is counted once.
  const std::uint64_t unanswered = out.open.issued - std::min(out.open.issued, out.open.answered);
  r.tally(out.open.issued,
          std::min(out.open.issued, out.open.mismatches + out.open.errors + unanswered),
          "open-loop responses");
  r.tally(out.closed.issued, out.closed.mismatches + out.closed.errors,
          "closed-loop responses");
  check_accounting(s0, s1, out.open, r, "open loop");
  check_accounting(s1, s2, out.closed, r, "closed loop");

  out.layers.point_p99_us = s1["point_p99_us"];
  out.layers.region_p99_us = s1["region_p99_us"];
  out.layers.what_if_p99_us = s1["what_if_p99_us"];
  const double hits = s1["cache_hits"] - s0["cache_hits"];
  const double misses = s1["cache_misses"] - s0["cache_misses"];
  out.layers.cache_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double rounds = s2["batch_rounds"] - s1["batch_rounds"];
  out.layers.batch_mean_size =
      rounds > 0.0 ? (s2["batch_points"] - s1["batch_points"]) / rounds : 0.0;
  const double pts = s2["point_count"] - s1["point_count"];
  out.layers.coalesced_ratio =
      pts > 0.0 ? (s2["batched_requests"] - s1["batched_requests"]) / pts : 0.0;
  out.layers.gen_late_p99_us = tail(out.open.late_us);

  const int code = d.drain(&out.peak_rss_mb);
  r.check(code == 130, "daemon SIGINT drain exits 130 (got " + std::to_string(code) + ")");
  return out;
}

}  // namespace pb
