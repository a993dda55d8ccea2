#include "fvc/api/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "fvc/api/batch.hpp"
#include "fvc/api/socket_io.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/obs/metrics.hpp"

namespace fvc::api {

namespace {

/// Poll tick: how long a blocked accept/read waits before re-checking the
/// stop flag — the upper bound on shutdown latency per thread.
constexpr int kPollMs = 100;

std::string error_response(std::string_view message) {
  JsonObjectWriter w;
  w.add_bool("ok", false);
  w.add_string("schema", kQuerySchema);
  w.add_string("error", message);
  return w.finish();
}

/// The `point` answer body (the golden protocol transcripts pin this
/// exact layout).
std::string point_response(const std::string& digest, const PointAnswer& ans) {
  JsonObjectWriter w;
  w.add_bool("ok", true);
  w.add_string("schema", kQuerySchema);
  w.add_string("digest", digest);
  w.add_bool("covered", ans.covered);
  w.add_bool("necessary", ans.necessary);
  w.add_bool("sufficient", ans.sufficient);
  w.add_number("max_gap", ans.max_gap);
  w.add_integer("covering_count", ans.covering_count);
  return w.finish();
}

/// The `points` answer body: parallel arrays, one slot per query point.
/// Booleans travel as 0/1 integer arrays (the wire format's arrays hold
/// numbers only).
std::string points_response(const std::string& digest,
                            std::span<const PointAnswer> answers) {
  std::vector<std::uint64_t> covered(answers.size());
  std::vector<std::uint64_t> necessary(answers.size());
  std::vector<std::uint64_t> sufficient(answers.size());
  std::vector<double> max_gap(answers.size());
  std::vector<std::uint64_t> covering_count(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    covered[i] = answers[i].covered ? 1 : 0;
    necessary[i] = answers[i].necessary ? 1 : 0;
    sufficient[i] = answers[i].sufficient ? 1 : 0;
    max_gap[i] = answers[i].max_gap;
    covering_count[i] = answers[i].covering_count;
  }
  JsonObjectWriter w;
  w.add_bool("ok", true);
  w.add_string("schema", kQuerySchema);
  w.add_string("digest", digest);
  w.add_integer("count", answers.size());
  w.add_integer_array("covered", covered);
  w.add_integer_array("necessary", necessary);
  w.add_integer_array("sufficient", sufficient);
  w.add_number_array("max_gap", max_gap);
  w.add_integer_array("covering_count", covering_count);
  return w.finish();
}

/// The `points` op's coordinate arrays, validated: equal lengths, under
/// the frame-budget cap.
std::pair<const std::vector<double>*, const std::vector<double>*> points_coords(
    const WireObject& req) {
  const std::vector<double>& xs = get_numbers(req, "x");
  const std::vector<double>& ys = get_numbers(req, "y");
  if (xs.size() != ys.size()) {
    throw WireError("wire: 'x' and 'y' must have equal length");
  }
  if (xs.size() > kMaxPointsPerRequest) {
    throw WireError("wire: too many points (max " +
                    std::to_string(kMaxPointsPerRequest) + ")");
  }
  return {&xs, &ys};
}

void add_region_fields(JsonObjectWriter& w, const RegionAnswer& ans) {
  w.add_integer("row_begin", ans.row_begin);
  w.add_integer("row_end", ans.row_end);
  w.add_integer("total_points", ans.stats.total_points);
  w.add_integer("covered_1", ans.stats.covered_1);
  w.add_integer("necessary_ok", ans.stats.necessary_ok);
  w.add_integer("full_view_ok", ans.stats.full_view_ok);
  w.add_integer("sufficient_ok", ans.stats.sufficient_ok);
  w.add_integer("k_covered_ok", ans.stats.k_covered_ok);
  w.add_number("min_max_gap", ans.stats.min_max_gap);
  w.add_number("max_max_gap", ans.stats.max_max_gap);
  w.add_integer("tiles_total", ans.tiles_total);
  w.add_integer("tiles_cached", ans.tiles_cached);
  w.add_integer("tiles_computed", ans.tiles_computed);
}

std::size_t get_index(const WireObject& obj, std::size_t bound) {
  const double raw = get_number(obj, "index");
  if (raw < 0.0 || raw != static_cast<double>(static_cast<std::size_t>(raw)) ||
      static_cast<std::size_t>(raw) >= bound) {
    throw WireError("wire: 'index' out of range");
  }
  return static_cast<std::size_t>(raw);
}

std::string handle_what_if(Session& session, const WireObject& req) {
  const std::string& action = get_string(req, "action");
  if (action == "add") {
    core::Camera cam;
    cam.position = {get_number(req, "x"), get_number(req, "y")};
    cam.orientation = get_number_or(req, "orientation", 0.0);
    cam.radius = get_number(req, "radius");
    cam.fov = get_number(req, "fov");
    cam.group = static_cast<std::uint32_t>(get_number_or(req, "group", 0.0));
    (void)session.add_camera(cam);
  } else if (action == "remove") {
    (void)session.remove_camera(get_index(req, session.camera_count()));
  } else if (action == "move") {
    const std::size_t index = get_index(req, session.camera_count());
    core::Camera cam = session.camera(index);  // absent fields keep current
    cam.position = {get_number_or(req, "x", cam.position.x),
                    get_number_or(req, "y", cam.position.y)};
    cam.orientation = get_number_or(req, "orientation", cam.orientation);
    cam.radius = get_number_or(req, "radius", cam.radius);
    cam.fov = get_number_or(req, "fov", cam.fov);
    (void)session.move_camera(index, cam);
  } else if (action == "set_theta") {
    (void)session.set_theta(get_number(req, "theta"));
  } else {
    throw WireError("wire: unknown what_if action '" + action + "'");
  }
  JsonObjectWriter w;
  w.add_bool("ok", true);
  w.add_string("schema", kQuerySchema);
  w.add_string("digest", session.digest_hex());
  w.add_integer("cameras", session.camera_count());
  w.add_number("theta", session.theta());
  return w.finish();
}

std::string handle_stats(Session& session, obs::ServeStats& stats) {
  // Refresh the cache mirror first (we hold the session mutex), so the
  // snapshot's occupancy is current, then advance the delta baseline —
  // the `stats` verb owns the baseline; file exporters never touch it.
  stats.note_cache(cache_mirror_of(session));
  const obs::ServeStatsSnapshot snap = stats.snapshot(/*advance_baseline=*/true);
  JsonObjectWriter w;
  w.add_bool("ok", true);
  w.add_string("schema", kServeStatsSchema);
  w.add_string("digest", session.digest_hex());
  w.add_integer("uptime_ms", snap.uptime_ms);
  w.add_integer("connections_total", snap.connections_total);
  w.add_integer("connections_active", snap.connections_active);
  w.add_integer("in_flight", snap.in_flight);
  w.add_integer("requests_total", snap.requests_total);
  w.add_integer("errors_total", snap.errors_total);
  w.add_integer("bytes_in", snap.bytes_in);
  w.add_integer("bytes_out", snap.bytes_out);
  for (std::size_t t = 0; t < obs::kReqTypeCount; ++t) {
    const obs::ServeStatsSnapshot::PerType& pt = snap.types[t];
    const std::string name = obs::req_type_name(static_cast<obs::ReqType>(t));
    w.add_integer(name + "_count", pt.count);
    w.add_number(name + "_p50_us", pt.p50_us);
    w.add_number(name + "_p90_us", pt.p90_us);
    w.add_number(name + "_p99_us", pt.p99_us);
  }
  w.add_integer("cache_hits", snap.cache.hits);
  w.add_integer("cache_misses", snap.cache.misses);
  w.add_integer("cache_evictions", snap.cache.evictions);
  w.add_integer("cache_carried_forward", snap.cache.carried_forward);
  w.add_integer("cache_tiles", snap.cache.tiles);
  w.add_integer("cache_capacity", snap.cache.capacity);
  w.add_integer("cache_bytes", snap.cache.bytes);
  w.add_integer("stalls", snap.stalls);
  w.add_integer("batched_requests", snap.batched_requests);
  w.add_integer("batch_rounds", snap.batch_rounds);
  w.add_integer("batch_points", snap.batch_points);
  w.add_number("batch_size_p50", snap.batch_size_p50);
  w.add_number("batch_size_p90", snap.batch_size_p90);
  w.add_number("batch_size_p99", snap.batch_size_p99);
  w.add_integer("delta_ms", snap.delta_ms);
  w.add_integer("delta_requests", snap.delta_requests);
  w.add_integer("delta_errors", snap.delta_errors);
  w.add_integer("delta_bytes_in", snap.delta_bytes_in);
  w.add_integer("delta_bytes_out", snap.delta_bytes_out);
  for (std::size_t t = 0; t < obs::kReqTypeCount; ++t) {
    const std::string name = obs::req_type_name(static_cast<obs::ReqType>(t));
    w.add_integer(name + "_delta", snap.delta_counts[t]);
  }
  return w.finish();
}

/// Dispatch one *parsed* request other than point work (`answer_request`
/// owns parsing, point work and error handling: thrown
/// WireError/std::exception become ok:false there).  Classification
/// lands in `type_out` from the op actually dispatched.
std::string handle_parsed(Session& session, const std::string& op, const WireObject& req,
                          obs::ServeStats* stats, obs::ReqType* type_out) {
  if (op == "region") {
    *type_out = obs::ReqType::kRegion;
    const RegionAnswer ans =
        session.query_region(get_number(req, "y_lo"), get_number(req, "y_hi"));
    JsonObjectWriter w;
    w.add_bool("ok", true);
    w.add_string("schema", kQuerySchema);
    w.add_string("digest", session.digest_hex());
    add_region_fields(w, ans);
    return w.finish();
  }
  if (op == "what_if") {
    *type_out = obs::ReqType::kWhatIf;
    return handle_what_if(session, req);
  }
  if (op == "stats") {
    *type_out = obs::ReqType::kStats;
    if (stats == nullptr) {
      return error_response("stats not available");
    }
    return handle_stats(session, *stats);
  }
  if (op == "info") {
    *type_out = obs::ReqType::kInfo;
    const TileCacheStats& cs = session.cache_stats();
    JsonObjectWriter w;
    w.add_bool("ok", true);
    w.add_string("schema", kQuerySchema);
    w.add_string("digest", session.digest_hex());
    w.add_integer("cameras", session.camera_count());
    w.add_number("theta", session.theta());
    w.add_integer("grid_side", session.grid_side());
    w.add_integer("tile_rows", session.tile_rows());
    w.add_integer("cache_capacity", session.cache().capacity());
    w.add_integer("cache_size", session.cache().size());
    w.add_integer("cache_hits", cs.hits);
    w.add_integer("cache_misses", cs.misses);
    w.add_integer("cache_evictions", cs.evictions);
    w.add_integer("cache_carried_forward", cs.carried_forward);
    return w.finish();
  }
  return error_response("unknown op '" + op + "'");
}

/// Parse one request body and answer it: `point` and `points` through
/// `eval(xs, ys, n, out)`, which fills `out[0..n)` and returns the digest
/// the answers ran against, every other op through `dispatch(op, req)`.
/// `handle_query` evaluates on the session, the serve loop through the
/// batcher: one engine path and one response layout for both.  Never
/// throws (failures become ok:false).
template <class Eval, class Dispatch>
std::string answer_request(std::string_view body, obs::ReqType* type_out, Eval&& eval,
                           Dispatch&& dispatch) {
  *type_out = obs::ReqType::kOther;  // until an op actually dispatches
  try {
    const WireObject req = parse_flat_object(body);
    const std::string& op = get_string(req, "op");
    if (op == "point") {
      *type_out = obs::ReqType::kPoint;
      const double x = get_number(req, "x");
      const double y = get_number(req, "y");
      PointAnswer ans;
      const std::string digest = eval(&x, &y, std::size_t{1}, &ans);
      return point_response(digest, ans);
    }
    if (op == "points") {
      *type_out = obs::ReqType::kBatch;
      const auto [xs, ys] = points_coords(req);
      std::vector<PointAnswer> answers(xs->size());
      const std::string digest = eval(xs->data(), ys->data(), xs->size(), answers.data());
      return points_response(digest, answers);
    }
    return dispatch(op, req);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

}  // namespace

obs::CacheMirror cache_mirror_of(const Session& session) {
  const TileCacheStats& cs = session.cache_stats();
  obs::CacheMirror m;
  m.hits = cs.hits;
  m.misses = cs.misses;
  m.evictions = cs.evictions;
  m.carried_forward = cs.carried_forward;
  m.tiles = session.cache().size();
  m.capacity = session.cache().capacity();
  m.bytes = session.cache().approx_bytes();
  return m;
}

std::string handle_query(Session& session, std::string_view body,
                         obs::ServeStats* stats, obs::ReqType* type_out) {
  obs::ReqType unused = obs::ReqType::kOther;
  obs::ReqType* const type = type_out != nullptr ? type_out : &unused;
  return answer_request(
      body, type,
      [&session](const double* xs, const double* ys, std::size_t n, PointAnswer* out) {
        session.query_points(xs, ys, n, out);
        return session.digest_hex();
      },
      [&session, stats, type](const std::string& op, const WireObject& req) {
        return handle_parsed(session, op, req, stats, type);
      });
}

std::string handle_query(Session& session, std::string_view body) {
  return handle_query(session, body, nullptr, nullptr);
}

namespace {

/// Shared state of one daemon run.
struct ServeState {
  ServeState(Session& s, obs::ServeStats* st)
      : session(s), stats(st), batcher(s, session_mutex, st) {}

  Session& session;
  obs::ServeStats* const stats;  ///< null = no telemetry recording
  std::mutex session_mutex;
  PointBatcher batcher;  ///< the route of every point op
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
};

/// 4 bytes of length prefix per frame, counted into the byte totals.
constexpr std::uint64_t kFrameOverhead = 4;

/// Answer one request body for the serve loop.  Point work coalesces
/// into group-commit rounds (the batcher takes the session mutex
/// itself); everything else serializes under the session mutex.
std::string serve_one(ServeState& state, std::string_view body,
                      obs::ReqType* type_out) {
  return answer_request(
      body, type_out,
      [&state](const double* xs, const double* ys, std::size_t n, PointAnswer* out) {
        return state.batcher.evaluate(xs, ys, n, out);
      },
      [&state, type_out](const std::string& op, const WireObject& req) {
        const std::lock_guard<std::mutex> lock(state.session_mutex);
        std::string response = handle_parsed(state.session, op, req, state.stats, type_out);
        if (state.stats != nullptr) {
          // Republish the cache mirror while the mutex still orders the
          // writes — mirror values then never move backwards.
          state.stats->note_cache(cache_mirror_of(state.session));
        }
        return response;
      });
}

void client_loop(ServeState& state, ScopedFd fd) {
  obs::ServeStats::Recorder* recorder =
      state.stats != nullptr ? &state.stats->make_recorder() : nullptr;
  try {
    // Serve until drain: the response in flight still goes out (the check
    // sits at the loop top), then the connection closes and the client
    // reads EOF — its signal that the daemon is gone.
    while (!state.draining.load(std::memory_order_relaxed)) {
      if (!poll_readable(fd.get(), kPollMs)) {
        continue;
      }
      const std::optional<std::string> body = read_frame(fd.get());
      if (!body.has_value()) {
        break;  // clean EOF: client hung up
      }
      obs::ReqType type = obs::ReqType::kOther;
      const std::uint64_t t0 = obs::monotonic_ns();
      if (state.stats != nullptr) {
        state.stats->request_started();
      }
      const std::string response = serve_one(state, *body, &type);
      const bool is_error = response.rfind("{\"ok\":false", 0) == 0;
      if (state.stats != nullptr) {
        state.stats->request_finished();
        // Record before the response leaves: once a client has read its
        // answer, the daemon's totals already include it — what makes
        // "stats totals equal requests issued" exact for a poller that
        // waits for its load to finish.
        recorder->record(type, (obs::monotonic_ns() - t0) / 1000,
                         body->size() + kFrameOverhead,
                         response.size() + kFrameOverhead, is_error);
      }
      state.requests.fetch_add(1, std::memory_order_relaxed);
      if (is_error) {
        state.errors.fetch_add(1, std::memory_order_relaxed);
      }
      write_frame(fd.get(), response);
    }
  } catch (const std::exception&) {
    // Framing desync or a vanished peer: drop the connection.  The
    // daemon itself must outlive any one client.
  }
  if (state.stats != nullptr) {
    state.stats->connection_closed();
  }
}

/// One live (or finished-but-unjoined) handler thread.  `done` is set by
/// the thread itself as its last act, so the accept loop can join
/// without blocking — the reap pass below keeps the vector bounded by
/// *concurrent* clients, not total connections served.
struct ClientSlot {
  std::thread thread;
  std::unique_ptr<std::atomic<bool>> done;
};

}  // namespace

ServeReport serve(Session& session, const ServerConfig& cfg,
                  obs::CancellationToken& cancel) {
  const ScopedFd listener = unix_listen(cfg.socket_path, cfg.backlog);
  ServeState state(session, cfg.stats);
  if (state.stats != nullptr) {
    // Seed the mirror so a stats poll before any traffic still reports
    // the cache's real capacity and (empty) occupancy.
    state.stats->note_cache(cache_mirror_of(session));
  }
  ServeReport report;
  std::vector<ClientSlot> clients;
  std::vector<std::uint64_t> tick_last(cfg.ticks.size(), obs::monotonic_ns());
  bool accept_failing = false;  // logged once per failure burst
  while (!cancel.stop_requested()) {
    // Periodic tasks ride the accept loop's poll cadence: checked every
    // tick (~100ms), run under the session mutex (see PeriodicTask).
    for (std::size_t i = 0; i < cfg.ticks.size(); ++i) {
      const PeriodicTask& task = cfg.ticks[i];
      const std::uint64_t now = obs::monotonic_ns();
      if (task.every_ms == 0 || now - tick_last[i] < task.every_ms * 1'000'000) {
        continue;
      }
      tick_last[i] = now;
      try {
        const std::lock_guard<std::mutex> lock(state.session_mutex);
        task.fn();
      } catch (const std::exception& e) {
        // A failed flush (disk full, path vanished) must not kill the
        // daemon; report and retry at the next interval.
        std::fprintf(stderr, "fvc serve: periodic task failed: %s\n", e.what());
      }
    }
    // Reap finished handlers: their `done` flag is already set, so the
    // join is instant.  Without this, a long-lived daemon accumulates
    // one unjoined thread per connection it ever served.
    for (auto it = clients.begin(); it != clients.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = clients.erase(it);
      } else {
        ++it;
      }
    }
    if (!poll_readable(listener.get(), kPollMs)) {
      continue;
    }
    ScopedFd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) {
      if (errno == ECONNABORTED || errno == EINTR) {
        continue;  // raced a client that already gave up
      }
      // Resource exhaustion (EMFILE/ENFILE/ENOMEM): the listener stays
      // readable, so a bare `continue` would spin at 100% CPU.  Log once
      // per burst and sit out one poll tick — reaping above may free fds.
      if (!accept_failing) {
        accept_failing = true;
        std::fprintf(stderr, "fvc serve: accept failed: %s (backing off)\n",
                     std::strerror(errno));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      continue;
    }
    accept_failing = false;
    ++report.connections;
    ClientSlot slot;
    slot.done = std::make_unique<std::atomic<bool>>(false);
    std::atomic<bool>* done = slot.done.get();
    slot.thread = std::thread([&state, done, fd = std::move(conn)]() mutable {
      client_loop(state, std::move(fd));
      done->store(true, std::memory_order_release);
    });
    clients.push_back(std::move(slot));
    if (clients.size() > report.peak_threads) {
      report.peak_threads = clients.size();
    }
  }
  // Graceful drain: no new connections, let handlers finish the request
  // in flight (they notice `draining` at their next poll tick), join all.
  state.draining.store(true, std::memory_order_relaxed);
  for (ClientSlot& slot : clients) {
    slot.thread.join();
  }
  ::unlink(cfg.socket_path.c_str());
  report.requests = state.requests.load();
  report.errors = state.errors.load();
  return report;
}

}  // namespace fvc::api
