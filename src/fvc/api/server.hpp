/// \file server.hpp
/// \brief The `fvc serve` daemon: fvc.query/1 over a local AF_UNIX socket.
///
/// The server accepts concurrent clients (one handler thread per
/// connection) but serializes Session access under one mutex — the
/// parallelism that matters lives *inside* each region query, where the
/// Session batches missing tiles into the SIMD kernel through
/// `sim::parallel_for_blocked`.  Serialization is also what makes
/// concurrent clients deterministic: every request sees a consistent
/// deployment digest, and interleaved what-if edits cannot tear a query.
///
/// Point work rides a group-commit batcher (batch.hpp): concurrent
/// `point` / `points` requests coalesce into single SIMD-kernel rounds
/// instead of paying one session-mutex hand-off and one engine dispatch
/// each.  Batching never changes answers — only scheduling (see
/// batch.hpp for the bit-identity argument): both the batcher and
/// `handle_query` answer points through `Session::query_points`.
///
/// Shutdown is cooperative: the accept loop polls the cancellation token
/// (the CLI's SIGINT trampoline trips it), stops accepting, then drains —
/// handler threads notice the stop flag at their next poll tick, finish
/// the request in flight, and join.  The CLI layer then exits 130 with
/// the final metrics flush, like every other cancelled command.
///
/// Error policy per connection: a malformed body (bad JSON, missing
/// field, unknown op) gets an `ok:false` response and the connection
/// lives on; a broken frame prefix (oversized or truncated) closes the
/// connection — after framing desyncs there is no trustworthy boundary
/// to resume at.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fvc/api/session.hpp"
#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/serve_stats.hpp"

namespace fvc::api {

/// A periodic daemon-side task (metrics flush, Prometheus export).
/// Ticks run on the accept thread *under the session mutex* — at most
/// once per poll tick (~100ms floor on `every_ms`) — so a task may
/// safely read the session and its metrics tree; it must stay cheap
/// enough not to starve the handlers.  A throwing tick is reported to
/// stderr and retried at its next interval; it never kills the daemon.
struct PeriodicTask {
  std::uint64_t every_ms = 0;  ///< interval; 0 disables the task
  std::function<void()> fn;
};

/// Serve-daemon knobs.
struct ServerConfig {
  std::string socket_path;  ///< AF_UNIX path to listen on
  int backlog = 16;         ///< listen(2) backlog
  /// Live telemetry registry (null = no recording, `stats` verb answers
  /// ok:false).  Not owned; must outlive serve().
  obs::ServeStats* stats = nullptr;
  std::vector<PeriodicTask> ticks;  ///< periodic tasks (see PeriodicTask)
};

/// Accounting the daemon reports after draining.
struct ServeReport {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< ok:false responses sent
  /// High-water mark of simultaneously live handler threads.  Finished
  /// handlers are reaped on the accept tick, so under sequential clients
  /// this stays near 1 no matter how many connections were served.
  std::uint64_t peak_threads = 0;
};

/// The session's tile-cache counters packaged for the telemetry mirror
/// (`obs::ServeStats::note_cache`).  Callers hold the session mutex.
[[nodiscard]] obs::CacheMirror cache_mirror_of(const Session& session);

/// Answer one fvc.query/1 request body against `session`, returning the
/// response body.  Pure request->response logic, shared by the daemon
/// and the protocol tests; never throws (failures become ok:false).
/// `point` and `points` run `Session::query_points`, the engine path the
/// daemon's batcher runs, so the golden transcripts pin served bytes.
/// `stats` backs the `stats` verb (null answers it ok:false) and is
/// *only read* here — recording happens in the serve loop, after the
/// handler returns, so a `stats` snapshot never counts the request that
/// asked for it.  When `type_out` is non-null it receives the request's
/// telemetry class (obs::ReqType::kOther for anything that failed to
/// parse), classified from the op actually dispatched — never a second
/// parse.
[[nodiscard]] std::string handle_query(Session& session, std::string_view body,
                                       obs::ServeStats* stats,
                                       obs::ReqType* type_out = nullptr);
/// Statsless form (embedded use and the golden protocol tests).
[[nodiscard]] std::string handle_query(Session& session, std::string_view body);

/// Run the daemon until `cancel` trips: bind `cfg.socket_path`, accept
/// and serve concurrent clients against `session`, then drain and
/// return the accounting.  \throws std::runtime_error when the socket
/// cannot be bound.
[[nodiscard]] ServeReport serve(Session& session, const ServerConfig& cfg,
                                obs::CancellationToken& cancel);

}  // namespace fvc::api
