/// Group-commit batching tests: the `points` wire verb, batched-vs-
/// scalar-oracle bit-identity under concurrent clients, the fixed round
/// budget's edge cases, drain-mid-batch flushing, and the serve-loop
/// lifecycle fixes (poll_readable error revents, handler-thread reaping).

#include "fvc/api/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fvc/api/batch.hpp"
#include "fvc/api/client.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/socket_io.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"
#include "fvc/obs/serve_stats.hpp"

namespace fvc {
namespace {

/// A heterogeneous hand-placed deployment: lattice positions with
/// per-camera orientation/radius/fov spread, so points land in covered,
/// partially covered, and empty neighbourhoods.
std::vector<core::Camera> lattice_deployment() {
  std::vector<core::Camera> cams;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      core::Camera c;
      c.position = {0.1 + 0.2 * i, 0.1 + 0.2 * j};
      c.orientation = 0.3 * i + 0.7 * j;
      c.radius = 0.125 + 0.015625 * i;
      c.fov = 1.0 + 0.25 * j;
      c.group = static_cast<std::uint32_t>(j % 3);
      cams.push_back(c);
    }
  }
  return cams;
}

api::SessionConfig lattice_config() {
  api::SessionConfig cfg;
  cfg.cameras = lattice_deployment();
  cfg.theta = geom::kHalfPi;
  cfg.grid_side = 16;
  cfg.tile_rows = 4;
  cfg.threads = 2;
  return cfg;
}

/// Query points exercising bin interiors, bin boundaries, and the domain
/// corners — the places an index lookup could disagree with the oracle.
void probe_points(std::vector<double>& xs, std::vector<double>& ys) {
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < 13; ++j) {
      xs.push_back(0.03125 + i * 0.078125);
      ys.push_back(0.015625 + j * 0.0791015625);
    }
  }
  const double edges[] = {0.0, 0.5, 1.0};
  for (double x : edges) {
    for (double y : edges) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fvc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

api::Client connect_with_retry(const std::string& path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return api::Client(path);
    } catch (const std::exception&) {
      if (attempt > 200) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// A live daemon, drained on destruction.
class BatchServeFixture {
 public:
  BatchServeFixture(api::Session& session, const char* tag,
                    obs::ServeStats* stats = nullptr)
      : path_(unique_socket_path(tag)) {
    api::ServerConfig cfg;
    cfg.socket_path = path_;
    cfg.stats = stats;
    thread_ = std::thread([this, &session, cfg] {
      report_ = api::serve(session, cfg, token_);
    });
  }

  ~BatchServeFixture() { drain(); }

  void drain() {
    if (thread_.joinable()) {
      token_.request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const api::ServeReport& report() const { return report_; }

 private:
  std::string path_;
  obs::CancellationToken token_;
  api::ServeReport report_;
  std::thread thread_;
};

/// Parse a `points` response into per-point answers (fails the test on
/// ok:false or ragged arrays).
std::vector<api::PointAnswer> parse_points_response(const std::string& body) {
  const api::WireObject obj = api::parse_flat_object(body);
  EXPECT_TRUE(api::get_bool(obj, "ok")) << body;
  const std::vector<double>& covered = api::get_numbers(obj, "covered");
  const std::vector<double>& necessary = api::get_numbers(obj, "necessary");
  const std::vector<double>& sufficient = api::get_numbers(obj, "sufficient");
  const std::vector<double>& max_gap = api::get_numbers(obj, "max_gap");
  const std::vector<double>& count = api::get_numbers(obj, "covering_count");
  const std::size_t n = static_cast<std::size_t>(api::get_number(obj, "count"));
  EXPECT_EQ(covered.size(), n);
  EXPECT_EQ(necessary.size(), n);
  EXPECT_EQ(sufficient.size(), n);
  EXPECT_EQ(max_gap.size(), n);
  EXPECT_EQ(count.size(), n);
  std::vector<api::PointAnswer> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].covered = covered[i] != 0.0;
    out[i].necessary = necessary[i] != 0.0;
    out[i].sufficient = sufficient[i] != 0.0;
    out[i].max_gap = max_gap[i];
    out[i].covering_count = static_cast<std::size_t>(count[i]);
  }
  return out;
}

void expect_same_answer(const api::PointAnswer& got, const api::PointAnswer& want,
                        std::size_t i) {
  EXPECT_EQ(got.covered, want.covered) << "point " << i;
  EXPECT_EQ(got.necessary, want.necessary) << "point " << i;
  EXPECT_EQ(got.sufficient, want.sufficient) << "point " << i;
  EXPECT_EQ(got.max_gap, want.max_gap) << "point " << i;  // bit-identical
  EXPECT_EQ(got.covering_count, want.covering_count) << "point " << i;
}

// --- Session::query_points vs the scalar oracle ----------------------------

/// The batched evaluation path must be bit-identical to the per-point
/// scalar oracle path.
TEST(QueryPoints, MatchesScalarOracleUnderEveryIndex) {
  std::vector<double> xs;
  std::vector<double> ys;
  probe_points(xs, ys);
  api::Session session(lattice_config());
  std::vector<api::PointAnswer> bulk(xs.size());
  session.query_points(xs.data(), ys.data(), xs.size(), bulk.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const api::PointAnswer oracle = session.query_point(xs[i], ys[i]);
    expect_same_answer(bulk[i], oracle, i);
  }
}

// --- The `points` wire verb ------------------------------------------------

TEST(PointsVerb, AnswersMatchPerPointResponses) {
  api::Session session(lattice_config());
  const std::vector<double> xs = {0.1, 0.55, 0.98, 0.0};
  const std::vector<double> ys = {0.1, 0.42, 0.98, 1.0};
  const std::string response =
      api::handle_query(session, api::points_request(xs, ys));
  const std::vector<api::PointAnswer> got = parse_points_response(response);
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_same_answer(got[i], session.query_point(xs[i], ys[i]), i);
  }
  // The digest matches the session's, like every other answer.
  const api::WireObject obj = api::parse_flat_object(response);
  EXPECT_EQ(api::get_string(obj, "digest"), session.digest_hex());
}

TEST(PointsVerb, EmptyArraysAnswerEmptyArrays) {
  api::Session session(lattice_config());
  const std::string response =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[],\"y\":[]}");
  EXPECT_TRUE(parse_points_response(response).empty());
}

TEST(PointsVerb, RejectsRaggedAndOversizedArrays) {
  api::Session session(lattice_config());
  const std::string ragged =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[0.5],\"y\":[]}");
  EXPECT_EQ(ragged.rfind("{\"ok\":false", 0), 0u) << ragged;
  EXPECT_NE(ragged.find("equal length"), std::string::npos) << ragged;

  const std::vector<double> too_many(api::kMaxPointsPerRequest + 1, 0.5);
  const std::string oversized =
      api::handle_query(session, api::points_request(too_many, too_many));
  EXPECT_EQ(oversized.rfind("{\"ok\":false", 0), 0u) << oversized;
  EXPECT_NE(oversized.find("too many points"), std::string::npos) << oversized;

  const std::string missing =
      api::handle_query(session, "{\"op\":\"points\",\"x\":[0.5]}");
  EXPECT_EQ(missing.rfind("{\"ok\":false", 0), 0u) << missing;
}

/// A full-cap request and its answer both fit the 1 MiB frame.
TEST(PointsVerb, MaxSizeRequestFitsTheFrameBudget) {
  std::vector<double> xs(api::kMaxPointsPerRequest);
  std::vector<double> ys(api::kMaxPointsPerRequest);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Full-width %.17g coordinates: the worst case for frame size.
    xs[i] = 1.0 / 3.0 + static_cast<double>(i) * 1e-9;
    ys[i] = 2.0 / 3.0 - static_cast<double>(i) * 1e-9;
  }
  const std::string request = api::points_request(xs, ys);
  EXPECT_LE(request.size(), api::kMaxFrameBytes);
  api::Session session(lattice_config());
  const std::string response = api::handle_query(session, request);
  EXPECT_LE(response.size(), api::kMaxFrameBytes);
  EXPECT_EQ(parse_points_response(response).size(), xs.size());
}

// --- Batched daemon: concurrency, bit-identity, telemetry ------------------

/// N concurrent clients mixing `point`, `points`, and (no-op) `what_if`
/// rounds against the daemon: every answer must equal the scalar oracle
/// of a fresh session at the same coordinates.
TEST(BatchServe, ConcurrentAnswersAreBitIdenticalToUnbatched) {
  api::Session session(lattice_config());
  obs::ServeStats stats;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 24;
  std::vector<std::vector<std::string>> replies(kClients);
  {
    BatchServeFixture daemon(session, "batch_ident", &stats);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        api::Client client = connect_with_retry(daemon.path());
        for (std::size_t r = 0; r < kRounds; ++r) {
          const double x = 0.03125 * ((c * 7 + r * 3) % 32);
          const double y = 0.03125 * ((c * 11 + r * 5) % 32);
          if (r % 8 == 7) {
            // A no-op edit (move camera 0 onto itself): exercises the
            // what_if path racing the batcher without changing answers.
            replies[c].push_back(client.request(
                "{\"op\":\"what_if\",\"action\":\"move\",\"index\":0}"));
          } else if (r % 3 == 0) {
            const std::vector<double> xs = {x, 1.0 - x, 0.5};
            const std::vector<double> ys = {y, 1.0 - y, y};
            replies[c].push_back(client.request(api::points_request(xs, ys)));
          } else {
            api::JsonObjectWriter w;
            w.add_string("op", "point");
            w.add_number("x", x);
            w.add_number("y", y);
            replies[c].push_back(client.request(w.finish()));
          }
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  // Replay every round through the scalar oracle of a fresh session.
  api::Session oracle(lattice_config());
  std::uint64_t expected_points = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const double x = 0.03125 * ((c * 7 + r * 3) % 32);
      const double y = 0.03125 * ((c * 11 + r * 5) % 32);
      const std::string& reply = replies[c][r];
      if (r % 8 == 7) {
        EXPECT_EQ(reply.rfind("{\"ok\":true", 0), 0u) << reply;
        continue;
      }
      if (r % 3 == 0) {
        expected_points += 3;
        const std::vector<api::PointAnswer> got = parse_points_response(reply);
        const double pxs[] = {x, 1.0 - x, 0.5};
        const double pys[] = {y, 1.0 - y, y};
        ASSERT_EQ(got.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
          expect_same_answer(got[i], oracle.query_point(pxs[i], pys[i]), i);
        }
      } else {
        expected_points += 1;
        const api::WireObject obj = api::parse_flat_object(reply);
        ASSERT_TRUE(api::get_bool(obj, "ok")) << reply;
        const api::PointAnswer want = oracle.query_point(x, y);
        EXPECT_EQ(api::get_bool(obj, "covered"), want.covered);
        EXPECT_EQ(api::get_bool(obj, "necessary"), want.necessary);
        EXPECT_EQ(api::get_bool(obj, "sufficient"), want.sufficient);
        EXPECT_EQ(api::get_number(obj, "max_gap"), want.max_gap);
        EXPECT_EQ(static_cast<std::size_t>(
                      api::get_number(obj, "covering_count")),
                  want.covering_count);
      }
    }
  }
  // Every point/points request went through the batcher: rounds and the
  // per-round point totals are deterministic even when coalescing isn't.
  const obs::ServeStatsSnapshot snap = stats.snapshot(false);
  EXPECT_GT(snap.batch_rounds, 0u);
  EXPECT_EQ(snap.batch_points, expected_points);
}

/// The fixed round budget still answers everything: `points` arrays
/// bigger than `PointBatcher::kMaxPoints` run alone, and the small
/// requests queued behind them never starve.
TEST(BatchServe, TinyBatchBudgetStillAnswersEverything) {
  constexpr std::size_t kClients = 4;  // the last one sends 2-point arrays
  constexpr std::size_t kRounds = 6;
  std::vector<std::vector<double>> xs(kClients);
  std::vector<std::vector<double>> ys(kClients);
  std::vector<std::vector<api::PointAnswer>> want(kClients);
  api::Session oracle(lattice_config());
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::size_t n =
        c + 1 < kClients ? api::PointBatcher::kMaxPoints + 1 + 37 * c : 2;
    for (std::size_t i = 0; i < n; ++i) {
      xs[c].push_back(std::fmod(0.0078125 * static_cast<double>(i) + 0.1 * c, 1.0));
      ys[c].push_back(std::fmod(0.02734375 * static_cast<double>(i) + 0.3 * c, 1.0));
      want[c].push_back(oracle.query_point(xs[c].back(), ys[c].back()));
    }
  }
  api::Session session(lattice_config());
  obs::ServeStats stats;
  std::vector<std::vector<std::string>> replies(kClients);
  {
    BatchServeFixture daemon(session, "batch_budget", &stats);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        api::Client client = connect_with_retry(daemon.path());
        for (std::size_t r = 0; r < kRounds; ++r) {
          replies[c].push_back(client.request(api::points_request(xs[c], ys[c])));
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(replies[c].size(), kRounds);
    for (const std::string& reply : replies[c]) {
      const std::vector<api::PointAnswer> got = parse_points_response(reply);
      ASSERT_EQ(got.size(), want[c].size()) << "client " << c;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_answer(got[i], want[c][i], i);
      }
    }
  }
  // No request shares a round with an oversized one, and a client waits
  // for each answer before sending again: one round per request.
  const obs::ServeStatsSnapshot snap = stats.snapshot(false);
  EXPECT_EQ(snap.batch_rounds, kClients * kRounds);
  EXPECT_EQ(snap.batched_requests, 0u);
}

/// Draining mid-batch flushes every in-flight waiter with an answer —
/// a client never sees EOF in place of a response it was owed.
TEST(BatchServe, DrainMidBatchFlushesWaitersWithAnswers) {
  api::Session session(lattice_config());
  auto daemon = std::make_unique<BatchServeFixture>(session, "batch_drain");
  std::vector<std::thread> workers;
  std::atomic<int> truncated{0};
  std::atomic<bool> stop{false};
  for (int c = 0; c < 4; ++c) {
    workers.emplace_back([&, c] {
      api::Client client = connect_with_retry(daemon->path());
      api::JsonObjectWriter w;
      w.add_string("op", "point");
      w.add_number("x", 0.2 + 0.1 * c);
      w.add_number("y", 0.3);
      const std::string body = w.finish();
      while (!stop.load(std::memory_order_relaxed)) {
        std::optional<std::string> reply;
        try {
          reply = client.try_request(body);
        } catch (const std::exception&) {
          break;  // write raced the close: the request never got in
        }
        if (!reply.has_value()) {
          break;  // daemon drained: EOF *between* exchanges is the contract
        }
        if (reply->rfind("{\"ok\":true", 0) != 0) {
          truncated.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  daemon->drain();  // SIGINT equivalent, mid-load
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(truncated.load(), 0);
}

// --- Lifecycle fixes -------------------------------------------------------

/// poll_readable must report error revents as readable: a handler
/// polling a broken socket has to fall through to read(), see the
/// failure, and exit — not spin on "nothing to read" forever.
TEST(PollReadable, ErrorReventsCountAsReadable) {
  // POLLHUP: peer of a socketpair closed.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::close(sv[1]), 0);
  EXPECT_TRUE(api::poll_readable(sv[0], 100));
  ASSERT_EQ(::close(sv[0]), 0);

  // POLLERR: write end of a pipe whose read end is gone.
  int pfd[2];
  ASSERT_EQ(::pipe(pfd), 0);
  ASSERT_EQ(::close(pfd[0]), 0);
  EXPECT_TRUE(api::poll_readable(pfd[1], 100));
  ASSERT_EQ(::close(pfd[1]), 0);

  // POLLNVAL: an fd that is not open at all.
  int dead[2];
  ASSERT_EQ(::pipe(dead), 0);
  ASSERT_EQ(::close(dead[0]), 0);
  ASSERT_EQ(::close(dead[1]), 0);
  EXPECT_TRUE(api::poll_readable(dead[0], 100));

  // And a quiet healthy fd still times out unreadable.
  int quiet[2];
  ASSERT_EQ(::pipe(quiet), 0);
  EXPECT_FALSE(api::poll_readable(quiet[0], 10));
  ASSERT_EQ(::close(quiet[0]), 0);
  ASSERT_EQ(::close(quiet[1]), 0);
}

/// Sequential connections must not accumulate unjoined handler threads:
/// the accept-tick reap keeps the live-thread high-water mark bounded by
/// *concurrency*, not by total connections served.
TEST(BatchServe, SequentialConnectionsKeepThreadCountBounded) {
  api::Session session(lattice_config());
  constexpr std::size_t kConnections = 24;
  api::ServeReport report;
  {
    BatchServeFixture daemon(session, "thread_reap");
    for (std::size_t i = 0; i < kConnections; ++i) {
      api::Client client = connect_with_retry(daemon.path());
      const std::string reply = client.request("{\"op\":\"info\"}");
      ASSERT_EQ(reply.rfind("{\"ok\":true", 0), 0u);
      // Client closes here; give the handler a beat to notice EOF so the
      // next accept tick can reap it.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon.drain();
    report = daemon.report();
  }
  EXPECT_EQ(report.connections, kConnections);
  EXPECT_GE(report.peak_threads, 1u);
  // Strictly-sequential clients with reaping stay far below one thread
  // per connection (generous slack for slow sanitizer schedules).
  EXPECT_LE(report.peak_threads, kConnections / 3);
}

}  // namespace
}  // namespace fvc
