/// fvc.query/1 protocol tests: golden transcripts through `handle_query`,
/// malformed- and oversized-frame rejection on a live socket, and
/// concurrent-client determinism under a mutating (but no-op) mix.

#include "fvc/api/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fvc/api/client.hpp"
#include "fvc/api/session.hpp"
#include "fvc/api/socket_io.hpp"
#include "fvc/api/wire.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/cancellation.hpp"

namespace fvc {
namespace {

/// Two hand-placed cameras with exactly-representable parameters, so the
/// transcript bytes are stable across platforms.
std::vector<core::Camera> tiny_deployment() {
  core::Camera a;
  a.position = {0.25, 0.25};
  a.orientation = 0.0;
  a.radius = 0.125;
  a.fov = 2.0;
  core::Camera b;
  b.position = {0.75, 0.75};
  b.orientation = 1.5;
  b.radius = 0.125;
  b.fov = 2.0;
  return {a, b};
}

api::Session tiny_session() {
  api::SessionConfig cfg;
  cfg.cameras = tiny_deployment();
  cfg.theta = geom::kHalfPi;
  cfg.grid_side = 16;
  cfg.tile_rows = 4;
  cfg.threads = 2;
  return api::Session(std::move(cfg));
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/fvc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The listener thread may not have bound yet when the test connects.
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

/// A live daemon for one test: serve() on a background thread, stopped
/// and joined (drained) on destruction.
class ServeFixture {
 public:
  explicit ServeFixture(api::Session& session, const char* tag)
      : path_(unique_socket_path(tag)), thread_([this, &session] {
          api::ServerConfig config;
          config.socket_path = path_;
          config.backlog = 16;
          report_ = api::serve(session, config, token_);
        }) {}

  ~ServeFixture() { drain(); }

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

// --- Wire-format unit tests ------------------------------------------------

TEST(Wire, ParsesFlatObjects) {
  const api::WireObject obj = api::parse_flat_object(
      "{\"op\":\"point\",\"x\":0.5,\"neg\":-2.25e-1,\"flag\":true,"
      "\"label\":\"a b\"}");
  EXPECT_EQ(api::get_string(obj, "op"), "point");
  EXPECT_EQ(api::get_number(obj, "x"), 0.5);
  EXPECT_EQ(api::get_number(obj, "neg"), -0.225);
  EXPECT_TRUE(api::get_bool(obj, "flag"));
  EXPECT_EQ(api::get_string(obj, "label"), "a b");
  EXPECT_EQ(api::get_number_or(obj, "absent", 7.0), 7.0);
  EXPECT_TRUE(api::parse_flat_object("{}").empty());
  EXPECT_TRUE(api::parse_flat_object("  { }  ").empty());
}

TEST(Wire, ParsesFlatNumberArrays) {
  const api::WireObject obj = api::parse_flat_object(
      "{\"op\":\"points\",\"x\":[0.5, -0.25,3e-1],\"y\":[],\"n\":2}");
  const std::vector<double>& xs = api::get_numbers(obj, "x");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0], 0.5);
  EXPECT_EQ(xs[1], -0.25);
  EXPECT_EQ(xs[2], 0.3);
  EXPECT_TRUE(api::get_numbers(obj, "y").empty());
  // Wrong-kind and missing accesses throw, like every other accessor.
  EXPECT_THROW((void)api::get_numbers(obj, "n"), api::WireError);
  EXPECT_THROW((void)api::get_numbers(obj, "absent"), api::WireError);
  EXPECT_THROW((void)api::get_number(obj, "x"), api::WireError);
}

TEST(Wire, RejectsMalformedBodies) {
  EXPECT_THROW((void)api::parse_flat_object(""), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("not json"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":1"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":1}x"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":{}}"), api::WireError);
  // Arrays are admitted, but only one level deep and only of numbers.
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[true]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[\"s\"]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[[1]]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[{}]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[1,]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[1"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":[nan]}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":1,\"a\":2}"),
               api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":nan}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":1e999}"), api::WireError);
  EXPECT_THROW((void)api::parse_flat_object("{\"a\":truth}"), api::WireError);
  const api::WireObject typed = api::parse_flat_object("{\"a\":1}");
  EXPECT_THROW((void)api::get_string(typed, "a"), api::WireError);
  EXPECT_THROW((void)api::get_bool(typed, "a"), api::WireError);
  EXPECT_THROW((void)api::get_number(typed, "missing"), api::WireError);
}

TEST(Wire, FramesRoundTripAndOversizeIsRejected) {
  const std::string frame = api::encode_frame("{\"op\":\"info\"}");
  ASSERT_EQ(frame.size(), 4u + 13u);
  const auto* header = reinterpret_cast<const unsigned char*>(frame.data());
  EXPECT_EQ(api::decode_frame_length(header), 13u);
  EXPECT_EQ(frame.substr(4), "{\"op\":\"info\"}");

  const unsigned char oversized[4] = {0x7f, 0xff, 0xff, 0xff};
  EXPECT_THROW((void)api::decode_frame_length(oversized), api::WireError);
  EXPECT_THROW((void)api::encode_frame(
                   std::string(api::kMaxFrameBytes + 1, 'x')),
               api::WireError);
}

// --- Golden transcripts through handle_query -------------------------------

TEST(ServeProtocol, GoldenErrorTranscripts) {
  api::Session session = tiny_session();
  // Error responses are fully deterministic byte strings.
  EXPECT_EQ(api::handle_query(session, "{\"op\":\"bogus\"}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"unknown op 'bogus'\"}");
  EXPECT_EQ(api::handle_query(session, "{}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"wire: missing field 'op'\"}");
  EXPECT_EQ(api::handle_query(session, "not json"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"wire: expected '{'\"}");
  EXPECT_EQ(api::handle_query(session, "{\"op\":\"point\",\"x\":0.5}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"wire: missing field 'y'\"}");
  EXPECT_EQ(api::handle_query(
                session, "{\"op\":\"what_if\",\"action\":\"remove\",\"index\":2}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"wire: 'index' out of range\"}");
  EXPECT_EQ(api::handle_query(session,
                              "{\"op\":\"what_if\",\"action\":\"warp\"}"),
            "{\"ok\":false,\"schema\":\"fvc.query/1\","
            "\"error\":\"wire: unknown what_if action 'warp'\"}");
}

TEST(ServeProtocol, GoldenPointTranscript) {
  api::Session session = tiny_session();
  // (0.0625, 0.9375) is far outside both sensing disks: uncovered, zero
  // viewers, a full 2*pi gap.  Every byte of the response is pinned.
  const std::string response = api::handle_query(
      session, "{\"op\":\"point\",\"x\":0.0625,\"y\":0.9375}");
  EXPECT_EQ(response,
            "{\"ok\":true,\"schema\":\"fvc.query/1\",\"digest\":\"" +
                session.digest_hex() +
                "\",\"covered\":false,\"necessary\":false,"
                "\"sufficient\":false,\"max_gap\":6.2831853071795862,"
                "\"covering_count\":0}");
}

TEST(ServeProtocol, InfoAndWhatIfTranscriptsTrackTheSession) {
  api::Session session = tiny_session();
  const std::string base_hex = session.digest_hex();
  const api::WireObject info =
      api::parse_flat_object(api::handle_query(session, "{\"op\":\"info\"}"));
  EXPECT_TRUE(api::get_bool(info, "ok"));
  EXPECT_EQ(api::get_string(info, "schema"), api::kQuerySchema);
  EXPECT_EQ(api::get_string(info, "digest"), base_hex);
  EXPECT_EQ(api::get_number(info, "cameras"), 2.0);
  EXPECT_EQ(api::get_number(info, "theta"), geom::kHalfPi);
  EXPECT_EQ(api::get_number(info, "grid_side"), 16.0);
  EXPECT_EQ(api::get_number(info, "tile_rows"), 4.0);

  const api::WireObject added = api::parse_flat_object(api::handle_query(
      session,
      "{\"op\":\"what_if\",\"action\":\"add\",\"x\":0.5,\"y\":0.5,"
      "\"radius\":0.25,\"fov\":2.0}"));
  EXPECT_TRUE(api::get_bool(added, "ok"));
  EXPECT_EQ(api::get_number(added, "cameras"), 3.0);
  EXPECT_NE(api::get_string(added, "digest"), base_hex);

  // Index-only move is the documented no-op: absent fields keep the
  // camera, so the content digest is unchanged.
  const api::WireObject moved = api::parse_flat_object(api::handle_query(
      session, "{\"op\":\"what_if\",\"action\":\"move\",\"index\":2}"));
  EXPECT_EQ(api::get_string(moved, "digest"), api::get_string(added, "digest"));

  const api::WireObject removed = api::parse_flat_object(api::handle_query(
      session, "{\"op\":\"what_if\",\"action\":\"remove\",\"index\":2}"));
  EXPECT_EQ(api::get_string(removed, "digest"), base_hex);
  EXPECT_EQ(api::get_number(removed, "cameras"), 2.0);
}

TEST(ServeProtocol, RegionTranscriptMatchesDirectQuery) {
  api::Session session = tiny_session();
  const api::RegionAnswer want = session.query_region(0.25, 0.75);
  const api::WireObject got = api::parse_flat_object(api::handle_query(
      session, "{\"op\":\"region\",\"y_lo\":0.25,\"y_hi\":0.75}"));
  EXPECT_TRUE(api::get_bool(got, "ok"));
  EXPECT_EQ(api::get_number(got, "row_begin"),
            static_cast<double>(want.row_begin));
  EXPECT_EQ(api::get_number(got, "row_end"), static_cast<double>(want.row_end));
  EXPECT_EQ(api::get_number(got, "total_points"),
            static_cast<double>(want.stats.total_points));
  EXPECT_EQ(api::get_number(got, "covered_1"),
            static_cast<double>(want.stats.covered_1));
  EXPECT_EQ(api::get_number(got, "full_view_ok"),
            static_cast<double>(want.stats.full_view_ok));
  // %.17g wire doubles round-trip: bit-equality, not tolerance.
  EXPECT_EQ(api::get_number(got, "min_max_gap"), want.stats.min_max_gap);
  EXPECT_EQ(api::get_number(got, "max_max_gap"), want.stats.max_max_gap);
}

// --- Live-socket behaviour -------------------------------------------------

TEST(ServeProtocol, SocketAnswersMatchHandleQuery) {
  api::Session reference = tiny_session();
  api::Session served = tiny_session();
  ServeFixture daemon(served, "answers");
  api::Client client = connect_with_retry(daemon.path());
  const std::vector<std::string> transcript = {
      "{\"op\":\"info\"}",
      "{\"op\":\"point\",\"x\":0.0625,\"y\":0.9375}",
      "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}",
      "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}",
      "{\"op\":\"bogus\"}",
  };
  for (const std::string& request : transcript) {
    // Not merely equivalent: byte-identical to the in-process answer.
    // (Cache-effectiveness fields also agree because both sessions see
    // the identical request sequence.)
    EXPECT_EQ(client.request(request), api::handle_query(reference, request))
        << request;
  }
  daemon.drain();
  EXPECT_EQ(daemon.report().connections, 1u);
  EXPECT_EQ(daemon.report().requests, transcript.size());
  EXPECT_EQ(daemon.report().errors, 1u);  // the bogus op
}

TEST(ServeProtocol, MalformedFrameGetsErrorResponseAndConnectionSurvives) {
  api::Session served = tiny_session();
  ServeFixture daemon(served, "malformed");
  api::Client client = connect_with_retry(daemon.path());
  const std::string garbage = client.request("this is not json");
  EXPECT_EQ(garbage.rfind("{\"ok\":false", 0), 0u) << garbage;
  // The framing layer is intact, so the connection keeps serving.
  const std::string info = client.request("{\"op\":\"info\"}");
  EXPECT_EQ(info.rfind("{\"ok\":true", 0), 0u) << info;
}

TEST(ServeProtocol, OversizedFramePrefixDropsTheConnection) {
  api::Session served = tiny_session();
  ServeFixture daemon(served, "oversized");
  api::Client client = connect_with_retry(daemon.path());
  // A hostile length prefix (2 GiB) must close the connection before any
  // body allocation, not be served and not crash the daemon.
  const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(client.fd(), header, sizeof header, MSG_NOSIGNAL), 4);
  char byte = 0;
  EXPECT_EQ(::recv(client.fd(), &byte, 1, 0), 0);  // EOF: dropped

  // The daemon itself outlives the hostile client.
  api::Client again = connect_with_retry(daemon.path());
  EXPECT_EQ(again.request("{\"op\":\"info\"}").rfind("{\"ok\":true", 0), 0u);
}

TEST(ServeProtocol, ConcurrentClientsGetDeterministicAnswers) {
  api::Session reference = tiny_session();
  const std::string point_request = "{\"op\":\"point\",\"x\":0.25,\"y\":0.375}";
  const std::string region_request = "{\"op\":\"region\",\"y_lo\":0,\"y_hi\":1}";
  const std::string point_want = api::handle_query(reference, point_request);
  const api::WireObject region_want =
      api::parse_flat_object(api::handle_query(reference, region_request));
  const std::string digest = api::get_string(region_want, "digest");

  api::Session served = tiny_session();
  ServeFixture daemon(served, "concurrent");
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 25;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      api::Client client = connect_with_retry(daemon.path());
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Client 0 interleaves no-op moves — real what-if traffic that
        // must not perturb anyone's answers or the digest.
        if (c == 0 && r % 5 == 0) {
          const api::WireObject moved = api::parse_flat_object(client.request(
              "{\"op\":\"what_if\",\"action\":\"move\",\"index\":1}"));
          if (api::get_string(moved, "digest") != digest) {
            mismatches.fetch_add(1);
          }
          continue;
        }
        if (r % 2 == 0) {
          if (client.request(point_request) != point_want) {
            mismatches.fetch_add(1);
          }
        } else {
          const api::WireObject region =
              api::parse_flat_object(client.request(region_request));
          // Coverage fields must be bit-identical; cache-effectiveness
          // fields legitimately vary with interleaving.
          for (const char* field :
               {"digest", "row_begin", "row_end", "total_points", "covered_1",
                "necessary_ok", "full_view_ok", "sufficient_ok",
                "k_covered_ok", "min_max_gap", "max_max_gap"}) {
            const auto& want = region_want.at(field);
            const auto& got = region.at(field);
            if (got.kind != want.kind || got.number != want.number ||
                got.string != want.string) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  daemon.drain();
  EXPECT_EQ(daemon.report().connections, kClients);
  EXPECT_EQ(daemon.report().requests, kClients * kRounds);
  EXPECT_EQ(daemon.report().errors, 0u);
}

TEST(ServeProtocol, DrainClosesClientsAndUnlinksTheSocket) {
  api::Session served = tiny_session();
  auto daemon = std::make_unique<ServeFixture>(served, "drain");
  api::Client client = connect_with_retry(daemon->path());
  EXPECT_EQ(client.request("{\"op\":\"info\"}").rfind("{\"ok\":true", 0), 0u);
  const std::string path = daemon->path();
  daemon->drain();
  // The idle connection was closed by the drain (EOF at a frame
  // boundary — the documented "daemon is gone" signal)...
  EXPECT_FALSE(api::read_frame(client.fd()).has_value());
  // ...and the socket file is gone: fresh connects are refused.
  EXPECT_THROW((void)api::Client(path), std::runtime_error);
}

}  // namespace
}  // namespace fvc
