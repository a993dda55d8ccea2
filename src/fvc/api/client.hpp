/// \file client.hpp
/// \brief Minimal blocking fvc.query/1 client (tests, perfbench, fvc top).
///
/// One connection, synchronous request/response.  The daemon serializes
/// Session access anyway, so a caller that wants concurrency opens more
/// clients instead of pipelining one.

#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "fvc/api/socket_io.hpp"

namespace fvc::api {

/// Render a `{"op":"points",...}` request body from parallel coordinate
/// arrays (%.17g doubles, like every wire number).  Callers keep the cap
/// in mind: kMaxPointsPerRequest points per request.
[[nodiscard]] std::string points_request(std::span<const double> xs,
                                         std::span<const double> ys);

/// A connected fvc.query/1 client.
class Client {
 public:
  /// Connect to the daemon at `socket_path`.
  /// \throws std::runtime_error when nothing is listening.
  explicit Client(const std::string& socket_path)
      : fd_(unix_connect(socket_path)) {}

  /// Send one request body, return the response body.
  /// \throws std::runtime_error when the daemon hangs up mid-exchange.
  [[nodiscard]] std::string request(std::string_view body);

  /// Like `request`, but a daemon that drained (EOF instead of a
  /// response) yields nullopt rather than a throw — the expected shape
  /// of a SIGINT'd server under load.
  [[nodiscard]] std::optional<std::string> try_request(std::string_view body);

  /// The raw fd (protocol tests inject malformed bytes directly).
  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  ScopedFd fd_;
};

}  // namespace fvc::api
