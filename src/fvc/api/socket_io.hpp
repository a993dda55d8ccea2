/// \file socket_io.hpp
/// \brief Blocking AF_UNIX socket plumbing shared by the serve daemon and
/// its clients (tests, perfbench, fvc top).
///
/// Frames are read and written whole (read_frame / write_frame), with the
/// length prefix validated by wire.hpp before any body allocation.  All
/// functions work on raw fds wrapped in ScopedFd so every exit path closes;
/// writes use MSG_NOSIGNAL, so a peer hanging up surfaces as an error
/// return instead of SIGPIPE killing the daemon.

#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace fvc::api {

/// Owning file descriptor (move-only, closes on destruction).
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept;
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { reset(); }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Create, bind and listen on an AF_UNIX stream socket at `path` (any
/// stale socket file is unlinked first).  \throws std::runtime_error.
[[nodiscard]] ScopedFd unix_listen(const std::string& path, int backlog);

/// Connect to the AF_UNIX stream socket at `path`.
/// \throws std::runtime_error when the daemon is not there.
[[nodiscard]] ScopedFd unix_connect(const std::string& path);

/// Wait up to `timeout_ms` for `fd` to become readable.  Error states
/// (POLLERR / POLLNVAL / POLLHUP) count as readable on purpose: the
/// subsequent read surfaces the error or EOF and the caller closes
/// cleanly.  Treating them as "not readable" would make a poll loop
/// busy-spin at 100% CPU — poll returns instantly with revents the
/// caller keeps rejecting (the bug this helper replaces).
[[nodiscard]] bool poll_readable(int fd, int timeout_ms);

/// Read one length-prefixed frame.  Returns nullopt on clean EOF before
/// any prefix byte; \throws WireError on a truncated frame or an
/// oversized/invalid length prefix, std::runtime_error on socket errors.
[[nodiscard]] std::optional<std::string> read_frame(int fd);

/// Write one length-prefixed frame.  \throws WireError when the payload
/// exceeds the frame bound, std::runtime_error when the peer is gone.
void write_frame(int fd, std::string_view payload);

}  // namespace fvc::api
