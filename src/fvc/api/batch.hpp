/// \file batch.hpp
/// \brief Group-commit batching of point queries for the serve daemon.
///
/// The daemon's hottest op is `point`, and every request serializes on
/// one session mutex — so N concurrent clients pay N kernel dispatches,
/// N digest renders, and N lock hand-offs for work the SIMD engine could
/// answer in one fused pass.  `PointBatcher` coalesces them: a handler
/// thread with point work enqueues a waiter; whichever waiter finds no
/// round in progress elects itself *leader*, drains the queue (up to
/// `kMaxPoints`), evaluates every queued point with ONE
/// `Session::query_points` call under the session mutex, scatters the
/// answers back, and wakes the *followers*, which were blocked on their
/// waiter's completion flag.  It is the daemon's only route for point
/// work.
///
/// Latency contract: a leader never lingers.  When a single request is
/// pending it drains a queue of one and evaluates immediately, paying
/// one mutex/condvar pair; coalescing comes from the waiters that pile
/// up while the previous round holds the session mutex.
///
/// Bit-identity contract: batching changes *scheduling*, never results.
/// `Session::query_points` answers each point through
/// `GridEvalEngine::eval_point`, which is bit-identical to the scalar
/// oracle path behind `Session::query_point` (one candidate gather + one
/// sort feed all three predicates; the classify pipeline replicates the
/// oracle's IEEE operation sequence).  The round's digest is captured
/// under the same session-mutex hold that evaluates the points, so a
/// concurrent what-if edit can never tear a batch: every answer in a
/// round is consistent with the digest it reports.
///
/// Drain safety is structural: every enqueued waiter is evaluated by
/// *some* leader — itself, if nobody else is around — so a daemon drain
/// mid-batch flushes followers with answers, never EOF.  A throwing
/// round (cannot happen for in-range points, but the contract holds
/// regardless) fails every waiter of that round with the error message;
/// the connection loops turn it into `ok:false` responses.
///
/// Thread-safety: all public methods are safe to call from any handler
/// thread.  The internal mutex guards only the queue and round state —
/// the kernel pass runs outside it (under the *session* mutex), so
/// enqueues proceed while a round computes; that overlap is what makes
/// coalescing effective under load.

#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include <condition_variable>

#include "fvc/api/session.hpp"
#include "fvc/obs/serve_stats.hpp"

namespace fvc::api {

/// The group-commit point batcher.  One instance per daemon run; holds
/// references to the session and its serializing mutex (both must
/// outlive the batcher).
class PointBatcher {
 public:
  /// Max points per kernel round.  A round always takes at least one
  /// waiter, even when that waiter alone exceeds the budget (a `points`
  /// array is never split across rounds).
  static constexpr std::size_t kMaxPoints = 256;

  PointBatcher(Session& session, std::mutex& session_mutex, obs::ServeStats* stats)
      : session_(session), session_mutex_(session_mutex), stats_(stats) {}

  PointBatcher(const PointBatcher&) = delete;
  PointBatcher& operator=(const PointBatcher&) = delete;

  /// Evaluate `n` points, blocking until some round (possibly led by
  /// this thread) answers them.  On return `out[0..n)` holds the
  /// answers; the result is the deployment digest the round ran
  /// against.  \throws std::runtime_error when the round failed.
  [[nodiscard]] std::string evaluate(const double* xs, const double* ys, std::size_t n,
                                     PointAnswer* out);

 private:
  struct Waiter {
    const double* xs = nullptr;
    const double* ys = nullptr;
    std::size_t n = 0;
    PointAnswer* out = nullptr;
    std::string digest;
    bool done = false;
    bool failed = false;
    std::string error;
  };

  /// Lead one round: drain the queue, run the kernel pass outside `lk`
  /// (under the session mutex), publish the answers.
  /// Called with `lk` held; returns with it held.
  void run_round(std::unique_lock<std::mutex>& lk);

  Session& session_;
  std::mutex& session_mutex_;
  obs::ServeStats* const stats_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Waiter*> queue_;
  bool leader_active_ = false;

  /// Round gather buffers, reused across rounds (only the leader touches
  /// them, and there is at most one leader at a time).
  std::vector<double> round_xs_;
  std::vector<double> round_ys_;
  std::vector<PointAnswer> round_answers_;
};

}  // namespace fvc::api
