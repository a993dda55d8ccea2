#include "fvc/api/batch.hpp"

#include <stdexcept>
#include <utility>

namespace fvc::api {

std::string PointBatcher::evaluate(const double* xs, const double* ys, std::size_t n,
                                   PointAnswer* out) {
  Waiter w;
  w.xs = xs;
  w.ys = ys;
  w.n = n;
  w.out = out;

  std::unique_lock<std::mutex> lk(mutex_);
  queue_.push_back(&w);
  // Every waiter loops until answered.  No round in progress means this
  // waiter leads one itself — so no waiter can be stranded: whoever is
  // last awake drains the queue (the structural drain-safety guarantee).
  while (!w.done) {
    if (!leader_active_) {
      run_round(lk);
    } else {
      cv_.wait(lk);
    }
  }
  if (w.failed) {
    throw std::runtime_error(w.error);
  }
  return std::move(w.digest);
}

void PointBatcher::run_round(std::unique_lock<std::mutex>& lk) {
  leader_active_ = true;
  // Drain FIFO up to the points budget; the head waiter is always taken
  // (a single oversized `points` array still runs, alone).
  std::vector<Waiter*> round;
  std::size_t total_points = 0;
  while (!queue_.empty()) {
    Waiter* head = queue_.front();
    if (!round.empty() && total_points + head->n > kMaxPoints) {
      break;
    }
    queue_.pop_front();
    round.push_back(head);
    total_points += head->n;
    if (total_points >= kMaxPoints) {
      break;
    }
  }

  // Gather every waiter's coordinates into one contiguous pair of spans:
  // the whole round is ONE Session::query_points call — one engine
  // dispatch, one digest render, one session-mutex hold.
  round_xs_.clear();
  round_ys_.clear();
  for (const Waiter* w : round) {
    round_xs_.insert(round_xs_.end(), w->xs, w->xs + w->n);
    round_ys_.insert(round_ys_.end(), w->ys, w->ys + w->n);
  }
  round_answers_.assign(total_points, PointAnswer{});

  lk.unlock();
  std::string digest;
  std::string failure;
  try {
    const std::lock_guard<std::mutex> session_lock(session_mutex_);
    digest = session_.digest_hex();
    session_.query_points(round_xs_.data(), round_ys_.data(), total_points,
                          round_answers_.data());
  } catch (const std::exception& e) {
    failure = e.what();
    if (failure.empty()) {
      failure = "batch round failed";
    }
  }
  if (stats_ != nullptr) {
    stats_->note_batch(round.size(), total_points);
  }
  lk.lock();

  std::size_t off = 0;
  for (Waiter* w : round) {
    if (failure.empty()) {
      for (std::size_t i = 0; i < w->n; ++i) {
        w->out[i] = round_answers_[off + i];
      }
      w->digest = digest;
    } else {
      w->failed = true;
      w->error = failure;
    }
    off += w->n;
    w->done = true;
  }
  leader_active_ = false;
  // Followers of this round wake to find done set; queued latecomers
  // wake to find no leader and elect themselves.
  cv_.notify_all();
}

}  // namespace fvc::api
