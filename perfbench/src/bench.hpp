/// \file bench.hpp
/// \brief Shared plumbing of the repository benchmark: options, the result
/// record, order statistics, and the span tracer.
///
/// Every workload fills one `Result`: end-to-end metrics (the names
/// BENCHMARK.json lists, printed in the final JSON line of an untraced
/// run), per-layer metrics (printed in the final line of a traced run),
/// workload-specific aliases (human-readable only), output checks, and a
/// context block.  Spans wrap calls into the library's public layers; they
/// always time the call and, when tracing is on, are kept in memory and
/// written out when the run ends.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;              ///< tiny sizes, for the self-check
  bool corrupt_reference = false;  ///< flip one reference value (self-check)
  std::string fvc_sim;             ///< path of the fvc_sim daemon binary
  std::string out_dir;             ///< records, traces, sockets, scratch files
  std::string reference;           ///< recorded reference tallies (JSON)
  std::string source_digest;       ///< content digest of the sources built
  std::string git_rev;             ///< git revision, or "unknown"
  bool record_reference = false;   ///< print this seed's reference entry
};

// ---- order statistics ------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, p in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double p);
/// The highest percentile (at most the 99th) that still has at least ten
/// samples beyond it; the median when the sample is too small for that.
[[nodiscard]] double tail(std::vector<double> v);
/// The percentile `tail` reports for `n` samples, in [50, 99].
[[nodiscard]] double tail_percentile(std::size_t n);

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();

// ---- result record ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void end_to_end(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A workload-specific name for an end-to-end quantity (printed only).
  void alias(std::string name, double value, std::string unit) {
    aliases_.push_back({std::move(name), value, std::move(unit)});
  }
  void context(std::string key, std::string value) {
    context_.emplace_back(std::move(key), std::move(value));
  }
  /// Count `attempted` operations of which `failed` failed or mismatched.
  void tally(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  /// One checked output.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Print the human-readable block, write the record file, and print the
  /// final JSON line.  Returns the process exit code.
  int finish(const Options& opt);

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<Metric> aliases_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Context every record carries: host, build and input identity.
void add_context(Result& r, const Options& opt);

// ---- recorded references ---------------------------------------------------

/// Key of a workload's reference entry for this seed and size.
[[nodiscard]] std::string reference_key(const Options& opt);
/// The recorded reference values for `reference_key(opt)`, or empty when
/// this seed was never recorded.  `--corrupt-reference` perturbs the first
/// value, which the run must then report as a failure.
[[nodiscard]] std::vector<double> load_reference(const Options& opt);
/// In `--record-reference` mode, print the entry for the reference file.
void print_reference(const Options& opt, const std::vector<double>& values);

// ---- tracing ---------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request id shared by a request's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-wide span store.  Thread-safe; spans are appended on close.
class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  [[nodiscard]] std::uint64_t next_id();
  void add(const SpanRecord& rec);
  /// Durations (ns) of every recorded span with this name.
  [[nodiscard]] std::vector<double> durations_ns(const char* name) const;
  /// Write the spans as JSON lines plus a per-name summary with self time
  /// (duration minus the part covered by child spans); returns the path.
  std::string write(const std::string& path) const;
  /// Per-name count / total / self milliseconds, one line each.
  void print_summary() const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_ = 1;
};

/// RAII span around one public-layer call.  Always timed (two clock
/// reads); recorded only while tracing is on.  The parent defaults to the
/// innermost open span of the calling thread.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};
  explicit Span(const char* name, std::uint64_t req = 0,
                std::uint64_t parent = kInherit);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }
  /// Close now; returns the duration in ns (idempotent).
  std::uint64_t stop();
  [[nodiscard]] std::uint64_t id() const { return rec_.id; }
  [[nodiscard]] std::uint64_t start_ns() const { return rec_.start_ns; }

 private:
  SpanRecord rec_;
  bool open_ = true;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace pb
