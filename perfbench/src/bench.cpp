#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "fvc/api/wire.hpp"
#include "fvc/core/candidate_index.hpp"
#include "fvc/core/cpu_features.hpp"
#include "fvc/obs/trace.hpp"

namespace pb {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double tail_percentile(std::size_t n) {
  if (n == 0) {
    return 50.0;
  }
  // Ten samples beyond the percentile p means n * (1 - p) >= 10.
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::clamp(std::floor(p), 50.0, 99.0);
}

double tail(std::vector<double> v) {
  const double p = tail_percentile(v.size());
  return quantile(std::move(v), p / 100.0);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- result ------------------------------------------------------------------

void Result::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
    std::fprintf(stderr, "perfbench: FAIL %s: %llu of %llu\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(ms[i].name) + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" + json_escape(ms[i].unit) +
           "\"}";
  }
  return out + "}";
}

void print_block(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int Result::finish(const Options& opt) {
  // Non-finite values would make the record unparseable; they are failures.
  for (const std::vector<Metric>* ms : {&e2e_, &layers_}) {
    for (const Metric& m : *ms) {
      if (!std::isfinite(m.value)) {
        tally(1, 1, "metric " + m.name + " is not finite");
      }
    }
  }
  const double fail_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                     : 1.0;
  if (attempted_ == 0) {
    failures_.push_back("nothing attempted");
  }
  const bool correct = failed_ == 0 && attempted_ > 0;

  std::printf("workload %s  seed %llu  trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf("context\n");
  for (const auto& [k, v] : context_) {
    std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  }
  print_block("end-to-end", e2e_);
  print_block("workload names", aliases_);
  std::printf("  %-28s %16.6g %s\n", "fail_ratio", fail_ratio, "ratio");
  if (!layers_.empty()) {
    print_block("per-layer", layers_);
  }

  // The record: context, every metric, every failure.
  std::string rec = "{\"schema\": \"fvc.perfbench/1\", \"workload\": \"" +
                    json_escape(opt.workload) + "\", \"seed\": " +
                    std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "true" : "false") +
                    ", \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    rec += (i ? ", \"" : "\"") + json_escape(context_[i].first) + "\": \"" +
           json_escape(context_[i].second) + "\"";
  }
  rec += "}, \"end_to_end\": " + metrics_object(e2e_) +
         ", \"aliases\": " + metrics_object(aliases_) +
         ", \"per_layer\": " + metrics_object(layers_) +
         ", \"fail_ratio\": " + json_number(fail_ratio) +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    rec += (i ? ", \"" : "\"") + json_escape(failures_[i]) + "\"";
  }
  rec += "]}\n";
  const std::string path = opt.out_dir + "/record-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + (opt.trace ? "-trace" : "") +
                           ".json";
  std::ofstream(path) << rec;
  std::printf("record %s\n", path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics_object(opt.trace ? layers_ : e2e_).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void add_context(Result& r, const Options& opt) {
  r.context("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.context("kernel", std::string(fvc::core::kernel_name(fvc::core::resolve_kernel())));
  r.context("index", std::string(fvc::core::index_name(fvc::core::resolve_index())));
  r.context("fvc_tracing_compiled", fvc::obs::kTraceEnabled ? "true" : "false");
  r.context("git_rev", opt.git_rev);
  r.context("source_digest", opt.source_digest);
  r.context("seed", std::to_string(opt.seed));
  r.context("seconds", std::to_string(opt.seconds));
  r.context("smoke", opt.smoke ? "true" : "false");
}

// ---- references ----------------------------------------------------------------

std::string reference_key(const Options& opt) {
  return opt.workload + (opt.smoke ? ".smoke" : "") + ".seed" + std::to_string(opt.seed);
}

std::vector<double> load_reference(const Options& opt) {
  std::ifstream in(opt.reference);
  if (!in) {
    return {};
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const fvc::api::WireObject obj = fvc::api::parse_flat_object(text);
  const auto it = obj.find(reference_key(opt));
  if (it == obj.end() || it->second.kind != fvc::api::WireValue::Kind::kNumbers) {
    return {};
  }
  std::vector<double> v = it->second.numbers;
  if (opt.corrupt_reference && !v.empty()) {
    v[0] += 1.0;
  }
  return v;
}

void print_reference(const Options& opt, const std::vector<double>& values) {
  if (!opt.record_reference) {
    return;
  }
  std::string line = "reference \"" + reference_key(opt) + "\": [";
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
    line += buf;
  }
  std::printf("%s]\n", line.c_str());
}

// ---- tracer ------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

void Tracer::add(const SpanRecord& rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
}

std::vector<double> Tracer::durations_ns(const char* name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

namespace {

struct NameSummary {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name totals; self time subtracts each span's direct children.
std::map<std::string, NameSummary> summarize(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, NameSummary> out;
  for (const SpanRecord& s : spans) {
    NameSummary& n = out[s.name];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    ++n.count;
    n.total_ms += ms;
    const auto it = child_ms.find(s.id);
    n.self_ms += std::max(0.0, ms - (it == child_ms.end() ? 0.0 : it->second));
  }
  return out;
}

}  // namespace

std::string Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const SpanRecord& s : spans_) {
    origin = std::min(origin, s.start_ns);
  }
  char buf[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"req\": %llu, "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.req),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - origin) * 1e-3);
    out << buf;
  }
  for (const auto& [name, n] : summarize(spans_)) {
    std::snprintf(buf, sizeof buf,
                  "{\"summary\": \"%s\", \"count\": %llu, \"total_ms\": %.3f, "
                  "\"self_ms\": %.3f}\n",
                  name.c_str(), static_cast<unsigned long long>(n.count), n.total_ms,
                  n.self_ms);
    out << buf;
  }
  return path;
}

void Tracer::print_summary() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::printf("spans (name, count, total ms, self ms)\n");
  for (const auto& [name, n] : summarize(spans_)) {
    std::printf("  %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(n.count), n.total_ms, n.self_ms);
  }
}

Span::Span(const char* name, std::uint64_t req, std::uint64_t parent) {
  rec_.name = name;
  rec_.req = req;
  Tracer& t = Tracer::get();
  if (t.enabled()) {
    rec_.id = t.next_id();
    rec_.parent = parent == kInherit ? t_current_span : parent;
    saved_parent_ = t_current_span;
    t_current_span = rec_.id;
  }
  rec_.start_ns = now_ns();
}

std::uint64_t Span::stop() {
  if (open_) {
    open_ = false;
    rec_.end_ns = now_ns();
    if (rec_.id != 0) {
      t_current_span = saved_parent_;
      Tracer::get().add(rec_);
    }
  }
  return rec_.end_ns - rec_.start_ns;
}

}  // namespace pb
