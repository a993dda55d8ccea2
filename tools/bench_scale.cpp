/// bench_scale — thread/grain scaling harness for the blocked parallel
/// grid scan.
///
/// Sweeps a (grid side, population) ladder through the block-parallel
/// entry point `sim::evaluate_region_parallel` over a threads x grain
/// matrix, timing each cell against the serial batched engine
/// (`core::evaluate_region`).  Both run the kernel variant the CPU
/// dispatches (cpu_features.hpp), which the record names.
/// Every cell's statistics must be bit-identical to the serial scan — a
/// mismatch is a nonzero exit, not a footnote.  Worker utilization per
/// cell comes from a metered pass taken outside the timed reps, so the
/// timings stay those of the unmetered hot path.
///
/// Per config the record also captures the candidate index: its build
/// time, its heap footprint, and the candidate-span distribution the
/// engine hands the kernel (`point_candidate_count` over every grid
/// point): mean and p99 candidates per point.  The p99 is what the CI
/// budget gate holds steady, catching a sizing-rule regression.
///
/// The deployment radius is scaled ~ 1/sqrt(n) so the expected candidate
/// count per grid point stays constant across the ladder: the sweep then
/// isolates *scheduling and index* behaviour, not density effects.
///
/// Usage:
///   bench_scale [out.json] [sides] [ns] [threads] [grains] [reps]
///     out.json  output path                    default BENCH_scale.json
///     sides     comma list of grid sides       default 512,1024,2048
///     ns        comma list of populations,     default 10000,100000,1000000
///               zipped with `sides` (the shorter list's last entry repeats)
///     threads   comma list of thread counts    default 1,2,4
///     grains    comma list of grains (0=auto)  default 1,0
///     reps      best-of repetitions per cell   default 3
///
/// The JSON record (schema fvc.bench_scale/3) keeps a one-entry `kernels`
/// list per config (the dispatched variant) and embeds hardware_concurrency
/// and a `degenerate_host` flag (<= 1 core): speedups are only meaningful
/// relative to the cores the run actually had.  When the output path
/// already holds a record produced on MORE cores than this host offers,
/// the tool refuses to overwrite it (a 1-core laptop must not clobber the
/// committed multi-core baseline); export FVC_BENCH_ALLOW_DEGRADE=1 to
/// override deliberately.  CI runs the smoke configuration on multi-core
/// runners and gates on the 2-thread wall time there.
///
/// Exit status: 0 on success, 1 on bit-identity violation, refused
/// overwrite, or bad usage.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fvc/core/cpu_features.hpp"
#include "fvc/core/grid_eval.hpp"
#include "fvc/core/region_coverage.hpp"
#include "fvc/deploy/uniform.hpp"
#include "fvc/geometry/angle.hpp"
#include "fvc/obs/run_metrics.hpp"
#include "fvc/obs/trace.hpp"
#include "fvc/sim/parallel_region.hpp"
#include "fvc/stats/rng.hpp"

namespace {

using namespace fvc;
using Clock = std::chrono::steady_clock;

double best_of_ms(std::size_t reps, const auto& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) {
      best = ms;
    }
  }
  return best;
}

bool same_stats(const core::RegionCoverageStats& a, const core::RegionCoverageStats& b) {
  return a.total_points == b.total_points && a.covered_1 == b.covered_1 &&
         a.necessary_ok == b.necessary_ok && a.full_view_ok == b.full_view_ok &&
         a.sufficient_ok == b.sufficient_ok && a.k_covered_ok == b.k_covered_ok &&
         a.min_max_gap == b.min_max_gap && a.max_max_gap == b.max_max_gap;
}

std::vector<std::size_t> parse_size_list(const std::string& arg, const char* what) {
  std::vector<std::size_t> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      continue;
    }
    const long long v = std::atoll(item.c_str());
    if (v < 0) {
      std::fprintf(stderr, "bench_scale: bad %s entry '%s'\n", what, item.c_str());
      std::exit(1);
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) {
    std::fprintf(stderr, "bench_scale: empty %s list\n", what);
    std::exit(1);
  }
  return out;
}

// hardware_concurrency recorded in an existing bench JSON, or nullopt.
// A line-oriented scan is enough: the tool wrote the file itself.
std::optional<unsigned> recorded_concurrency(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find("\"hardware_concurrency\":");
    if (pos != std::string::npos) {
      return static_cast<unsigned>(
          std::atoll(line.c_str() + pos + sizeof("\"hardware_concurrency\":") - 1));
    }
  }
  return std::nullopt;
}

struct Cell {
  std::size_t threads = 0;
  std::size_t grain = 0;       // requested (0 = auto)
  std::size_t grain_used = 0;  // what the scheduler ran with
  double ms = 0.0;
  double speedup = 0.0;
  double utilization = 0.0;
};

struct ConfigRecord {
  std::size_t side = 0;
  std::size_t n = 0;
  double radius_omni = 0.0;
  double radius_sector = 0.0;
  double build_ms = 0.0;
  double cand_mean = 0.0;
  double cand_p99 = 0.0;
  std::size_t index_bytes = 0;
  double serial_ms = 0.0;  // the serial batched engine
  std::vector<Cell> cells;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const std::vector<std::size_t> sides =
      parse_size_list(argc > 2 ? argv[2] : "512,1024,2048", "sides");
  const std::vector<std::size_t> ns =
      parse_size_list(argc > 3 ? argv[3] : "10000,100000,1000000", "ns");
  const std::vector<std::size_t> thread_list =
      parse_size_list(argc > 4 ? argv[4] : "1,2,4", "threads");
  const std::vector<std::size_t> grain_list =
      parse_size_list(argc > 5 ? argv[5] : "1,0", "grains");
  const std::size_t reps =
      std::max<std::size_t>(1, argc > 6 ? static_cast<std::size_t>(std::atoll(argv[6])) : 3);
  const double theta = geom::kPi / 4.0;

  const unsigned cores = std::thread::hardware_concurrency();
  const bool degenerate_host = cores <= 1;

  // A committed multi-core record must not be silently replaced by a run
  // from a weaker host — the scaling columns would regress for reasons
  // that have nothing to do with the code.
  if (const std::optional<unsigned> prev = recorded_concurrency(out_path);
      prev.has_value() && *prev > cores &&
      std::getenv("FVC_BENCH_ALLOW_DEGRADE") == nullptr) {
    std::fprintf(stderr,
                 "bench_scale: %s was recorded on %u cores, this host has %u — "
                 "refusing to overwrite (set FVC_BENCH_ALLOW_DEGRADE=1 to force)\n",
                 out_path.c_str(), *prev, cores);
    return 1;
  }

  const std::string kernel(core::kernel_name(core::resolve_kernel()));

  const std::size_t config_count = std::max(sides.size(), ns.size());
  std::vector<ConfigRecord> configs;
  bool all_identical = true;

  for (std::size_t c = 0; c < config_count; ++c) {
    ConfigRecord rec;
    rec.side = sides[std::min(c, sides.size() - 1)];
    rec.n = ns[std::min(c, ns.size() - 1)];
    if (rec.side == 0 || rec.n == 0) {
      std::fprintf(stderr, "bench_scale: sides and ns entries must be >= 1\n");
      return 1;
    }
    // Constant expected candidates per grid point across the ladder:
    // r ~ 1/sqrt(n), anchored at the n = 1000 reference deployment of
    // ParallelIdentity.ReferenceDeploymentEveryScanPathMatchesScalar.
    const double scale = std::sqrt(1000.0 / static_cast<double>(rec.n));
    rec.radius_omni = 0.08 * scale;
    rec.radius_sector = 0.12 * scale;
    const core::HeterogeneousProfile profile(std::vector<core::CameraGroupSpec>{
        {0.5, rec.radius_omni, geom::kTwoPi}, {0.5, rec.radius_sector, 2.0}});
    stats::Pcg32 rng = stats::make_child_rng(20250808, rec.n + rec.side);
    const core::Network net = deploy::deploy_uniform_network(profile, rec.n, rng);
    const core::DenseGrid grid(rec.side);
    std::printf("config: grid=%zux%zu n=%zu (r=%.4f/%.4f)\n", rec.side, rec.side,
                rec.n, rec.radius_omni, rec.radius_sector);

    // Index shape: build wall time, heap bytes, and the candidate-span
    // distribution the kernel sees (mean + p99 over every grid point).
    {
      const auto t0 = Clock::now();
      const core::GridEvalEngine engine(net, grid, theta);
      rec.build_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      rec.index_bytes = engine.index_bytes();
      core::GridEvalScratch scratch;
      std::vector<std::uint32_t> counts;
      counts.reserve(rec.side * rec.side);
      std::uint64_t total = 0;
      for (std::size_t row = 0; row < rec.side; ++row) {
        for (std::size_t col = 0; col < rec.side; ++col) {
          const std::size_t w = engine.point_candidate_count(row, col, scratch);
          counts.push_back(static_cast<std::uint32_t>(w));
          total += w;
        }
      }
      std::sort(counts.begin(), counts.end());
      rec.cand_mean = static_cast<double>(total) / static_cast<double>(counts.size());
      rec.cand_p99 = static_cast<double>(counts[(counts.size() - 1) * 99 / 100]);
    }
    std::printf("  index build %8.3f ms, %.1f cand/pt mean, %.0f p99, %zu KiB\n",
                rec.build_ms, rec.cand_mean, rec.cand_p99, rec.index_bytes / 1024);

    core::RegionCoverageStats serial_stats;
    rec.serial_ms = best_of_ms(
        reps, [&] { serial_stats = core::evaluate_region(net, grid, theta); });
    std::printf("    kernel=%-7s serial %9.3f ms\n", kernel.c_str(), rec.serial_ms);

    for (const std::size_t threads : thread_list) {
      for (const std::size_t grain : grain_list) {
        Cell cell;
        cell.threads = threads;
        cell.grain = grain;
        core::RegionCoverageStats par_stats;
        cell.ms = best_of_ms(reps, [&] {
          par_stats = sim::evaluate_region_parallel(net, grid, theta, threads, grain);
        });
        if (!same_stats(serial_stats, par_stats)) {
          std::fprintf(stderr,
                       "bench_scale: FAIL — threads=%zu grain=%zu kernel=%s "
                       "differs from the serial scan\n",
                       threads, grain, kernel.c_str());
          all_identical = false;
        }
        // Metered pass, outside the timed reps: utilization + the grain
        // the scheduler actually used; must still be bit-identical.
        obs::MetricsNode node("scan");
        const core::RegionCoverageStats metered_stats =
            sim::evaluate_region_parallel(net, grid, theta, threads, grain, &node);
        if (!same_stats(serial_stats, metered_stats)) {
          std::fprintf(stderr,
                       "bench_scale: FAIL — metered threads=%zu grain=%zu "
                       "kernel=%s differs from the serial scan\n",
                       threads, grain, kernel.c_str());
          all_identical = false;
        }
        const obs::MetricsNode* pool = node.find_child("pool");
        cell.utilization = pool != nullptr ? pool->counter("utilization") : 0.0;
        cell.grain_used =
            pool != nullptr ? static_cast<std::size_t>(pool->counter("grain")) : 0;
        cell.speedup = cell.ms > 0.0 ? rec.serial_ms / cell.ms : 0.0;
        std::printf("      threads=%zu grain=%zu(->%zu): %9.3f ms  (%.2fx, util %.2f)\n",
                    threads, grain, cell.grain_used, cell.ms, cell.speedup,
                    cell.utilization);
        rec.cells.push_back(cell);
      }
    }
    configs.push_back(std::move(rec));
  }

  std::ostringstream record;
  char buf[512];
  record << "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"schema\": \"fvc.bench_scale/3\",\n"
                "  \"bench\": \"blocked_parallel_grid_scan\",\n"
                "  \"theta\": \"pi/4\",\n"
                "  \"reps\": %zu,\n"
                "  \"hardware_concurrency\": %u,\n"
                "  \"degenerate_host\": %s,\n"
                "  \"tracing_compiled\": %s,\n"
                "  \"results_bit_identical\": %s,\n",
                reps, cores, degenerate_host ? "true" : "false",
                obs::kTraceEnabled ? "true" : "false",
                all_identical ? "true" : "false");
  record << buf;
  record << "  \"configs\": [\n";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const ConfigRecord& rec = configs[c];
    std::snprintf(buf, sizeof(buf),
                  "    {\n"
                  "      \"grid_side\": %zu,\n"
                  "      \"n\": %zu,\n"
                  "      \"radius_omni\": %.6f,\n"
                  "      \"radius_sector\": %.6f,\n"
                  "      \"build_ms\": %.3f,\n"
                  "      \"cand_mean\": %.2f,\n"
                  "      \"cand_p99\": %.0f,\n"
                  "      \"index_bytes\": %zu,\n",
                  rec.side, rec.n, rec.radius_omni, rec.radius_sector, rec.build_ms,
                  rec.cand_mean, rec.cand_p99, rec.index_bytes);
    record << buf;
    record << "      \"kernels\": [\n";
    std::snprintf(buf, sizeof(buf),
                  "        {\"kernel\": \"%s\", \"serial_ms\": %.3f, \"cells\": [\n",
                  kernel.c_str(), rec.serial_ms);
    record << buf;
    for (std::size_t i = 0; i < rec.cells.size(); ++i) {
      const Cell& cell = rec.cells[i];
      std::snprintf(buf, sizeof(buf),
                    "          {\"threads\": %zu, \"grain\": %zu, "
                    "\"grain_used\": %zu, \"ms\": %.3f, \"speedup\": %.2f, "
                    "\"utilization\": %.3f}%s\n",
                    cell.threads, cell.grain, cell.grain_used, cell.ms, cell.speedup,
                    cell.utilization, i + 1 < rec.cells.size() ? "," : "");
      record << buf;
    }
    record << "        ]}\n";
    record << "      ]\n";
    record << "    }" << (c + 1 < configs.size() ? "," : "") << "\n";
  }
  record << "  ]\n";
  record << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_scale: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << record.str();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_scale: failed writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
