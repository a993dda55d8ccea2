/// perfbench — the repository benchmark's measuring program.
///
/// Usage (normally through perfbench/run.py, which builds it):
///   perfbench --workload mc_phase|region_scan|serve_mix --seed N --seconds S
///             --trace 0|1 --fvc-sim PATH --out-dir DIR --reference FILE
///             [--smoke] [--corrupt-reference] [--record-reference]
///             [--source-digest HEX] [--git-rev REV]
///
/// Prints a human-readable block, writes a record (and with --trace 1 a
/// span file) under --out-dir, and ends with one JSON line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Exit status: 0 when every output check passed, 1 on any failure, 2 on
/// bad usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--fvc-sim") {
      opt.fvc_sim = value();
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else if (a == "--reference") {
      opt.reference = value();
    } else if (a == "--source-digest") {
      opt.source_digest = value();
    } else if (a == "--git-rev") {
      opt.git_rev = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else if (a == "--record-reference") {
      opt.record_reference = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.out_dir.empty() || opt.fvc_sim.empty() || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --out-dir, --fvc-sim and --seconds > 0 are required\n");
    return 2;
  }
  try {
    if (opt.workload == "mc_phase") {
      return pb::run_mc_phase(opt);
    }
    if (opt.workload == "region_scan") {
      return pb::run_region_scan(opt);
    }
    if (opt.workload == "serve_mix") {
      return pb::run_serve_mix(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
