/// \file workloads.hpp
/// \brief The three workloads; each returns the process exit code.

#pragma once

#include "bench.hpp"

namespace pb {

/// The paper's Monte-Carlo phase scan across the s_Nc -> s_Sc gap.
int run_mc_phase(const Options& opt);
/// One million-camera deployment scanned whole, at 4 threads.
int run_region_scan(const Options& opt);
/// Mixed open-loop and closed-loop traffic against a fresh daemon.
int run_serve_mix(const Options& opt);

}  // namespace pb
