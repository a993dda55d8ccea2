/// \file commands.hpp
/// \brief The fvc_sim subcommand implementations, as a library.
///
/// Keeping the handlers out of main() makes them unit-testable: each takes
/// a CommandContext (parsed args, report stream, metrics tree, cancellation
/// token — see command_context.hpp) and returns a process exit code.
/// Errors surface as exceptions; the binary's main() catches and reports.
/// The flag tables live in command_registry.hpp; run_command glues them
/// together (allowlist check, root span, --metrics JSON export).

#pragma once

#include <iosfwd>

#include "fvc/cli/args.hpp"
#include "fvc/cli/command_context.hpp"
#include "fvc/cli/exit_codes.hpp"
#include "fvc/experiments/experiments.hpp"

namespace fvc::cli {

/// Request cooperative stop on the command currently inside run_command,
/// if any.  Async-signal-safe (one atomic load and one relaxed store) —
/// this is the SIGINT trampoline target for tools/fvc_sim.cpp.
void request_active_command_stop();

/// Print the usage text (generated from the command registry).
void print_help(std::ostream& out);

/// Theorems 1-2 thresholds for (n, theta).
int cmd_csa(CommandContext& ctx);

/// Inverse design: radius (and population when --radius given).
int cmd_plan(CommandContext& ctx);

/// Monte-Carlo grid-event probabilities.
int cmd_simulate(CommandContext& ctx);

/// Theorems 3-4 closed forms.
int cmd_poisson(CommandContext& ctx);

/// Exact per-point law (Stevens mixture) next to the two sector bounds.
int cmd_exact(CommandContext& ctx);

/// Phase scan of q = s_c/s_Nc.
int cmd_phase(CommandContext& ctx);

/// Repeated noisy-bisection threshold location (shardable per repeat).
int cmd_threshold(CommandContext& ctx);

/// Fold shard checkpoints into one final report (refuses mismatches).
int cmd_merge_shards(CommandContext& ctx);

/// ASCII coverage heatmap of one deployment (optionally saved/loaded).
int cmd_map(CommandContext& ctx);

/// Full-view barrier coverage of a strip for one deployment.
int cmd_barrier(CommandContext& ctx);

/// Along-path capture audit for random intruder walks.
int cmd_track(CommandContext& ctx);

/// Greedy hole repair: patch a deployment up to full-view coverage.
int cmd_repair(CommandContext& ctx);

/// One-shot orientation optimization of a deployment.
int cmd_aim(CommandContext& ctx);

/// Run one registered experiment of EXPERIMENTS.md by --id and print its
/// report; with no --id, or an unknown one, list the IDs and fail.
int cmd_experiment(CommandContext& ctx);

/// Run `e` and print its report; kExitFailure when any shape check fails.
int report_experiment(const experiments::Experiment& e, std::ostream& out);

/// Hot-engine coverage query daemon over a local socket (fvc.query/1).
int cmd_serve(CommandContext& ctx);

/// Live telemetry view of a running daemon (polls the `stats` verb).
int cmd_top(CommandContext& ctx);

/// Dispatch on args.command(); empty command prints help and returns
/// failure, "help" prints help and succeeds, unknown commands report and
/// fail.  Builds the CommandContext, enforces the registry's flag
/// allowlist, wraps the handler in the root span, and — when --metrics
/// FILE was given — writes the fvc.metrics/1 JSON document to FILE.
int run_command(const Args& args, std::ostream& out);

}  // namespace fvc::cli
