#include "fvc/cli/command_registry.hpp"

#include <algorithm>
#include <ostream>

#include "fvc/cli/commands.hpp"

namespace fvc::cli {

const std::vector<CommandSpec>& command_table() {
  static const std::vector<CommandSpec> table = {
      {"csa",
       "print s_Nc and s_Sc (Theorems 1 and 2)",
       &cmd_csa,
       {{"n", "N", "1000", "population size"},
        {"theta", "RAD", "0.785", "effective angle"}}},
      {"plan",
       "radius needed to hit margin * s_Sc; population for a fixed --radius",
       &cmd_plan,
       {{"n", "N", "1000", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"margin", "X", "1.5", "target multiple of s_Sc"},
        {"radius", "R", "", "also size the population for this fixed radius"}}},
      {"simulate",
       "Monte-Carlo P(H_N), P(full view), P(H_S)",
       &cmd_simulate,
       {{"n", "N", "500", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"trials", "T", "40", "Monte-Carlo trials"},
        {"seed", "S", "1", "master RNG seed"},
        {"poisson", "0|1", "0", "Poisson deployment instead of uniform"},
        {"grid-side", "M", "", "grid side override (default: n log n rule)"},
        {"shard-index", "I", "", "run only trials with index = I mod --shard-count"},
        {"shard-count", "K", "", "total shards of a partitioned run"},
        {"checkpoint", "FILE", "", "write a fvc.checkpoint/1 resume file to FILE"},
        {"checkpoint-every", "K", "16", "flush the checkpoint every K trials"},
        {"resume", "0|1", "", "skip trials already recorded in --checkpoint FILE"}}},
      {"poisson",
       "closed-form P_N and P_S (Theorems 3 and 4)",
       &cmd_poisson,
       {{"n", "N", "500", "Poisson density"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"}}},
      {"exact",
       "exact per-point full-view law next to both sector bounds",
       &cmd_exact,
       {{"n", "N", "500", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"}}},
      {"phase",
       "phase scan of q = s_c / s_Nc across the coverage transition",
       &cmd_phase,
       {{"n", "N", "500", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"q-lo", "Q", "0.5", "lowest CSA multiplier"},
        {"q-hi", "Q", "3", "highest CSA multiplier"},
        {"points", "K", "6", "scan points"},
        {"trials", "T", "30", "Monte-Carlo trials per point"},
        {"seed", "S", "1", "master RNG seed"},
        {"shard-index", "I", "", "run only points with index = I mod --shard-count"},
        {"shard-count", "K", "", "total shards of a partitioned run"},
        {"checkpoint", "FILE", "", "write a fvc.checkpoint/1 resume file to FILE"},
        {"checkpoint-every", "K", "16", "flush the checkpoint every K points"},
        {"resume", "0|1", "", "skip points already recorded in --checkpoint FILE"}}},
      {"threshold",
       "locate the q where a grid event's probability crosses a target "
       "(repeated noisy bisection; the repeat is the shardable unit)",
       &cmd_threshold,
       {{"n", "N", "500", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"poisson", "0|1", "0", "Poisson deployment instead of uniform"},
        {"grid-side", "M", "", "grid side override (default: n log n rule)"},
        {"q-lo", "Q", "0.5", "bracket low (event surely fails)"},
        {"q-hi", "Q", "4", "bracket high (event surely holds)"},
        {"target", "P", "0.5", "probability level to locate"},
        {"iterations", "I", "6", "bisection steps per repeat"},
        {"trials", "T", "30", "Monte-Carlo trials per estimate"},
        {"repeats", "R", "4", "independent searches to run"},
        {"event", "NAME", "full-view",
         "event to threshold (necessary|full-view|sufficient)"},
        {"seed", "S", "1", "master RNG seed"},
        {"shard-index", "I", "", "run only repeats with index = I mod --shard-count"},
        {"shard-count", "K", "", "total shards of a partitioned run"},
        {"checkpoint", "FILE", "", "write a fvc.checkpoint/1 resume file to FILE"},
        {"checkpoint-every", "K", "16", "flush the checkpoint every K repeats"},
        {"resume", "0|1", "", "skip repeats already recorded in --checkpoint FILE"}}},
      {"merge-shards",
       "fold shard checkpoints into one final report (refuses seed/config "
       "mismatches; exit 1 when units are missing)",
       &cmd_merge_shards,
       {{"inputs", "FILES", "", "comma-separated shard checkpoint files"},
        {"output", "FILE", "", "also write the merged checkpoint to FILE"}}},
      {"map",
       "ASCII heatmap: '@' full-view covered, ' ' uncovered",
       &cmd_map,
       {{"n", "N", "300", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"seed", "S", "1", "deployment RNG seed"},
        {"side", "M", "48", "heatmap side length"},
        {"save", "FILE", "", "save the deployment to FILE"},
        {"load", "FILE", "", "load the deployment from FILE"}}},
      {"barrier",
       "weak/strong full-view barrier coverage of a strip",
       &cmd_barrier,
       {{"n", "N", "400", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.2", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"seed", "S", "1", "deployment RNG seed"},
        {"y-lo", "Y", "0.45", "strip lower edge"},
        {"y-hi", "Y", "0.55", "strip upper edge"},
        {"load", "FILE", "", "load the deployment from FILE"}}},
      {"track",
       "face-capture audit along random intruder walks",
       &cmd_track,
       {{"n", "N", "400", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.2", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"seed", "S", "1", "deployment and walk RNG seed"},
        {"walks", "W", "20", "random walks to audit"},
        {"load", "FILE", "", "load the deployment from FILE"}}},
      {"repair",
       "greedily patch holes until the grid is full-view covered",
       &cmd_repair,
       {{"n", "N", "300", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.2", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"seed", "S", "1", "deployment RNG seed"},
        {"grid-side", "M", "20", "evaluation grid side"},
        {"save", "FILE", "", "save the repaired deployment to FILE"},
        {"load", "FILE", "", "load the deployment from FILE"}}},
      {"aim",
       "optimize camera orientations in place (positions fixed)",
       &cmd_aim,
       {{"n", "N", "300", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.2", "sensing radius"},
        {"fov", "RAD", "1.2", "camera field of view"},
        {"seed", "S", "1", "deployment RNG seed"},
        {"grid-side", "M", "16", "evaluation grid side"},
        {"candidates", "K", "12", "candidate orientations per camera"},
        {"save", "FILE", "", "save the re-aimed deployment to FILE"},
        {"load", "FILE", "", "load the deployment from FILE"}}},
      {"experiment",
       "run one experiment of EXPERIMENTS.md with its fixed seeds; exit 1 "
       "when a shape check fails",
       &cmd_experiment,
       {{"id", "ID", "", "experiment ID (FIG7 ... CLUSTER); omit to list them"}}},
      {"serve",
       "hot-engine coverage query daemon speaking fvc.query/1 over a local "
       "socket (SIGINT drains and exits 130)",
       &cmd_serve,
       {{"socket", "PATH", "", "unix socket path to listen on (required)"},
        {"n", "N", "300", "population size"},
        {"theta", "RAD", "0.785", "effective angle"},
        {"radius", "R", "0.15", "sensing radius"},
        {"fov", "RAD", "2.0", "camera field of view"},
        {"seed", "S", "1", "deployment RNG seed"},
        {"load", "FILE", "", "load the deployment from FILE"},
        {"grid-side", "M", "64", "region-query evaluation grid side"},
        {"tile-rows", "K", "8", "grid rows per cached tile"},
        {"cache-tiles", "C", "1024", "tile cache capacity (entries)"},
        {"metrics-every", "MS", "",
         "with --metrics: also flush the report atomically every MS ms"},
        {"prom", "FILE", "",
         "periodically export Prometheus text-format telemetry to FILE"},
        {"prom-every", "MS", "1000",
         "Prometheus export interval in milliseconds"}}},
      {"top",
       "live telemetry view of a running serve daemon (polls the stats "
       "verb; Ctrl-C exits)",
       &cmd_top,
       {{"socket", "PATH", "", "unix socket of the daemon (required)"},
        {"interval-ms", "MS", "1000", "poll and refresh interval"},
        {"count", "K", "", "stop after K refreshes (default: until Ctrl-C)"},
        {"once", "", "", "print a single snapshot and exit"},
        {"json", "", "",
         "print the raw fvc.serve_stats/1 response instead of the table"}}},
  };
  return table;
}

const std::vector<FlagSpec>& global_flags() {
  static const std::vector<FlagSpec> flags = {
      {"metrics", "FILE", "",
       "write a fvc.metrics/1 JSON report of the run to FILE"},
      {"trace", "FILE", "",
       "write a fvc.trace/1 Chrome-trace JSON timeline of the run to FILE "
       "(open in Perfetto or chrome://tracing)"},
      {"stall-timeout-ms", "MS", "",
       "arm the stall watchdog: report when no progress is made for MS "
       "milliseconds (0 or unset = off)"},
      {"stall-stop", "0|1", "",
       "with --stall-timeout-ms: also request cooperative stop when a "
       "stall is flagged"},
  };
  return flags;
}

const CommandSpec* find_command(std::string_view name) {
  for (const CommandSpec& cmd : command_table()) {
    if (cmd.name == name) {
      return &cmd;
    }
  }
  return nullptr;
}

std::set<std::string> allowed_flags(const CommandSpec& cmd) {
  std::set<std::string> allowed;
  for (const FlagSpec& f : cmd.flags) {
    allowed.insert(std::string(f.name));
  }
  for (const FlagSpec& f : global_flags()) {
    allowed.insert(std::string(f.name));
  }
  return allowed;
}

namespace {

/// Flags rendered the way the hand-written help did it: defaulted flags as
/// "--name default", optional ones as "[--name VALUE]", wrapped at 78
/// columns under the command summary.
void print_flag_lines(std::ostream& out, const std::vector<FlagSpec>& flags) {
  constexpr std::size_t kIndent = 12;
  constexpr std::size_t kWidth = 78;
  std::string line(kIndent, ' ');
  bool empty = true;
  for (const FlagSpec& f : flags) {
    std::string word;
    if (f.fallback.empty() && f.value.empty()) {
      word = "[--" + std::string(f.name) + "]";  // bare boolean switch
    } else if (f.fallback.empty()) {
      word = "[--" + std::string(f.name) + " " + std::string(f.value) + "]";
    } else {
      word = "--" + std::string(f.name) + " " + std::string(f.fallback);
    }
    if (!empty && line.size() + 1 + word.size() > kWidth) {
      out << line << "\n";
      line.assign(kIndent, ' ');
      empty = true;
    }
    if (!empty) {
      line += " ";
    }
    line += word;
    empty = false;
  }
  if (!empty) {
    out << line << "\n";
  }
}

}  // namespace

void print_help(std::ostream& out) {
  out << "fvc_sim — full-view coverage simulator (ICDCS 2012 reproduction)\n"
      << "\n"
      << "usage: fvc_sim <command> [--flag value ...]\n"
      << "\n"
      << "commands:\n";
  for (const CommandSpec& cmd : command_table()) {
    std::string head = "  " + std::string(cmd.name);
    head.resize(std::max<std::size_t>(head.size() + 2, 12), ' ');
    out << head << cmd.summary << "\n";
    print_flag_lines(out, cmd.flags);
  }
  out << "  help      this text\n"
      << "\n"
      << "flags accepted by every command:\n";
  for (const FlagSpec& f : global_flags()) {
    out << "  --" << f.name << " " << f.value << "  " << f.help << "\n";
  }
}

}  // namespace fvc::cli
