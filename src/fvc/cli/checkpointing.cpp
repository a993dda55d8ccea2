#include "fvc/cli/checkpointing.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "fvc/report/table.hpp"
#include "fvc/stats/summary.hpp"

namespace fvc::cli {

CheckpointOptions checkpoint_options_from(const Args& args) {
  CheckpointOptions opts;
  if (args.has("shard-index") && !args.has("shard-count")) {
    throw std::invalid_argument("--shard-index needs --shard-count");
  }
  opts.shard.count = args.get_size("shard-count", 1);
  opts.shard.index = args.get_size("shard-index", 0);
  sim::validate(opts.shard);
  opts.path = args.get_string("checkpoint", "");
  if ((args.has("resume") || args.has("checkpoint-every")) && opts.path.empty()) {
    throw std::invalid_argument(
        "--resume and --checkpoint-every need --checkpoint FILE");
  }
  opts.every = args.get_size("checkpoint-every", 16);
  if (opts.every == 0) {
    throw std::invalid_argument("--checkpoint-every must be >= 1");
  }
  opts.resume = args.get_bool("resume", false);
  return opts;
}

void CanonicalConfig::add(std::string_view key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  text_ += std::string(key) + "=" + buf + ";";
}

void CanonicalConfig::add(std::string_view key, std::uint64_t value) {
  text_ += std::string(key) + "=" + std::to_string(value) + ";";
}

void CanonicalConfig::add(std::string_view key, std::string_view value) {
  text_ += std::string(key) + "=" + std::string(value) + ";";
}

CheckpointSession::CheckpointSession(const CheckpointOptions& opts, std::string kind,
                                     std::uint64_t master_seed,
                                     std::uint64_t config_digest,
                                     std::uint64_t total_units)
    : opts_(opts) {
  cp_.kind = std::move(kind);
  cp_.master_seed = master_seed;
  cp_.config_digest = config_digest;
  cp_.total_units = total_units;
  cp_.shard_index = opts.shard.index;
  cp_.shard_count = opts.shard.count;
  if (opts_.resume) {
    const io::Checkpoint resumed = io::load_checkpoint_file(opts_.path);
    if (resumed.kind != cp_.kind) {
      throw std::runtime_error("--resume: " + opts_.path + " holds a '" +
                               resumed.kind + "' run, not '" + cp_.kind + "'");
    }
    if (resumed.master_seed != cp_.master_seed) {
      throw std::runtime_error("--resume: " + opts_.path +
                               " was produced under a different master seed");
    }
    if (resumed.config_digest != cp_.config_digest) {
      throw std::runtime_error(
          "--resume: " + opts_.path +
          " was produced under a different configuration (config digest mismatch)");
    }
    if (resumed.total_units != cp_.total_units) {
      throw std::runtime_error("--resume: " + opts_.path + " expects " +
                               std::to_string(resumed.total_units) +
                               " total units, this invocation " +
                               std::to_string(cp_.total_units));
    }
    // The shard spec is deliberately NOT validated: completed units are
    // skipped no matter which shard geometry produced them, so a killed
    // 4-way run can be finished by one unsharded --resume invocation.
    cp_.units = resumed.units;
  }
  pending_ = sim::owned_units(opts_.shard, cp_.total_units, cp_.completed_indices());
}

void CheckpointSession::record(std::uint64_t index, std::vector<double> payload) {
  cp_.units.push_back(io::CheckpointUnit{index, std::move(payload)});
  if (!opts_.checkpointing()) {
    return;
  }
  if (++unflushed_ >= opts_.every) {
    cp_.normalize();
    io::save_checkpoint_file(opts_.path, cp_);
    unflushed_ = 0;
  }
}

void CheckpointSession::finish() {
  cp_.normalize();
  if (opts_.checkpointing()) {
    io::save_checkpoint_file(opts_.path, cp_);
    unflushed_ = 0;
  }
}

const io::Checkpoint& CheckpointSession::checkpoint() {
  cp_.normalize();
  return cp_;
}

void print_simulate_table(std::ostream& out, const sim::GridEventsEstimate& est) {
  report::Table t({"event", "probability", "95% CI"});
  const auto row = [&](const char* name, const sim::EventEstimate& e) {
    const auto ci = e.wilson();
    t.add_row({name, report::fmt(e.p(), 3), report::fmt_interval(ci.lo, ci.hi, 3)});
  };
  row("grid meets necessary condition (H_N)", est.necessary);
  row("grid full-view covered", est.full_view);
  row("grid meets sufficient condition (H_S)", est.sufficient);
  t.print(out);
}

void print_phase_table(std::ostream& out, const std::vector<sim::PhasePoint>& points) {
  report::Table t({"q", "P(H_N)", "P(full view)", "P(H_S)"});
  for (const sim::PhasePoint& pt : points) {
    t.add_row({report::fmt(pt.q, 2), report::fmt(pt.events.necessary.p(), 3),
               report::fmt(pt.events.full_view.p(), 3),
               report::fmt(pt.events.sufficient.p(), 3)});
  }
  t.print(out);
}

namespace {

void render_simulate(std::ostream& out, const io::Checkpoint& cp) {
  std::vector<sim::TrialEvents> events;
  events.reserve(cp.units.size());
  for (const io::CheckpointUnit& unit : cp.units) {
    events.push_back(sim::decode_trial_events(unit.payload));
  }
  print_simulate_table(out, sim::aggregate_grid_events(events));
}

void render_phase(std::ostream& out, const io::Checkpoint& cp) {
  std::vector<sim::PhasePoint> points;
  points.reserve(cp.units.size());
  for (const io::CheckpointUnit& unit : cp.units) {
    points.push_back(sim::decode_phase_point(unit.index, unit.payload));
  }
  print_phase_table(out, points);
}

void render_threshold(std::ostream& out, const io::Checkpoint& cp) {
  stats::OnlineStats q_stats;
  report::Table t({"repeat", "q threshold"});
  for (const io::CheckpointUnit& unit : cp.units) {
    if (unit.payload.size() != 1) {
      throw std::runtime_error(
          "render_checkpoint_report: malformed threshold payload at unit " +
          std::to_string(unit.index));
    }
    q_stats.add(unit.payload[0]);
    t.add_row({std::to_string(unit.index), report::fmt(unit.payload[0], 4)});
  }
  t.print(out);
  if (q_stats.count() > 0) {
    report::Table summary({"threshold summary", "value"});
    summary.add_row({"mean q", report::fmt(q_stats.mean(), 4)});
    summary.add_row({"stddev", report::fmt(q_stats.stddev(), 4)});
    summary.add_row(
        {"range", report::fmt_interval(q_stats.min(), q_stats.max(), 4)});
    summary.print(out);
  }
}

}  // namespace

void render_checkpoint_report(std::ostream& out, const io::Checkpoint& cp) {
  if (cp.kind == "simulate") {
    render_simulate(out, cp);
  } else if (cp.kind == "phase") {
    render_phase(out, cp);
  } else if (cp.kind == "threshold") {
    render_threshold(out, cp);
  } else {
    throw std::runtime_error("render_checkpoint_report: unknown kind '" + cp.kind +
                             "'");
  }
  if (cp.units.size() < cp.total_units) {
    out << "partial: " << cp.units.size() << "/" << cp.total_units
        << " units complete\n";
  }
}

}  // namespace fvc::cli
