/// \file checkpointing.hpp
/// \brief The CLI side of shard/checkpoint/resume: flag parsing, config
/// digests, the per-command checkpoint lifecycle, and report rendering
/// from checkpoint documents.
///
/// The sim layer only knows how to run an explicit subset of unit indices
/// and call a hook per finished unit; the io layer only knows how to
/// persist units.  This header is the glue: it turns
/// `--shard-index/--shard-count/--checkpoint/--checkpoint-every/--resume`
/// into "which units do I run" and "when do I flush", and renders the
/// same report tables from a checkpoint document that the live commands
/// print — which is what lets `merge-shards` finish a run no single
/// process ever saw in full.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "fvc/cli/args.hpp"
#include "fvc/io/checkpoint.hpp"
#include "fvc/sim/monte_carlo.hpp"
#include "fvc/sim/phase_scan.hpp"
#include "fvc/sim/shard.hpp"

namespace fvc::cli {

/// Parsed shard/checkpoint flags, validated for mutual consistency.
struct CheckpointOptions {
  sim::ShardSpec shard;     ///< --shard-index / --shard-count (default 0/1)
  std::string path;         ///< --checkpoint FILE; empty = no checkpointing
  std::size_t every = 16;   ///< --checkpoint-every K (flush cadence, units)
  bool resume = false;      ///< --resume: skip units the file already holds

  [[nodiscard]] bool checkpointing() const { return !path.empty(); }
  /// True when the command must drive the run through an explicit unit
  /// list (sharded, checkpointed, or resuming) instead of the plain path.
  [[nodiscard]] bool unit_driven() const {
    return checkpointing() || shard.is_sharded();
  }
};

/// Parse and validate the shard/checkpoint flags.
/// \throws std::invalid_argument on inconsistent combinations
/// (--shard-index without --shard-count, --resume or --checkpoint-every
/// without --checkpoint, --checkpoint-every 0, index >= count).
[[nodiscard]] CheckpointOptions checkpoint_options_from(const Args& args);

/// Canonical-config accumulator: append `key=value` pairs (doubles in
/// %.17g so the digest is exact, not formatting-dependent) and digest the
/// result with io::config_digest64.  Commands feed every parameter that
/// affects unit outcomes — and nothing presentational — so resumes and
/// merges can reject data from a different experiment.
class CanonicalConfig {
 public:
  void add(std::string_view key, double value);
  void add(std::string_view key, std::uint64_t value);
  void add(std::string_view key, std::string_view value);
  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] std::uint64_t digest() const { return io::config_digest64(text_); }

 private:
  std::string text_;
};

/// One command's checkpoint lifecycle.  Construction performs the resume
/// load (validating kind, master seed, config digest and total_units
/// against the file — a mismatch is an error, not a silent restart) and
/// computes the pending unit list: this shard's indices minus whatever the
/// resumed file already completed.  `record` appends one finished unit and
/// flushes every `opts.every` units; `finish` flushes the remainder, so a
/// cancelled command that calls it on the way out leaves a valid file
/// covering exactly the completed work.
class CheckpointSession {
 public:
  /// \throws std::runtime_error when --resume was given but the file is
  /// missing/unreadable or records a different run.
  CheckpointSession(const CheckpointOptions& opts, std::string kind,
                    std::uint64_t master_seed, std::uint64_t config_digest,
                    std::uint64_t total_units);

  /// Unit indices still to run in this process (strictly increasing).
  [[nodiscard]] const std::vector<std::uint64_t>& pending() const { return pending_; }

  /// Record one finished unit.  Serialized by the caller (the sim layer's
  /// hooks already are).
  void record(std::uint64_t index, std::vector<double> payload);

  /// Flush outstanding units to disk (no-op without --checkpoint).
  void finish();

  /// The document accumulated so far: resumed units plus recorded ones,
  /// normalized.  This is what reports fold over.
  [[nodiscard]] const io::Checkpoint& checkpoint();

 private:
  CheckpointOptions opts_;
  io::Checkpoint cp_;
  std::vector<std::uint64_t> pending_;
  std::size_t unflushed_ = 0;
};

/// The `simulate` report table: each grid event's probability and its
/// 95% Wilson interval.  The plain run and the checkpoint report both
/// print it.
void print_simulate_table(std::ostream& out, const sim::GridEventsEstimate& est);

/// The `phase` report table: one row per scanned q.  The plain run and
/// the checkpoint report both print it.
void print_phase_table(std::ostream& out, const std::vector<sim::PhasePoint>& points);

/// Render the command report for a (possibly merged, possibly partial)
/// checkpoint document, dispatching on `cp.kind`: "simulate" folds trial
/// events into the probability table, "phase" reconstructs the scan rows,
/// "threshold" lists per-repeat crossings with their summary.  Partial
/// documents render the completed units and say how many are missing.
/// \throws std::runtime_error on an unknown kind or malformed payloads.
void render_checkpoint_report(std::ostream& out, const io::Checkpoint& cp);

}  // namespace fvc::cli
