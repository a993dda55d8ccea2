/// \file experiments.hpp
/// \brief The registry of the paper's experiments (EXPERIMENTS.md) and the
/// one printer that writes their reports.
///
/// Each experiment is one row of an explicit table: an ID (FIG7, T1-VAL,
/// ... CLUSTER), a title, and a function that runs it with fixed seeds and
/// returns a Report — its tables, its named shape checks, and its CSV
/// series.  `fvc_sim experiment --id ID` prints one report and fails when
/// any check fails; tests/experiments/<ID>.txt pins each printed report
/// byte for byte.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "fvc/report/series.hpp"
#include "fvc/report/table.hpp"

namespace fvc::experiments {

/// One named boolean shape check: the claim the experiment's numbers must
/// bear out (an ordering, a monotone trend, a match within tolerance).
struct Check {
  std::string name;
  bool ok = false;
};

/// One table of a report, under an optional heading ("" prints none).
struct Panel {
  std::string heading;
  report::Table table;
};

/// Everything one experiment run prints.
struct Report {
  std::string setup;  ///< lines under the title: the fixed configuration
  std::vector<Panel> panels;
  std::vector<Check> checks;
  report::SeriesSet csv;  ///< no columns: no CSV block
};

/// One registry row.
struct Experiment {
  std::string_view id;
  std::string_view title;
  Report (*run)();
};

/// Every experiment, in EXPERIMENTS.md order.
[[nodiscard]] const std::vector<Experiment>& experiment_table();

/// Look an experiment up by ID; nullptr when unknown.
[[nodiscard]] const Experiment* find_experiment(std::string_view id);

/// Write `report` as experiment `e`'s output: title, setup, panels, one
/// "-> OK" / "-> MISMATCH" line per check, an Overall line, then the CSV.
/// Returns true when every check passed.
bool print_report(const Experiment& e, const Report& report, std::ostream& out);

}  // namespace fvc::experiments
