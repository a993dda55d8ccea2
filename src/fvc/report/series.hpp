/// \file series.hpp
/// \brief Named numeric series + CSV emission, so each experiment can dump
/// machine-readable data alongside its ASCII table.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fvc::report {

/// A collection of equally-long named columns (one x column plus any number
/// of y columns), emitted as CSV.
class SeriesSet {
 public:
  /// Add a column.  All columns must end up with the same length by the
  /// time `write_csv` is called.
  void add_column(std::string name, std::vector<double> values);

  [[nodiscard]] std::size_t columns() const { return names_.size(); }
  [[nodiscard]] std::size_t length() const;

  /// Emit "name1,name2,...\nv11,v21,...\n...".
  /// \throws std::logic_error when column lengths differ.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> values_;
};

}  // namespace fvc::report
