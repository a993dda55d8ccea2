/// \file table.hpp
/// \brief ASCII table printer shared by the experiments and the CLI, so
/// every report emits the paper's rows in a uniform, diffable format.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fvc::report {

/// A simple right-aligned ASCII table.  Cells are preformatted strings;
/// numeric helpers are provided for consistent formatting.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

  /// Render with column separators and a header rule.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision decimal formatting.
[[nodiscard]] std::string fmt(double value, int precision = 4);

/// Scientific formatting for the CSA magnitudes.
[[nodiscard]] std::string fmt_sci(double value, int precision = 3);

/// "p [lo, hi]" formatting of an estimate with its confidence interval.
[[nodiscard]] std::string fmt_ci(double p, double lo, double hi, int precision = 3);

/// "[lo, hi]" interval formatting.
[[nodiscard]] std::string fmt_interval(double lo, double hi, int precision = 3);

/// "(x, y)" coordinate formatting.
[[nodiscard]] std::string fmt_point(double x, double y, int precision = 3);

/// Always-signed decimal ("+0.12" / "-0.30").
[[nodiscard]] std::string fmt_signed(double value, int precision = 3);

}  // namespace fvc::report
