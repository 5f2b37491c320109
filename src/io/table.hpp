// Fixed-width ASCII table printer.
//
// Examples print their result tables in aligned columns so the terminal
// output can be compared against the paper at a glance.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace pas::io {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Adds a row; must have the same width as the header.
  void add_row(std::vector<std::string> cells);

  /// Numeric convenience: values formatted with `precision` decimals.
  void add_row_values(const std::vector<double>& values, int precision = 4);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with a header rule, e.g.
  ///   max_sleep_s  delay_NS  delay_PAS  delay_SAS
  ///   -----------  --------  ---------  ---------
  ///         5.000     0.000      0.312      0.841
  void print(std::ostream& os) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `v` with fixed `precision` decimals.
[[nodiscard]] std::string fixed(double v, int precision);

}  // namespace pas::io
