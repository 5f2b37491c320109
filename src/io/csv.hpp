// Minimal CSV writer for experiment output.
//
// Examples dump per-run records so results can be re-plotted
// offline. Quoting follows RFC 4180 (quote when a field contains comma,
// quote, or newline; double embedded quotes).
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pas::io {

class CsvWriter {
 public:
  /// Writes to an externally-owned stream (file, stringstream, stdout).
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Writes the header row; remembers the column count to validate rows.
  void header(std::initializer_list<std::string_view> columns);
  void header(const std::vector<std::string>& columns);

  /// Appends one row. Throws std::logic_error if the column count does not
  /// match the header (when a header was written).
  void row(const std::vector<std::string>& cells);

  /// Convenience: formats doubles with enough digits to round-trip.
  void row_values(const std::vector<double>& values);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

  /// Escapes a single CSV field per RFC 4180.
  [[nodiscard]] static std::string escape(std::string_view field);
  /// escape(), appended to `out` without a temporary.
  static void append_escaped(std::string& out, std::string_view field);

 private:
  void write_row(const std::vector<std::string>& cells);

  std::ostream& os_;
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

/// Formats a double with round-trip precision, trimming trailing zeros.
[[nodiscard]] std::string format_double(double v);

}  // namespace pas::io
