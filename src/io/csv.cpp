#include "io/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace pas::io {

std::string format_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

std::string CsvWriter::escape(std::string_view field) {
  std::string out;
  append_escaped(out, field);
  return out;
}

void CsvWriter::append_escaped(std::string& out, std::string_view field) {
  // A plain loop: find_first_of searches the four specials once per byte.
  const bool needs_quotes =
      std::any_of(field.begin(), field.end(), [](char c) {
        return c == ',' || c == '"' || c == '\n' || c == '\r';
      });
  if (!needs_quotes) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void CsvWriter::header(std::initializer_list<std::string_view> columns) {
  std::vector<std::string> cols;
  cols.reserve(columns.size());
  for (const auto c : columns) cols.emplace_back(c);
  header(cols);
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  if (header_written_) {
    throw std::logic_error("CsvWriter: header written twice");
  }
  columns_ = columns.size();
  header_written_ = true;
  write_row(columns);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (header_written_ && cells.size() != columns_) {
    throw std::logic_error("CsvWriter: row width does not match header");
  }
  write_row(cells);
  ++rows_;
}

void CsvWriter::row_values(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(format_double(v));
  row(cells);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& c : cells) {
    if (!first) os_ << ',';
    os_ << escape(c);
    first = false;
  }
  os_ << '\n';
}

}  // namespace pas::io
