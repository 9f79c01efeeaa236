// sbx/util/table.h
//
// Result-table formatting for the experiment harness. Every paper figure
// reports its rows/series through a Table: aligned plain text on
// stdout (what a reader compares against the paper) and optional CSV export
// (what a plotting script consumes).
#pragma once

#include <string>
#include <vector>

namespace sbx::util {

/// A simple column-oriented table: set headers once, append rows of cells.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string cell(double v, int precision = 2);
  static std::string cell(std::size_t v);
  static std::string cell(int v);

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders an aligned, pipe-separated plain-text table.
  std::string to_text() const;

  /// Renders RFC-4180-ish CSV (cells containing comma/quote/newline are
  /// quoted).
  std::string to_csv() const;

  /// Writes CSV to a file, creating parent directories as needed.
  /// Throws IoError on failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sbx::util
