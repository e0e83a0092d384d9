// Plain-text and CSV table rendering for bench output.
//
// Benches print paper-style tables (aligned columns, header row) to stdout
// and optionally dump the same rows as CSV so results can be post-processed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cpart {

/// A simple row/column table. Cells are strings; numeric helpers format with
/// fixed precision. Rendering right-aligns numeric-looking cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add_cell calls append to it.
  void begin_row();
  void add_cell(const std::string& value);
  void add_cell(long long value);
  void add_cell(double value, int precision = 2);

  /// Cell accessor (row-major); throws InputError when out of range.
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Renders with aligned columns and a separator under the header.
  void print(std::ostream& os) const;

  /// Renders as RFC-4180-ish CSV (no quoting needed for our content).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cpart
