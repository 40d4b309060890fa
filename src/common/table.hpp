// ASCII table formatter used by the CLI and the standalone bench programs
// to print aligned columns.
#ifndef ZOLCSIM_COMMON_TABLE_HPP
#define ZOLCSIM_COMMON_TABLE_HPP

#include <string>
#include <vector>

namespace zolcsim {

/// Column alignment inside a TextTable.
enum class Align { kLeft, kRight };

/// Accumulates rows of strings and renders them with aligned columns,
/// a header separator, and optional per-column alignment.
class TextTable {
 public:
  /// Creates a table with the given column headers (left-aligned header row).
  explicit TextTable(std::vector<std::string> headers);

  /// Sets alignment for a column (default kRight for all but column 0).
  void set_align(std::size_t column, Align align);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table as a multi-line string (trailing newline included).
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_TABLE_HPP
