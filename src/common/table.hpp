// ASCII table formatter used by the CLI and the standalone bench programs
// to print aligned columns.
#ifndef ZOLCSIM_COMMON_TABLE_HPP
#define ZOLCSIM_COMMON_TABLE_HPP

#include <string>
#include <vector>

namespace zolcsim {

/// Accumulates rows of strings and renders them with aligned columns and a
/// header separator: column 0 left-aligned, every other column right-aligned.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table as a multi-line string (trailing newline included).
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_TABLE_HPP
