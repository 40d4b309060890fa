// CSV writer used by the benchmark harness to dump machine-readable copies
// of every regenerated table/figure next to the ASCII rendering.
#ifndef ZOLCSIM_COMMON_CSV_HPP
#define ZOLCSIM_COMMON_CSV_HPP

#include <string>
#include <vector>

namespace zolcsim {

/// Accumulates rows and renders RFC-4180-style CSV (quoting only when
/// needed: commas, quotes, or newlines in a field).
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders the full document including the header row.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_CSV_HPP
