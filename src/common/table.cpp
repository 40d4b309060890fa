#include "common/table.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"

namespace zolcsim {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ZS_EXPECTS(!headers_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  ZS_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const std::vector<std::string>& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto emit_cell = [&](std::ostringstream& os, const std::string& text,
                             std::size_t c) {
    const std::size_t pad = widths[c] - text.size();
    if (c > 0) os << std::string(pad, ' ') << text;
    else os << text << std::string(pad, ' ');
  };

  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << " | ";
    emit_cell(os, headers_[c], c);
  }
  os << '\n';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    if (c > 0) os << "-+-";
    os << std::string(widths[c], '-');
  }
  os << '\n';
  for (const std::vector<std::string>& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << " | ";
      emit_cell(os, row[c], c);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace zolcsim
