#include "common/csv.hpp"

#include <sstream>

#include "common/contracts.hpp"

namespace zolcsim {

namespace {

std::string escape_field(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ZS_EXPECTS(!headers_.empty());
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  ZS_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::render() const {
  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << escape_field(row[i]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace zolcsim
