#include "support/table.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/str.hpp"

namespace fgpar {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  FGPAR_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> row) {
  FGPAR_CHECK_MSG(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(Row{false, std::move(row)});
}

void TextTable::AddSeparator() { rows_.push_back(Row{true, {}}); }

std::string TextTable::Render(const std::string& title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const Row& row : rows_) {
    if (row.separator) {
      continue;
    }
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  auto rule = [&] {
    std::string line = "+";
    for (std::size_t w : widths) {
      line += std::string(w + 2, '-') + "+";
    }
    return line + "\n";
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += ' ';
      line += PadLeft(cells[c], widths[c]);
      line += " |";
    }
    return line + "\n";
  };

  std::ostringstream os;
  if (!title.empty()) {
    os << title << "\n";
  }
  os << rule() << emit_row(header_) << rule();
  for (const Row& row : rows_) {
    if (row.separator) {
      os << rule();
    } else {
      os << emit_row(row.cells);
    }
  }
  os << rule();
  return os.str();
}

}  // namespace fgpar
