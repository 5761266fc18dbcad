#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace randrank {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::Row() {
  cells_.emplace_back();
  return *this;
}

Table& Table::Cell(const std::string& value) {
  assert(!cells_.empty());
  cells_.back().push_back(value);
  return *this;
}

Table& Table::Cell(double value, int precision) {
  return Cell(FormatFixed(value, precision));
}

Table& Table::Cell(long long value) { return Cell(std::to_string(value)); }

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : cells_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << cell;
      if (c + 1 < widths.size()) {
        os << std::string(widths[c] - cell.size() + 2, ' ');
      }
    }
    os << '\n';
  };
  print_row(header_);
  size_t rule = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(rule, '-') << '\n';
  for (const auto& row : cells_) print_row(row);
}

std::string FormatFixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FormatLogTick(double value) {
  if (value > 0.0) {
    const auto exponent = static_cast<int>(std::floor(std::log10(value)));
    const double mantissa = value / std::pow(10.0, exponent);
    const double rounded = std::round(mantissa);
    if (rounded >= 1.0 && rounded <= 9.0 &&
        std::fabs(mantissa - rounded) < 1e-9) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%de%+03d", static_cast<int>(rounded),
                    exponent);
      return buf;
    }
  }
  return FormatFixed(value, 2);
}

}  // namespace randrank
