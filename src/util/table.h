#ifndef RANDRANK_UTIL_TABLE_H_
#define RANDRANK_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace randrank {

/// Column-aligned ASCII table writer used by benches and examples to print
/// paper-style figure series. Cells are strings; numeric helpers format with
/// fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent Cell() calls append to it.
  Table& Row();
  Table& Cell(const std::string& value);
  Table& Cell(double value, int precision = 4);
  Table& Cell(long long value);

  size_t rows() const { return cells_.size(); }

  /// Renders with aligned columns and a header rule.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with the given precision (fixed notation).
std::string FormatFixed(double value, int precision);

/// Formats like "1e+03" for log-scale axis labels when the value is a clean
/// power of ten, otherwise falls back to fixed notation.
std::string FormatLogTick(double value);

}  // namespace randrank

#endif  // RANDRANK_UTIL_TABLE_H_
