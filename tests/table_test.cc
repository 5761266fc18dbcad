#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace randrank {
namespace {

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.Row().Cell("alpha").Cell(1.5, 2);
  t.Row().Cell("b").Cell(10.25, 2);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.Row().Cell("1");
  t.Row().Cell("2");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(FormatTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(-1.0, 0), "-1");
}

TEST(FormatTest, FormatLogTickPowersOfTen) {
  EXPECT_EQ(FormatLogTick(1000.0), "1e+03");
  EXPECT_EQ(FormatLogTick(0.01), "1e-02");
}

TEST(FormatTest, FormatLogTickSingleDigitMantissa) {
  EXPECT_EQ(FormatLogTick(30000.0), "3e+04");
  EXPECT_EQ(FormatLogTick(0.5), "5e-01");
}

TEST(FormatTest, FormatLogTickFallback) {
  EXPECT_EQ(FormatLogTick(1500.0), "1500.00");
}

}  // namespace
}  // namespace randrank
