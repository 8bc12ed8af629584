#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.h"
#include "util/table.h"

namespace wafp::util {
namespace {

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_DOUBLE_EQ(stddev(values), 2.0);
}

TEST(StatsTest, EmptyAndSingle) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_EQ(stddev(one), 0.0);
  EXPECT_EQ(min_value({}), 0.0);
}

TEST(StatsTest, MinMax) {
  const std::vector<double> values = {3.0, -1.0, 7.0};
  EXPECT_EQ(min_value(values), -1.0);
  EXPECT_EQ(max_value(values), 7.0);
}

TEST(StatsTest, ValueCounts) {
  const std::vector<int> values = {1, 2, 2, 3, 3, 3};
  const auto counts = value_counts(std::span<const int>(values));
  EXPECT_EQ(counts.at(1), 1u);
  EXPECT_EQ(counts.at(2), 2u);
  EXPECT_EQ(counts.at(3), 3u);
}

TEST(StatsTest, LogFactorial) {
  EXPECT_NEAR(ln_factorial(0), 0.0, 1e-12);
  EXPECT_NEAR(ln_factorial(5), std::log(120.0), 1e-9);
  EXPECT_NEAR(log_factorial(10), std::log2(3628800.0), 1e-9);
}

TEST(StatsTest, LnFactorialStepsByLnNAcrossTableEdges) {
  // ln n! - ln (n-1)! = ln n, across the running-sum/Stirling switch at 64
  // and the end of the precomputed table at 4096.
  for (const std::size_t n : {63u, 64u, 65u, 2093u, 4095u, 4096u, 4097u}) {
    EXPECT_NEAR(ln_factorial(n) - ln_factorial(n - 1),
                std::log(static_cast<double>(n)), 1e-9)
        << n;
  }
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Name  | Value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"A", "B", "C"});
  table.add_row({"x"});
  EXPECT_NO_THROW((void)table.render());
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::fmt(1.23456, 3), "1.235");
  EXPECT_EQ(TextTable::fmt(std::size_t{42}), "42");
}

TEST(BarChartTest, ScalesToMax) {
  const std::vector<std::string> labels = {"a", "bb"};
  const std::vector<double> values = {2.0, 4.0};
  const std::string out = render_bar_chart(labels, values, 10);
  EXPECT_NE(out.find("a  | ##### 2"), std::string::npos);
  EXPECT_NE(out.find("bb | ########## 4"), std::string::npos);
}

TEST(BarChartTest, AllZeroValuesDoNotCrash) {
  const std::vector<std::string> labels = {"a"};
  const std::vector<double> values = {0.0};
  EXPECT_NO_THROW((void)render_bar_chart(labels, values));
}

TEST(HeatmapTest, RendersCells) {
  const std::vector<std::string> labels = {"r1", "r2"};
  const std::vector<std::vector<double>> m = {{1.0, 0.0}, {0.5, 1.0}};
  const std::string out = render_heatmap(labels, m);
  EXPECT_NE(out.find("r1"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);
}

TEST(SeriesTest, RendersRows) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {0.5, 1.0};
  const std::string out = render_series(xs, ys, 10);
  EXPECT_NE(out.find("*"), std::string::npos);
}

}  // namespace
}  // namespace wafp::util
