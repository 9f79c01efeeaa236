// Tests for util/ascii_chart.
#include "util/ascii_chart.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace sbx::util {
namespace {

ChartSeries line(const std::string& label, char glyph,
                 std::vector<double> x, std::vector<double> y) {
  ChartSeries s;
  s.label = label;
  s.glyph = glyph;
  s.x = std::move(x);
  s.y = std::move(y);
  return s;
}

TEST(AsciiChart, RendersGlyphsAndLegend) {
  auto out = render_chart(
      {line("rising", 'R', {0, 1, 2}, {0, 50, 100})});
  EXPECT_NE(out.find('R'), std::string::npos);
  EXPECT_NE(out.find("R = rising"), std::string::npos);
  EXPECT_NE(out.find("100.0"), std::string::npos);  // top y tick
  EXPECT_NE(out.find("0.0"), std::string::npos);    // bottom y tick
}

TEST(AsciiChart, MultipleSeriesAllAppear) {
  auto out = render_chart({line("a", 'A', {0, 1}, {0, 10}),
                           line("b", 'B', {0, 1}, {10, 0})});
  EXPECT_NE(out.find('A'), std::string::npos);
  EXPECT_NE(out.find('B'), std::string::npos);
  EXPECT_NE(out.find("A = a"), std::string::npos);
  EXPECT_NE(out.find("B = b"), std::string::npos);
}

TEST(AsciiChart, FixedRangeClampsPoints) {
  ChartOptions opts;
  opts.y_min = 0.0;
  opts.y_max = 10.0;
  // A point above the range must not crash and must land on the top row.
  auto out = render_chart({line("spike", 'X', {0, 1}, {5, 50})}, opts);
  EXPECT_NE(out.find('X'), std::string::npos);
  EXPECT_NE(out.find("10.0"), std::string::npos);
}

TEST(AsciiChart, AxisLabelsIncluded) {
  ChartOptions opts;
  opts.x_label = "the x axis";
  opts.y_label = "the y axis";
  auto out = render_chart({line("s", 'S', {0, 1}, {0, 1})}, opts);
  EXPECT_NE(out.find("the x axis"), std::string::npos);
  EXPECT_NE(out.find("the y axis"), std::string::npos);
}

TEST(AsciiChart, RisingSeriesPutsLaterPointsHigher) {
  auto out = render_chart({line("rise", '*', {0, 10}, {0, 100})});
  // The first line containing '*' must be nearer the top for the y=100
  // point; check that '*' occurs both near the start column and end column.
  std::size_t first = out.find('*');
  std::size_t last = out.rfind('*');
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  // The high point (x=10 -> right edge) appears earlier in the text (top
  // row) than the low point (x=0 -> left edge, bottom row).
  std::size_t first_line = std::count(
      out.begin(), out.begin() + static_cast<std::ptrdiff_t>(first), '\n');
  std::size_t last_line = std::count(
      out.begin(), out.begin() + static_cast<std::ptrdiff_t>(last), '\n');
  EXPECT_LT(first_line, last_line);
}

TEST(AsciiChart, DegenerateInputsRejected) {
  EXPECT_THROW(render_chart({}), InvalidArgument);
  EXPECT_THROW(render_chart({line("empty", 'E', {}, {})}), InvalidArgument);
  EXPECT_THROW(render_chart({line("mismatch", 'M', {0, 1}, {0})}),
               InvalidArgument);
}

TEST(AsciiChart, SinglePointSeriesWorks) {
  auto out = render_chart({line("dot", 'D', {5}, {5})});
  EXPECT_NE(out.find('D'), std::string::npos);
}

TEST(AsciiChart, ConstantSeriesWorks) {
  auto out = render_chart({line("flat", 'F', {0, 1, 2}, {3, 3, 3})});
  EXPECT_NE(out.find('F'), std::string::npos);
}

}  // namespace
}  // namespace sbx::util
