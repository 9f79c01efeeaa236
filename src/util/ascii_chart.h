// sbx/util/ascii_chart.h
//
// Terminal line charts for the paper figures: each figure renders its
// curves the way the paper's plots look, so shape
// comparisons don't require exporting CSVs first.
#pragma once

#include <string>
#include <vector>

namespace sbx::util {

/// One plotted series: (x, y) points plus a glyph and a legend label.
struct ChartSeries {
  std::string label;
  char glyph = '*';
  std::vector<double> x;
  std::vector<double> y;  // same length as x
};

/// Axis/layout configuration.
struct ChartOptions {
  std::size_t width = 60;   // plot-area columns
  std::size_t height = 16;  // plot-area rows
  std::string x_label;
  std::string y_label;
  /// Fixed y range; when min == max the range is derived from the data.
  double y_min = 0.0;
  double y_max = 0.0;
};

/// Renders series onto a grid with y-axis ticks, an x-axis tick line and a
/// legend. Points are plotted at the nearest cell; later series overwrite
/// earlier ones where they collide. Throws InvalidArgument on empty or
/// mismatched input.
std::string render_chart(const std::vector<ChartSeries>& series,
                         const ChartOptions& options = {});

}  // namespace sbx::util
