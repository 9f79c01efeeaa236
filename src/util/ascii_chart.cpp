#include "util/ascii_chart.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace sbx::util {

std::string render_chart(const std::vector<ChartSeries>& series,
                         const ChartOptions& options) {
  if (series.empty()) throw InvalidArgument("render_chart: no series");
  double x_min = 0, x_max = 0, y_min = 0, y_max = 0;
  bool first = true;
  for (const auto& s : series) {
    if (s.x.size() != s.y.size()) {
      throw InvalidArgument("render_chart: x/y length mismatch in series '" +
                            s.label + "'");
    }
    if (s.x.empty()) {
      throw InvalidArgument("render_chart: empty series '" + s.label + "'");
    }
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (first) {
        x_min = x_max = s.x[i];
        y_min = y_max = s.y[i];
        first = false;
      } else {
        x_min = std::min(x_min, s.x[i]);
        x_max = std::max(x_max, s.x[i]);
        y_min = std::min(y_min, s.y[i]);
        y_max = std::max(y_max, s.y[i]);
      }
    }
  }
  if (options.y_min != options.y_max) {
    y_min = options.y_min;
    y_max = options.y_max;
  }
  if (x_max == x_min) x_max = x_min + 1.0;
  if (y_max == y_min) y_max = y_min + 1.0;

  const std::size_t w = std::max<std::size_t>(options.width, 8);
  const std::size_t h = std::max<std::size_t>(options.height, 4);
  std::vector<std::string> grid(h, std::string(w, ' '));

  auto col_of = [&](double x) {
    double t = (x - x_min) / (x_max - x_min);
    auto c = static_cast<long>(std::lround(t * static_cast<double>(w - 1)));
    return static_cast<std::size_t>(
        std::clamp<long>(c, 0, static_cast<long>(w - 1)));
  };
  auto row_of = [&](double y) {
    double t = (y - y_min) / (y_max - y_min);
    t = std::clamp(t, 0.0, 1.0);
    auto r = static_cast<long>(
        std::lround((1.0 - t) * static_cast<double>(h - 1)));
    return static_cast<std::size_t>(
        std::clamp<long>(r, 0, static_cast<long>(h - 1)));
  };

  for (const auto& s : series) {
    // Connect consecutive points with linearly interpolated cells so the
    // curve reads as a line, then stamp the data points on top.
    for (std::size_t i = 0; i + 1 < s.x.size(); ++i) {
      std::size_t c0 = col_of(s.x[i]);
      std::size_t c1 = col_of(s.x[i + 1]);
      if (c1 < c0) std::swap(c0, c1);
      for (std::size_t c = c0; c <= c1; ++c) {
        double span = static_cast<double>(col_of(s.x[i + 1])) -
                      static_cast<double>(col_of(s.x[i]));
        double t = span == 0 ? 0.0
                             : (static_cast<double>(c) -
                                static_cast<double>(col_of(s.x[i]))) /
                                   span;
        double y = s.y[i] + t * (s.y[i + 1] - s.y[i]);
        grid[row_of(y)][c] = '.';
      }
    }
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      grid[row_of(s.y[i])][col_of(s.x[i])] = s.glyph;
    }
  }

  // Assemble with a y-axis (tick labels on 4 rows) and an x-axis line.
  std::string out;
  if (!options.y_label.empty()) {
    out += options.y_label + "\n";
  }
  const int label_width = 8;
  for (std::size_t r = 0; r < h; ++r) {
    bool tick = r == 0 || r == h - 1 || r == h / 2;
    if (tick) {
      double y = y_max - (y_max - y_min) * static_cast<double>(r) /
                             static_cast<double>(h - 1);
      std::string label = format_double(y, 1);
      out += std::string(label_width - std::min<std::size_t>(
                                           label.size(), label_width),
                         ' ') +
             label + " |";
    } else {
      out += std::string(label_width + 1, ' ') + "|";
    }
    out += grid[r];
    out += '\n';
  }
  out += std::string(label_width + 1, ' ') + "+" + std::string(w, '-') + "\n";
  std::string lo = format_double(x_min, 1);
  std::string hi = format_double(x_max, 1);
  out += std::string(label_width + 2, ' ') + lo +
         std::string(w > lo.size() + hi.size()
                         ? w - lo.size() - hi.size()
                         : 1,
                     ' ') +
         hi + "\n";
  if (!options.x_label.empty()) {
    out += std::string(label_width + 2 +
                           (w / 2 > options.x_label.size() / 2
                                ? w / 2 - options.x_label.size() / 2
                                : 0),
                       ' ') +
           options.x_label + "\n";
  }
  out += "\n";
  for (const auto& s : series) {
    out += "  ";
    out += s.glyph;
    out += " = " + s.label + "\n";
  }
  return out;
}

}  // namespace sbx::util
