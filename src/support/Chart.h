//===- support/Chart.h - ASCII line charts ---------------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A terminal line chart used by the Figure 4 / Figure 5 benchmark
/// binaries to draw the paper's MFLOPS-vs-size plots. Multiple series
/// share one pair of axes; each series plots with its own marker
/// character and appears in the legend.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_CHART_H
#define ECO_SUPPORT_CHART_H

#include <string>
#include <vector>

namespace eco {

/// Collects (x, y) series and renders them into a character grid with
/// axes, tick labels, and a legend.
class AsciiChart {
public:
  /// \p Width / \p Height size the plotting area (excluding axes).
  AsciiChart(unsigned Width = 60, unsigned Height = 16)
      : Width(Width), Height(Height) {}

  /// Adds a named series drawn with \p Marker. X values need not be
  /// evenly spaced; all series share the combined axis ranges.
  void addSeries(std::string Name, char Marker, std::vector<double> X,
                 std::vector<double> Y);

  /// Y axis label (printed above the axis).
  void setYLabel(std::string Label) { YLabel = std::move(Label); }
  /// X axis label (printed under the axis).
  void setXLabel(std::string Label) { XLabel = std::move(Label); }

  /// Forces the Y range (otherwise auto-scaled from the data, floored
  /// at 0).
  void setYRange(double Min, double Max) {
    YMin = Min;
    YMax = Max;
    YFixed = true;
  }

  /// Renders the chart; empty charts render a placeholder note.
  std::string render() const;

private:
  struct SeriesData {
    std::string Name;
    char Marker;
    std::vector<double> X, Y;
  };

  unsigned Width, Height;
  std::string YLabel, XLabel;
  std::vector<SeriesData> Series;
  double YMin = 0, YMax = 0;
  bool YFixed = false;
};

} // namespace eco

#endif // ECO_SUPPORT_CHART_H
