#include "core/report.hpp"

#include <cmath>
#include <iomanip>
#include <numbers>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace qufi {

std::string angle_label(double radians) {
  constexpr double kPi = std::numbers::pi;
  const double ratio = radians / kPi;
  for (int den = 1; den <= 12; ++den) {
    const double num = ratio * den;
    if (std::abs(num - std::round(num)) < 1e-9) {
      const long n = std::lround(num);
      if (n == 0) return "0";
      std::ostringstream os;
      if (n == 1) os << "pi";
      else if (n == -1) os << "-pi";
      else os << n << "pi";
      if (den != 1) os << "/" << den;
      return os.str();
    }
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(0) << radians * 180.0 / kPi << "deg";
  return os.str();
}

std::string render_heatmap(const HeatmapGrid& grid, const std::string& title,
                           const HeatmapReportOptions& options) {
  std::vector<std::string> col_labels;
  for (double t : grid.theta_rad) col_labels.push_back(angle_label(t));

  // phi descending from the top, like the paper's plots.
  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> rows;
  for (std::size_t j = grid.phi_rad.size(); j-- > 0;) {
    row_labels.push_back(angle_label(grid.phi_rad[j]));
    rows.push_back(grid.mean_qvf[j]);
  }

  util::HeatmapOptions hm;
  hm.use_color = options.color;
  if (options.delta) {
    hm.lo = -1.0;
    hm.hi = 1.0;
    hm.low_threshold = -0.05;
    hm.high_threshold = 0.05;
    hm.cell_width = 6;
  }

  std::ostringstream os;
  os << title << "\n";
  os << "rows: phi shift (top=" << row_labels.front()
     << "), cols: theta shift (left=0)\n";
  os << util::ascii_heatmap(rows, row_labels, col_labels, hm);
  return os.str();
}

std::string render_histogram(const util::Histogram& hist,
                             const std::string& title) {
  std::vector<double> centers;
  for (std::size_t i = 0; i < hist.bins(); ++i)
    centers.push_back(hist.bin_center(i));
  const auto density = hist.density();

  std::ostringstream os;
  os << title << "  (n=" << hist.total() << ", mean=" << std::fixed
     << std::setprecision(4) << hist.stats().mean()
     << ", stddev=" << hist.stats().stddev() << ")\n";
  os << util::ascii_histogram(centers, density);
  return os.str();
}

std::string render_campaign_summary(const CampaignResult& result) {
  const auto stats = result.qvf_stats();
  const auto impact = result.impact_breakdown();
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  os << "campaign: circuit=" << result.meta.circuit_name
     << " backend=" << result.meta.backend_name
     << " points=" << result.points.size()
     << " executions=" << result.meta.executions
     << " injections=" << result.meta.injections
     << (result.meta.shots ? " (shots=" + std::to_string(result.meta.shots) + ")"
                           : " (exact distributions)")
     << "\n";
  os << "  fault-free QVF (noise only): " << result.meta.faultfree_qvf << "\n";
  os << "  QVF mean=" << stats.mean() << " stddev=" << stats.stddev()
     << " min=" << stats.min() << " max=" << stats.max() << "\n";
  os << "  impact: masked=" << impact.masked * 100 << "%"
     << " dubious=" << impact.dubious * 100 << "%"
     << " silent-error=" << impact.silent * 100 << "%\n";
  return os.str();
}

std::string render_named_fault_comparison(
    std::span<const NamedFaultQvf> series_a,
    std::span<const NamedFaultQvf> series_b, const std::string& name_a,
    const std::string& name_b) {
  require(series_a.size() == series_b.size(),
          "render_named_fault_comparison: series size mismatch");
  std::ostringstream os;
  os << std::left << std::setw(8) << "gate" << std::setw(14) << name_a
     << std::setw(14) << name_b << "abs diff\n";
  double max_diff = 0.0;
  for (std::size_t i = 0; i < series_a.size(); ++i) {
    require(series_a[i].fault_name == series_b[i].fault_name,
            "render_named_fault_comparison: fault name mismatch");
    const double diff = std::abs(series_a[i].mean_qvf - series_b[i].mean_qvf);
    max_diff = std::max(max_diff, diff);
    os << std::left << std::setw(8) << series_a[i].fault_name << std::fixed
       << std::setprecision(4) << std::setw(14) << series_a[i].mean_qvf
       << std::setw(14) << series_b[i].mean_qvf << diff << "\n";
  }
  os << "max |diff| = " << std::fixed << std::setprecision(4) << max_diff
     << "\n";
  return os.str();
}

void write_heatmap_csv(const HeatmapGrid& grid, const std::string& path) {
  util::CsvWriter csv(path);
  std::vector<std::string> header{"phi\\theta"};
  for (double t : grid.theta_rad) header.push_back(util::CsvWriter::field(t));
  csv.write_row(header);
  for (std::size_t j = 0; j < grid.phi_rad.size(); ++j) {
    std::vector<std::string> row{util::CsvWriter::field(grid.phi_rad[j])};
    for (double v : grid.mean_qvf[j]) row.push_back(util::CsvWriter::field(v));
    csv.write_row(row);
  }
  csv.close();
}

}  // namespace qufi
