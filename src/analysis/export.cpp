#include "analysis/export.hpp"

#include <cstdarg>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/require.hpp"

namespace unp::analysis {

namespace {

void append_line(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_line(std::string& out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  out += buf;
  out += '\n';
}

}  // namespace

std::string csv_grid(const Grid2D& grid, const std::string& header) {
  std::string out = "blade,soc," + header + "\n";
  for (std::size_t b = 0; b < grid.rows(); ++b) {
    for (std::size_t s = 0; s < grid.cols(); ++s) {
      append_line(out, "%zu,%zu,%.6g", b, s, grid.at(b, s));
    }
  }
  return out;
}

std::string csv_hour_profile(const HourOfDayProfile& profile) {
  std::string out = "hour,bits1,bits2,bits3,bits4,bits5,bits6plus,total,multibit\n";
  for (int h = 0; h < 24; ++h) {
    char row[160];
    int written = std::snprintf(row, sizeof row, "%d", h);
    for (int c = 0; c < kBitClasses; ++c) {
      written += std::snprintf(
          row + written, sizeof row - static_cast<std::size_t>(written),
          ",%" PRIu64,
          profile.counts[static_cast<std::size_t>(h)][static_cast<std::size_t>(c)]);
    }
    std::snprintf(row + written, sizeof row - static_cast<std::size_t>(written),
                  ",%" PRIu64 ",%" PRIu64, profile.total(h), profile.multibit(h));
    out += row;
    out += '\n';
  }
  return out;
}

std::string csv_temperature_profile(const TemperatureProfile& profile) {
  std::string out = "bin_lo_c,bin_hi_c,bits1,bits2,bits3,bits4,bits5,bits6plus\n";
  for (std::size_t bin = 0; bin < TemperatureProfile::kBins; ++bin) {
    char row[160];
    int written = std::snprintf(row, sizeof row, "%.1f,%.1f",
                                profile.by_class[0].bin_lo(bin),
                                profile.by_class[0].bin_lo(bin) +
                                    profile.by_class[0].bin_width());
    for (int c = 0; c < kBitClasses; ++c) {
      written += std::snprintf(
          row + written, sizeof row - static_cast<std::size_t>(written),
          ",%" PRIu64,
          profile.by_class[static_cast<std::size_t>(c)].count(bin));
    }
    out += row;
    out += '\n';
  }
  return out;
}

std::string csv_daily(const ScanProfileSink& scan, FaultView faults) {
  const CampaignWindow& window = scan.window();
  const std::vector<double>& tbh = scan.daily_terabyte_hours();
  const auto errors = daily_errors(faults, window);

  std::string out = "day,date,tbh_scanned,errors,multibit_errors\n";
  const std::size_t days = std::min(tbh.size(), errors.size());
  for (std::size_t d = 0; d < days; ++d) {
    const CivilDateTime c =
        to_civil_utc(window.start + static_cast<TimePoint>(d) * kSecondsPerDay);
    std::uint64_t total = 0, multibit = 0;
    for (int k = 0; k < kBitClasses; ++k) {
      total += errors[d][static_cast<std::size_t>(k)];
      if (k >= 1) multibit += errors[d][static_cast<std::size_t>(k)];
    }
    append_line(out, "%zu,%04d-%02d-%02d,%.4f,%" PRIu64 ",%" PRIu64, d, c.year,
                c.month, c.day, tbh[d], total, multibit);
  }
  return out;
}

std::string csv_faults(FaultView faults) {
  std::string out =
      "node,first_seen,last_seen,raw_logs,vaddr,expected,actual,bits,temp_c\n";
  for (const auto& f : faults) {
    char temp[32];
    if (telemetry::has_temperature(f.temperature_c)) {
      std::snprintf(temp, sizeof temp, "%.2f", f.temperature_c);
    } else {
      std::snprintf(temp, sizeof temp, "NA");
    }
    append_line(out,
                "%s,%s,%s,%" PRIu64 ",0x%" PRIx64 ",0x%08x,0x%08x,%d,%s",
                cluster::node_name(f.node).c_str(),
                format_iso8601(f.first_seen).c_str(),
                format_iso8601(f.last_seen).c_str(), f.raw_logs,
                f.virtual_address, f.expected, f.actual, f.flipped_bits(),
                temp);
  }
  return out;
}

std::string csv_viewpoints(const MultibitViewpoints& viewpoints) {
  std::string out = "bits,per_word,per_node\n";
  for (int bits = 1; bits <= MultibitViewpoints::kMaxBits; ++bits) {
    if (viewpoints.per_word[bits] == 0 && viewpoints.per_node[bits] == 0) continue;
    append_line(out, "%d,%" PRIu64 ",%" PRIu64, bits, viewpoints.per_word[bits],
                viewpoints.per_node[bits]);
  }
  return out;
}

int write_figure_bundle(const std::string& directory,
                        const ScanProfileSink& scan,
                        const ExtractionResult& extraction) {
  std::filesystem::create_directories(directory);
  int files = 0;
  auto write = [&](const std::string& name, const std::string& content) {
    std::ofstream os(std::filesystem::path(directory) / name,
                     std::ios::trunc);
    UNP_REQUIRE(os.good());
    os << content;
    UNP_REQUIRE(os.good());
    ++files;
  };

  write("fig01_hours_scanned.csv",
        csv_grid(scan.hours_grid(), "hours"));
  write("fig02_terabyte_hours.csv",
        csv_grid(scan.terabyte_hours_grid(), "terabyte_hours"));
  write("fig03_errors_per_node.csv",
        csv_grid(errors_grid(extraction.faults), "errors"));
  const auto groups = group_simultaneous(extraction.faults);
  write("fig04_viewpoints.csv", csv_viewpoints(count_viewpoints(groups)));
  write("fig05_fig06_hourly.csv",
        csv_hour_profile(hour_of_day_profile(extraction.faults)));
  write("fig07_fig08_temperature.csv",
        csv_temperature_profile(temperature_profile(extraction.faults)));
  write("fig09_fig10_fig11_daily.csv", csv_daily(scan, extraction.faults));
  write("faults.csv", csv_faults(extraction.faults));
  return files;
}

}  // namespace unp::analysis
