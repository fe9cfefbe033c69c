#include "analysis/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "support/campaign_stream.hpp"

namespace unp::analysis {
namespace {

FaultRecord fault(cluster::NodeId node, TimePoint t, int bits = 1,
                  double temp = 35.0) {
  FaultRecord f;
  f.node = node;
  f.first_seen = t;
  f.last_seen = t;
  f.virtual_address = 4096;
  f.expected = 0xFFFFFFFFu;
  Word mask = 0;
  for (int b = 0; b < bits; ++b) mask |= 1u << b;
  f.actual = f.expected ^ mask;
  f.temperature_c = temp;
  return f;
}

int count_lines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n';
  return lines;
}

TEST(Export, GridCsvShape) {
  Grid2D grid(63, 15);
  grid.at(2, 4) = 7.0;
  const std::string csv = csv_grid(grid, "errors");
  EXPECT_EQ(count_lines(csv), 1 + 63 * 15);
  EXPECT_NE(csv.find("blade,soc,errors\n"), std::string::npos);
  EXPECT_NE(csv.find("2,4,7\n"), std::string::npos);
}

TEST(Export, HourProfileCsvShape) {
  HourOfDayProfile profile;
  profile.counts[13][1] = 5;  // five 2-bit errors at 13:00
  const std::string csv = csv_hour_profile(profile);
  EXPECT_EQ(count_lines(csv), 25);
  EXPECT_NE(csv.find("13,0,5,0,0,0,0,5,5\n"), std::string::npos);
}

/// The scan profile of node logs (indexed by node slot) over the default
/// campaign window, fed per record.
ScanProfileSink scan_of(const std::vector<telemetry::NodeLog>& logs) {
  ScanProfileSink scan;
  test_support::feed_logs(logs, CampaignWindow{}, scan);
  return scan;
}

TEST(Export, DailyCsvHasDates) {
  const CampaignWindow w;
  const std::vector<FaultRecord> faults{
      fault({1, 1}, w.start + 10 * kSecondsPerDay + 3600, 2)};
  const std::string csv = csv_daily(scan_of({}), faults);
  EXPECT_NE(csv.find("2015-02-11"), std::string::npos);
  EXPECT_NE(csv.find(",1,1\n"), std::string::npos);  // one error, one multibit
}

TEST(Export, FaultsCsvFields) {
  const std::vector<FaultRecord> faults{
      fault({2, 4}, from_civil_utc({2015, 11, 3, 7, 8, 9}), 2),
      fault({1, 1}, from_civil_utc({2015, 3, 1, 0, 0, 0}), 1,
            telemetry::kNoTemperature)};
  const std::string csv = csv_faults(faults);
  EXPECT_NE(csv.find("02-04,2015-11-03T07:08:09"), std::string::npos);
  EXPECT_NE(csv.find(",2,35.00"), std::string::npos);
  EXPECT_NE(csv.find(",1,NA"), std::string::npos);
}

TEST(Export, ViewpointsSkipsEmptyRows) {
  MultibitViewpoints v;
  v.per_word[1] = 10;
  v.per_node[3] = 2;
  const std::string csv = csv_viewpoints(v);
  EXPECT_EQ(count_lines(csv), 3);  // header + bits 1 + bits 3
  EXPECT_NE(csv.find("1,10,0\n"), std::string::npos);
  EXPECT_NE(csv.find("3,0,2\n"), std::string::npos);
}

TEST(Export, FigureBundleWritesAllFiles) {
  const auto dir =
      std::filesystem::temp_directory_path() / "unp_export_test";
  std::filesystem::remove_all(dir);

  const CampaignWindow w;
  std::vector<telemetry::NodeLog> logs(
      static_cast<std::size_t>(cluster::node_index({1, 1})) + 1);
  logs.back().add_start({w.start, {1, 1}, 3ULL << 30, 30.0});
  logs.back().add_end({w.start + 3600, {1, 1}, 30.0});
  ExtractionResult extraction;
  extraction.faults.push_back(fault({1, 1}, w.start + 100));

  const int files = write_figure_bundle(dir.string(), scan_of(logs), extraction);
  EXPECT_EQ(files, 8);
  EXPECT_TRUE(std::filesystem::exists(dir / "fig01_hours_scanned.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "faults.csv"));
  EXPECT_GT(std::filesystem::file_size(dir / "fig09_fig10_fig11_daily.csv"),
            1000u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace unp::analysis
