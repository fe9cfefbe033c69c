#include "analysis/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "support/campaign_stream.hpp"

namespace unp::analysis {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

/// Hand-built node logs, indexed by node slot.
struct NodeLogs {
  std::vector<telemetry::NodeLog> logs{
      static_cast<std::size_t>(cluster::kStudyNodeSlots)};

  telemetry::NodeLog& operator[](cluster::NodeId node) {
    return logs[static_cast<std::size_t>(cluster::node_index(node))];
  }

  /// The scan profile of the logs, fed per record with full framing over
  /// the default campaign window.
  [[nodiscard]] ScanProfileSink scan() const {
    ScanProfileSink sink;
    test_support::feed_logs(logs, CampaignWindow{}, sink);
    return sink;
  }
};

FaultRecord fault(cluster::NodeId node, TimePoint t, int bits = 1,
                  double temp = 35.0) {
  FaultRecord f;
  f.node = node;
  f.first_seen = t;
  f.last_seen = t;
  f.expected = 0xFFFFFFFFu;
  Word mask = 0;
  for (int b = 0; b < bits; ++b) mask |= 1u << b;
  f.actual = f.expected ^ mask;
  f.temperature_c = temp;
  return f;
}

TEST(BitClass, Mapping) {
  EXPECT_EQ(bit_class(1), 0);
  EXPECT_EQ(bit_class(5), 4);
  EXPECT_EQ(bit_class(6), 5);
  EXPECT_EQ(bit_class(9), 5);
  EXPECT_STREQ(bit_class_label(0), "1");
  EXPECT_STREQ(bit_class_label(5), "6+");
}

TEST(Grids, HoursGridPlacesNodes) {
  NodeLogs logs;
  logs[{5, 7}].add_start({0, {5, 7}, 3 * kGiB, 30.0});
  logs[{5, 7}].add_end({7200, {5, 7}, 30.0});
  logs[{0, 1}].add_start({0, {0, 1}, 3 * kGiB, 30.0});
  logs[{0, 1}].add_end({3600, {0, 1}, 30.0});
  const ScanProfileSink scan = logs.scan();
  const Grid2D& grid = scan.hours_grid();
  EXPECT_EQ(grid.rows(), 63u);
  EXPECT_EQ(grid.cols(), 15u);
  EXPECT_DOUBLE_EQ(grid.at(5, 7), 2.0);
  EXPECT_DOUBLE_EQ(grid.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(grid.sum(), 3.0);
  EXPECT_NEAR(scan.terabyte_hours_grid().at(5, 7), 6.0 / 1024.0, 1e-9);
  // The campaign totals add across nodes.
  EXPECT_DOUBLE_EQ(scan.total_monitored_hours(), 3.0);
  EXPECT_NEAR(scan.total_terabyte_hours(), 9.0 / 1024.0, 1e-9);
  EXPECT_EQ(scan.monitored_nodes(), 2);
}

TEST(Grids, ErrorsGrid) {
  const std::vector<FaultRecord> faults{fault({2, 4}, 100), fault({2, 4}, 200),
                                        fault({10, 1}, 100)};
  const Grid2D grid = errors_grid(faults);
  EXPECT_DOUBLE_EQ(grid.at(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(grid.at(10, 1), 1.0);
}

TEST(HourProfile, BucketsByLocalHour) {
  // 11:30 UTC in June = 13:30 CEST.
  const TimePoint t = from_civil_utc({2015, 6, 10, 11, 30, 0});
  const std::vector<FaultRecord> faults{fault({1, 1}, t, 2)};
  const HourOfDayProfile profile = hour_of_day_profile(faults);
  EXPECT_EQ(profile.counts[13][1], 1u);
  EXPECT_EQ(profile.total(13), 1u);
  EXPECT_EQ(profile.multibit(13), 1u);
  EXPECT_EQ(profile.multibit(11), 0u);
}

TEST(HourProfile, DayNightRatio) {
  std::vector<FaultRecord> faults;
  // 8 multi-bit by day (12:00 UTC winter = 13:00 local), 2 by night.
  for (int i = 0; i < 8; ++i) {
    faults.push_back(fault({1, 1}, from_civil_utc({2015, 2, 1 + i, 12, 0, 0}), 2));
  }
  for (int i = 0; i < 2; ++i) {
    faults.push_back(fault({1, 1}, from_civil_utc({2015, 2, 1 + i, 2, 0, 0}), 2));
  }
  const HourOfDayProfile profile = hour_of_day_profile(faults);
  EXPECT_DOUBLE_EQ(profile.day_night_ratio_multibit(), 4.0);
}

TEST(TemperatureProfile, SplitsByReadingPresence) {
  std::vector<FaultRecord> faults{
      fault({1, 1}, 100, 1, 35.0),
      fault({1, 1}, 200, 2, 65.0),
      fault({1, 1}, 300, 1, telemetry::kNoTemperature)};
  const TemperatureProfile profile = temperature_profile(faults);
  EXPECT_EQ(profile.without_reading, 1u);
  // 35 degC lands in bin (35-20)/2 = 7; 65 degC in bin 22.
  EXPECT_EQ(profile.by_class[0].count(7), 1u);
  EXPECT_EQ(profile.by_class[1].count(22), 1u);
}

TEST(DailySeries, TerabyteHoursSplitAcrossDays) {
  NodeLogs logs;
  const CampaignWindow w;
  // A 3 GiB session from 22:00 local on day 3 to 02:00 local on day 4.
  const TimePoint start = w.start + 3 * kSecondsPerDay + 21 * kSecondsPerHour;
  logs[{1, 1}].add_start({start, {1, 1}, 3 * kGiB, 30.0});
  logs[{1, 1}].add_end({start + 4 * kSecondsPerHour, {1, 1}, 30.0});
  const ScanProfileSink scan = logs.scan();
  const std::vector<double>& series = scan.daily_terabyte_hours();
  const double tb = 3.0 / 1024.0;
  EXPECT_NEAR(series[3], 2.0 * tb, 1e-9);
  EXPECT_NEAR(series[4], 2.0 * tb, 1e-9);
  double total = 0.0;
  for (double v : series) total += v;
  EXPECT_NEAR(total, 4.0 * tb, 1e-9);
}

/// The per-chunk formula accumulate_daily_terabyte_hours replaced: every
/// local-day chunk asks BarcelonaClock for its offset and campaign day.
void per_chunk_daily_terabyte_hours(const telemetry::NodeLog& log,
                                    const CampaignWindow& window,
                                    std::vector<double>& series) {
  constexpr double kBytesPerTb = 1099511627776.0;
  std::size_t e = 0;
  const auto& starts = log.starts();
  const auto& ends = log.ends();
  for (std::size_t s = 0; s < starts.size(); ++s) {
    while (e < ends.size() && ends[e].time < starts[s].time) ++e;
    const TimePoint next_start = s + 1 < starts.size() ? starts[s + 1].time : 0;
    if (e >= ends.size() ||
        (s + 1 < starts.size() && ends[e].time > next_start)) {
      continue;
    }
    const double tb = static_cast<double>(starts[s].allocated_bytes) / kBytesPerTb;
    TimePoint t = starts[s].time;
    const TimePoint session_end = ends[e].time;
    ++e;
    while (t < session_end) {
      const std::int64_t day = window.day_of_campaign(t);
      const TimePoint local_midnight =
          t + (kSecondsPerDay -
               ((t + BarcelonaClock::utc_offset(t)) % kSecondsPerDay));
      const TimePoint chunk_end = std::min(session_end, local_midnight);
      if (day >= 0 && static_cast<std::size_t>(day) < series.size()) {
        series[static_cast<std::size_t>(day)] +=
            tb * static_cast<double>(chunk_end - t) / kSecondsPerHour;
      }
      t = chunk_end;
    }
  }
}

TEST(DailySeries, TerabyteHoursMatchPerChunkOracleBitwise) {
  // Sessions of odd sizes and lengths that straddle both 2015 DST switches
  // and the 2015 -> 2016 year boundary, plus a lost END, on many nodes
  // accumulated into one series: every double must match bit for bit.
  const CampaignWindow window;
  RngStream rng(77);
  std::vector<double> got(static_cast<std::size_t>(window.duration_days()) + 2);
  std::vector<double> want(got.size());
  const TimePoint anchors[] = {from_civil_utc({2015, 3, 29, 1, 0, 0}),
                               from_civil_utc({2015, 10, 25, 1, 0, 0}),
                               from_civil_utc({2016, 1, 1, 0, 0, 0}),
                               window.start, window.end};
  for (int node = 0; node < 40; ++node) {
    telemetry::NodeLog log;
    TimePoint t = anchors[node % 5] - rng.uniform_int(0, 3 * kSecondsPerDay);
    for (int k = 0; k < 12; ++k) {
      const TimePoint end = t + rng.uniform_int(1, 5 * kSecondsPerDay);
      const std::uint64_t bytes = (1 + rng.uniform_u64(4000)) * (1ULL << 20) +
                                  rng.uniform_u64(4096);
      log.add_start({t, {1, 1}, bytes, 30.0});
      if (k != 5) log.add_end({end, {1, 1}, 30.0});
      t = end + rng.uniform_int(0, kSecondsPerDay);
    }
    accumulate_daily_terabyte_hours(log, window, got);
    per_chunk_daily_terabyte_hours(log, window, want);
  }
  double total = 0.0;
  for (std::size_t d = 0; d < got.size(); ++d) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[d]),
              std::bit_cast<std::uint64_t>(want[d]))
        << "day " << d << ": " << got[d] << " vs " << want[d];
    total += got[d];
  }
  EXPECT_GT(total, 0.0);
}

TEST(DailySeries, FarApartStartAndEndWalkOnlyTheSeries) {
  // A corrupt cache frame can decode to a session spanning 2^60 s; it must
  // cost no more than one spanning the campaign, and add exactly what a
  // session clipped to a few days either side of the window adds.
  const CampaignWindow window;
  const std::size_t days = static_cast<std::size_t>(window.duration_days()) + 2;
  const std::uint64_t bytes = 3 * kGiB + 12345;
  const TimePoint half = TimePoint{1} << 59;
  std::vector<double> wide(days), clipped(days);
  DailyTerabyteHours(window, wide)
      .add({window.start - half, {1, 1}, bytes, 30.0},
           {window.start + half, {1, 1}, 30.0});
  DailyTerabyteHours(window, clipped)
      .add({window.start - 3 * kSecondsPerDay, {1, 1}, bytes, 30.0},
           {window.end + 3 * kSecondsPerDay, {1, 1}, 30.0});
  for (std::size_t d = 0; d < days; ++d) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wide[d]),
              std::bit_cast<std::uint64_t>(clipped[d]))
        << "day " << d;
  }
  EXPECT_GT(wide.front(), 0.0);
  EXPECT_GT(wide.back(), 0.0);
}

TEST(DailySeries, ErrorsBucketByDayAndClass) {
  const CampaignWindow w;
  const std::vector<FaultRecord> faults{
      fault({1, 1}, w.start + 10 * kSecondsPerDay + 3600, 1),
      fault({1, 1}, w.start + 10 * kSecondsPerDay + 7200, 2),
      fault({1, 1}, w.start + 11 * kSecondsPerDay + 3600, 1)};
  const auto series = daily_errors(faults, w);
  EXPECT_EQ(series[10][0], 1u);
  EXPECT_EQ(series[10][1], 1u);
  EXPECT_EQ(series[11][0], 1u);
}

TEST(TopNodes, RanksAndSeparatesRest) {
  const CampaignWindow w;
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 50; ++i) faults.push_back(fault({2, 4}, w.start + i * 1000));
  for (int i = 0; i < 20; ++i) faults.push_back(fault({4, 5}, w.start + i * 1000));
  for (int i = 0; i < 10; ++i) faults.push_back(fault({58, 2}, w.start + i * 1000));
  faults.push_back(fault({30, 3}, w.start + 5000));
  const TopNodeSeries top = top_node_series(faults, w);
  ASSERT_EQ(top.nodes.size(), 3u);
  EXPECT_EQ(top.nodes[0], (cluster::NodeId{2, 4}));
  EXPECT_EQ(top.node_totals[0], 50u);
  EXPECT_EQ(top.nodes[2], (cluster::NodeId{58, 2}));
  EXPECT_EQ(top.rest_total, 1u);
}

TEST(TopNodes, FewerNodesThanRequested) {
  const CampaignWindow w;
  const std::vector<FaultRecord> faults{fault({1, 1}, w.start + 100)};
  const TopNodeSeries top = top_node_series(faults, w, 3);
  EXPECT_EQ(top.nodes.size(), 1u);
  EXPECT_EQ(top.rest_total, 0u);
}

TEST(Correlation, WiredThroughDailySeries) {
  NodeLogs logs;
  const CampaignWindow w;
  std::vector<FaultRecord> faults;
  // Sessions every day of the whole campaign with identical size; errors on
  // alternating days -> no correlation with the flat scanning series.
  for (int d = 0; d < static_cast<int>(w.duration_days()); ++d) {
    const TimePoint start = w.start + d * kSecondsPerDay + 6 * kSecondsPerHour;
    logs[{1, 1}].add_start({start, {1, 1}, 3 * kGiB, 30.0});
    logs[{1, 1}].add_end({start + 10 * kSecondsPerHour, {1, 1}, 30.0});
    if (d % 2 == 0) faults.push_back(fault({1, 1}, start + 3600));
  }
  const PearsonResult r = scan_error_correlation(
      logs.scan().daily_terabyte_hours(), daily_errors(faults, w));
  EXPECT_GT(r.n, 300u);
  EXPECT_LT(std::abs(r.r), 0.35);
}

TEST(Headline, ComputesRates) {
  NodeLogs logs;
  const CampaignWindow w;
  logs[{1, 1}].add_start({w.start, {1, 1}, 3 * kGiB, 30.0});
  logs[{1, 1}].add_end({w.start + 100 * kSecondsPerHour, {1, 1}, 30.0});
  telemetry::ErrorRecord e;
  e.node = {1, 1};
  e.time = w.start + 3600;
  e.expected = 0xFFFFFFFFu;
  e.actual = 0xFFFFFFFEu;
  logs[{1, 1}].add_error(e);

  const ExtractionResult extraction = extract_faults(logs.logs);
  const ScanProfileSink scan = logs.scan();
  const HeadlineStats stats = headline_stats(
      scan.total_monitored_hours(), scan.total_terabyte_hours(),
      scan.monitored_nodes(), scan.window(), extraction);
  EXPECT_EQ(stats.independent_faults, 1u);
  EXPECT_EQ(stats.monitored_nodes, 1);
  EXPECT_DOUBLE_EQ(stats.monitored_node_hours, 100.0);
  EXPECT_DOUBLE_EQ(stats.node_mtbf_hours, 100.0);
  EXPECT_DOUBLE_EQ(stats.cluster_mtbe_minutes,
                   static_cast<double>(w.duration_seconds()) / 60.0);
}

}  // namespace
}  // namespace unp::analysis
