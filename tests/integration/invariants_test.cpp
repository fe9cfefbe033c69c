// Cross-cutting invariants over the full default campaign: conservation
// laws and structural guarantees that must hold regardless of calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/extraction.hpp"
#include "analysis/grouping.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"

namespace unp {
namespace {

const sim::CampaignResult& campaign() { return sim::default_campaign(); }

TEST(Invariants, RawLogConservationThroughExtraction) {
  // Every raw ERROR line is either attributed to a fault or removed with a
  // pathological node - none invented, none lost.
  const analysis::ExtractionResult extraction =
      analysis::extract_faults(campaign().archive);
  std::uint64_t attributed = 0;
  for (const auto& f : extraction.faults) attributed += f.raw_logs;
  EXPECT_EQ(attributed + extraction.removed_raw_logs, extraction.total_raw_logs);
}

TEST(Invariants, ErrorRecordsLieInsideSessions) {
  // Every ERROR timestamp must fall between a START and its END; the
  // scanner cannot observe anything while a job owns the memory.
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const auto& log = campaign().archive.log(cluster::node_from_index(i));
    if (log.error_runs().empty()) continue;

    // Build session intervals with the conservative pairing.
    std::vector<std::pair<TimePoint, TimePoint>> sessions;
    std::size_t e = 0;
    const auto& starts = log.starts();
    const auto& ends = log.ends();
    for (std::size_t s = 0; s < starts.size(); ++s) {
      while (e < ends.size() && ends[e].time < starts[s].time) ++e;
      if (e < ends.size()) sessions.emplace_back(starts[s].time, ends[e].time);
    }
    for (const auto& run : log.error_runs()) {
      const TimePoint first = run.first.time;
      const TimePoint last = run.last_time();
      const bool inside = std::any_of(
          sessions.begin(), sessions.end(), [&](const auto& w) {
            return first > w.first && last <= w.second;
          });
      // END-lost sessions have no recorded end; allow errors after the last
      // session start as well.
      const bool after_open_start =
          !starts.empty() && first > starts.back().time;
      EXPECT_TRUE(inside || after_open_start)
          << cluster::node_name(cluster::node_from_index(i)) << " error at "
          << format_iso8601(first);
    }
  }
}

TEST(Invariants, TemperaturePresenceMatchesSensorEpoch) {
  const TimePoint sensors = sim::SessionSimConfig{}.sensors_online;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const auto& log = campaign().archive.log(cluster::node_from_index(i));
    for (const auto& run : log.error_runs()) {
      EXPECT_EQ(telemetry::has_temperature(run.first.temperature_c),
                run.first.time >= sensors)
          << format_iso8601(run.first.time);
    }
    for (const auto& start : log.starts()) {
      EXPECT_EQ(telemetry::has_temperature(start.temperature_c),
                start.time >= sensors);
    }
  }
}

TEST(Invariants, ErrorsCarryTheirNodeIdentity) {
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    const auto& log = campaign().archive.log(node);
    for (const auto& run : log.error_runs()) {
      EXPECT_EQ(run.first.node, node);
    }
  }
}

TEST(Invariants, VirtualAddressesInsideScanBuffer) {
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const auto& log = campaign().archive.log(cluster::node_from_index(i));
    for (const auto& run : log.error_runs()) {
      EXPECT_LT(run.first.virtual_address, cluster::kScannableBytes);
      EXPECT_EQ(run.first.virtual_address % sizeof(Word), 0u);
      EXPECT_EQ(run.first.physical_page, run.first.virtual_address >> 12);
    }
  }
}

TEST(Invariants, ObservedValueAlwaysDiffersFromExpected) {
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const auto& log = campaign().archive.log(cluster::node_from_index(i));
    for (const auto& run : log.error_runs()) {
      EXPECT_NE(run.first.expected, run.first.actual);
      EXPECT_GE(run.first.flipped_bits(), 1);
    }
  }
}

TEST(Invariants, GroupingConservesFaults) {
  const analysis::ExtractionResult extraction =
      analysis::extract_faults(campaign().archive);
  const auto groups = analysis::group_simultaneous(extraction.faults);
  std::size_t members = 0;
  for (const auto& g : groups) {
    EXPECT_GE(g.members.size(), 1u);
    members += g.members.size();
    for (const auto* f : g.members) {
      EXPECT_EQ(f->first_seen, g.time);
      EXPECT_EQ(f->node, g.node);
    }
  }
  EXPECT_EQ(members, extraction.faults.size());
}

TEST(Invariants, FullCampaignThreadParity) {
  // The default campaign must be bit-identical however many threads run it.
  sim::CampaignConfig config;
  const sim::CampaignResult parallel = sim::run_campaign(config, 4);
  EXPECT_EQ(parallel.archive.total_raw_errors(),
            campaign().archive.total_raw_errors());
  EXPECT_DOUBLE_EQ(parallel.total_terabyte_hours(),
                   campaign().total_terabyte_hours());
  EXPECT_EQ(parallel.summary.ground_truth.size(), campaign().summary.ground_truth.size());
  std::ostringstream a(std::ios::binary), b(std::ios::binary);
  telemetry::save_archive_stream(parallel.archive, a);
  telemetry::save_archive_stream(campaign().archive, b);
  EXPECT_TRUE(a.view() == b.view());  // byte-for-byte identical telemetry
}

TEST(Invariants, MonitoredHoursNeverExceedWallClock) {
  const double wall_hours =
      static_cast<double>(campaign().archive.window().duration_seconds()) /
      kSecondsPerHour;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const double hours =
        campaign().archive.log(cluster::node_from_index(i)).monitored_hours();
    EXPECT_GE(hours, 0.0);
    EXPECT_LE(hours, wall_hours + 1e-6);
  }
}

}  // namespace
}  // namespace unp
