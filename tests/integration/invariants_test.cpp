// Cross-cutting invariants over the full default campaign: conservation
// laws and structural guarantees that must hold regardless of calibration.
// The records are walked one node at a time from the campaign's UNPS
// stream; the faults come from streaming that stream into the extractor.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "analysis/extraction.hpp"
#include "analysis/grouping.hpp"
#include "analysis/streaming_extractor.hpp"
#include "sim/campaign.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"

namespace unp {
namespace {

/// The default campaign on every hardware thread: its UNPS stream and its
/// summary.
struct DefaultRun {
  std::string stream;
  sim::CampaignSummary summary;
};

const DefaultRun& default_run() {
  static const DefaultRun run = [] {
    DefaultRun out;
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    out.summary = sim::run_campaign_streaming(
        sim::CampaignConfig{}, {&writer}, sim::default_campaign_threads());
    out.stream = std::move(os).str();
    return out;
  }();
  return run;
}

/// Visit every node log of the default campaign as f(node, log).
template <class F>
void for_each_log(F&& f) {
  test_support::for_each_node_log(default_run().stream, f);
}

const analysis::ExtractionResult& default_extraction() {
  static const analysis::ExtractionResult result = [] {
    analysis::StreamingExtractor extractor;
    (void)test_support::feed_bulk(default_run().stream, extractor);
    return extractor.finish();
  }();
  return result;
}

TEST(Invariants, RawLogConservationThroughExtraction) {
  // Every raw ERROR line is either attributed to a fault or removed with a
  // pathological node - none invented, none lost.
  const analysis::ExtractionResult& extraction = default_extraction();
  std::uint64_t attributed = 0;
  for (const auto& f : extraction.faults) attributed += f.raw_logs;
  EXPECT_EQ(attributed + extraction.removed_raw_logs, extraction.total_raw_logs);
}

TEST(Invariants, ErrorRecordsLieInsideSessions) {
  // Every ERROR timestamp must fall between a START and its END; the
  // scanner cannot observe anything while a job owns the memory.
  for_each_log([](cluster::NodeId node, const telemetry::NodeLog& log) {
    if (log.error_runs().empty()) return;

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
          << cluster::node_name(node) << " error at " << format_iso8601(first);
    }
  });
}

TEST(Invariants, TemperaturePresenceMatchesSensorEpoch) {
  const TimePoint sensors = sim::SessionSimConfig{}.sensors_online;
  for_each_log([&](cluster::NodeId, const telemetry::NodeLog& log) {
    for (const auto& run : log.error_runs()) {
      EXPECT_EQ(telemetry::has_temperature(run.first.temperature_c),
                run.first.time >= sensors)
          << format_iso8601(run.first.time);
    }
    for (const auto& start : log.starts()) {
      EXPECT_EQ(telemetry::has_temperature(start.temperature_c),
                start.time >= sensors);
    }
  });
}

TEST(Invariants, ErrorsCarryTheirNodeIdentity) {
  for_each_log([](cluster::NodeId node, const telemetry::NodeLog& log) {
    for (const auto& run : log.error_runs()) {
      EXPECT_EQ(run.first.node, node);
    }
  });
}

TEST(Invariants, VirtualAddressesInsideScanBuffer) {
  for_each_log([](cluster::NodeId, const telemetry::NodeLog& log) {
    for (const auto& run : log.error_runs()) {
      EXPECT_LT(run.first.virtual_address, cluster::kScannableBytes);
      EXPECT_EQ(run.first.virtual_address % sizeof(Word), 0u);
      EXPECT_EQ(run.first.physical_page, run.first.virtual_address >> 12);
    }
  });
}

TEST(Invariants, ObservedValueAlwaysDiffersFromExpected) {
  for_each_log([](cluster::NodeId, const telemetry::NodeLog& log) {
    for (const auto& run : log.error_runs()) {
      EXPECT_NE(run.first.expected, run.first.actual);
      EXPECT_GE(run.first.flipped_bits(), 1);
    }
  });
}

TEST(Invariants, GroupingConservesFaults) {
  const analysis::ExtractionResult& extraction = default_extraction();
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
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  analysis::StreamingExtractor extractor;
  const sim::CampaignSummary parallel =
      sim::run_campaign_streaming(sim::CampaignConfig{}, {&writer, &extractor}, 4);
  const DefaultRun& reference = default_run();
  EXPECT_EQ(extractor.raw_errors_seen(), default_extraction().total_raw_logs);
  EXPECT_DOUBLE_EQ(parallel.total_terabyte_hours(),
                   reference.summary.total_terabyte_hours());
  EXPECT_EQ(parallel.ground_truth.size(), reference.summary.ground_truth.size());
  EXPECT_TRUE(os.view() == reference.stream);  // byte-for-byte identical telemetry
}

TEST(Invariants, MonitoredHoursNeverExceedWallClock) {
  const double wall_hours =
      static_cast<double>(sim::CampaignConfig{}.window.duration_seconds()) /
      kSecondsPerHour;
  for_each_log([&](cluster::NodeId, const telemetry::NodeLog& log) {
    const double hours = log.monitored_hours();
    EXPECT_GE(hours, 0.0);
    EXPECT_LE(hours, wall_hours + 1e-6);
  });
}

}  // namespace
}  // namespace unp
