// Cross-cutting invariants over the full default campaign: conservation
// laws and structural guarantees that must hold regardless of calibration.
// The records are walked once, one node at a time, from the campaign's UNPS
// stream, and every per-record invariant is checked in that one walk; the
// faults come from streaming that stream into the extractor.
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

/// The default campaign on one thread, the reference the thread-parity
/// test compares a 4-thread run against: its UNPS stream and its summary.
struct DefaultRun {
  std::string stream;
  sim::CampaignSummary summary;
};

const DefaultRun& default_run() {
  static const DefaultRun run = [] {
    DefaultRun out;
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    out.summary =
        sim::run_campaign_streaming(sim::CampaignConfig{}, {&writer}, 1);
    out.stream = std::move(os).str();
    return out;
  }();
  return run;
}

/// What the one walk over the default campaign's records found: for each
/// per-record invariant, a description of every record that breaks it.
struct WalkFindings {
  std::vector<std::string> outside_sessions;
  std::vector<std::string> temperature_epoch;
  std::vector<std::string> foreign_node;
  std::vector<std::string> outside_buffer;
  std::vector<std::string> unchanged_word;
  std::vector<std::string> hours_over_wall;
  std::size_t nodes = 0;
  std::uint64_t runs = 0;
};

std::string where(cluster::NodeId node, TimePoint t) {
  return cluster::node_name(node) + " at " + format_iso8601(t);
}

/// Every per-record check in one pass: node 21-07's 2.27 M runs are
/// decoded once, not once per invariant.
WalkFindings walk_default_campaign() {
  WalkFindings found;
  const TimePoint sensors = sim::SessionSimConfig{}.sensors_online;
  const double wall_hours =
      static_cast<double>(sim::CampaignConfig{}.window.duration_seconds()) /
      kSecondsPerHour;
  test_support::for_each_node_log(
      default_run().stream,
      [&](cluster::NodeId node, const telemetry::NodeLog& log) {
        ++found.nodes;
        found.runs += log.error_runs().size();
        const auto& starts = log.starts();
        const auto& ends = log.ends();

        // Every ERROR timestamp must fall between a START and its END (with
        // the conservative pairing); END-lost sessions have no recorded
        // end, so errors after the last START count as inside too.
        std::vector<std::pair<TimePoint, TimePoint>> sessions;
        std::size_t e = 0;
        for (std::size_t s = 0; s < starts.size(); ++s) {
          while (e < ends.size() && ends[e].time < starts[s].time) ++e;
          if (e < ends.size()) sessions.emplace_back(starts[s].time, ends[e].time);
        }

        for (const auto& run : log.error_runs()) {
          const telemetry::ErrorRecord& r = run.first;
          const TimePoint last = run.last_time();
          const bool inside = std::any_of(
              sessions.begin(), sessions.end(), [&](const auto& w) {
                return r.time > w.first && last <= w.second;
              });
          const bool after_open_start =
              !starts.empty() && r.time > starts.back().time;
          if (!inside && !after_open_start)
            found.outside_sessions.push_back(where(node, r.time));
          if (telemetry::has_temperature(r.temperature_c) != (r.time >= sensors))
            found.temperature_epoch.push_back(where(node, r.time));
          if (r.node != node) found.foreign_node.push_back(where(node, r.time));
          if (r.virtual_address >= cluster::kScannableBytes ||
              r.virtual_address % sizeof(Word) != 0 ||
              r.physical_page != r.virtual_address >> 12)
            found.outside_buffer.push_back(where(node, r.time));
          if (r.expected == r.actual || r.flipped_bits() < 1)
            found.unchanged_word.push_back(where(node, r.time));
        }
        for (const auto& start : starts) {
          if (telemetry::has_temperature(start.temperature_c) !=
              (start.time >= sensors))
            found.temperature_epoch.push_back(where(node, start.time));
        }

        const double hours = log.monitored_hours();
        if (hours < 0.0 || hours > wall_hours + 1e-6)
          found.hours_over_wall.push_back(cluster::node_name(node));
      });
  return found;
}

const WalkFindings& walk_findings() {
  static const WalkFindings found = walk_default_campaign();
  return found;
}

/// Passes when `what` found no record; else names the first few.
testing::AssertionResult none(const std::vector<std::string>& what) {
  if (what.empty()) return testing::AssertionSuccess();
  auto failure = testing::AssertionFailure() << what.size() << " records:";
  for (std::size_t i = 0; i < std::min<std::size_t>(what.size(), 5); ++i)
    failure << " " << what[i];
  return failure;
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
  // The scanner cannot observe anything while a job owns the memory.
  EXPECT_TRUE(none(walk_findings().outside_sessions));
  EXPECT_EQ(walk_findings().nodes, default_run().summary.accounting.size());
  EXPECT_GT(walk_findings().runs, 2'000'000u);
}

TEST(Invariants, TemperaturePresenceMatchesSensorEpoch) {
  EXPECT_TRUE(none(walk_findings().temperature_epoch));
}

TEST(Invariants, ErrorsCarryTheirNodeIdentity) {
  EXPECT_TRUE(none(walk_findings().foreign_node));
}

TEST(Invariants, VirtualAddressesInsideScanBuffer) {
  EXPECT_TRUE(none(walk_findings().outside_buffer));
}

TEST(Invariants, ObservedValueAlwaysDiffersFromExpected) {
  EXPECT_TRUE(none(walk_findings().unchanged_word));
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
  // The default campaign must be bit-identical however many threads run it:
  // 4 threads (node 21-07 split four ways) against the 1-thread reference.
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
  EXPECT_TRUE(none(walk_findings().hours_over_wall));
}

}  // namespace
}  // namespace unp
