#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/campaign_stream.hpp"

namespace unp::sim {
namespace {

CampaignConfig short_config(std::uint64_t seed = 5) {
  CampaignConfig config;
  config.seed = seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 15, 0, 0, 0});
  return config;
}

/// A campaign run: its summary and its records, one NodeLog per node slot.
struct CampaignRun {
  CampaignSummary summary;
  std::vector<telemetry::NodeLog> logs;

  [[nodiscard]] std::uint64_t raw_errors() const {
    std::uint64_t total = 0;
    for (const auto& log : logs) total += log.raw_error_count();
    return total;
  }
  [[nodiscard]] const telemetry::NodeLog& log(cluster::NodeId node) const {
    return logs[static_cast<std::size_t>(cluster::node_index(node))];
  }
};

CampaignRun run(const CampaignConfig& config, std::size_t threads = 1) {
  test_support::LogCollector records;
  CampaignRun out;
  out.summary = run_campaign_streaming(config, {&records}, threads);
  out.logs = std::move(records.logs);
  return out;
}

TEST(Campaign, DeterministicAcrossRuns) {
  const CampaignRun a = run(short_config());
  const CampaignRun b = run(short_config());
  EXPECT_EQ(a.summary.ground_truth.size(), b.summary.ground_truth.size());
  EXPECT_DOUBLE_EQ(a.summary.total_scanned_hours(),
                   b.summary.total_scanned_hours());
  EXPECT_EQ(a.raw_errors(), b.raw_errors());
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const CampaignRun a = run(short_config(), 1);
  const CampaignRun b = run(short_config(), 4);
  EXPECT_EQ(a.raw_errors(), b.raw_errors());
  EXPECT_DOUBLE_EQ(a.summary.total_terabyte_hours(),
                   b.summary.total_terabyte_hours());
  ASSERT_EQ(a.summary.ground_truth.size(), b.summary.ground_truth.size());
  for (std::size_t i = 0; i < a.summary.ground_truth.size(); ++i) {
    EXPECT_EQ(a.summary.ground_truth[i].time, b.summary.ground_truth[i].time);
    EXPECT_EQ(cluster::node_index(a.summary.ground_truth[i].node),
              cluster::node_index(b.summary.ground_truth[i].node));
  }
}

TEST(Campaign, SeedChangesOutcome) {
  const CampaignRun a = run(short_config(1));
  const CampaignRun b = run(short_config(2));
  EXPECT_NE(a.raw_errors(), b.raw_errors());
}

TEST(Campaign, AccountingCoversMonitoredFleet) {
  const CampaignSummary summary = run_campaign_streaming(short_config(), {});
  EXPECT_EQ(summary.accounting.size(), 923u);
  double hours = 0.0;
  for (const auto& acc : summary.accounting) {
    EXPECT_GE(acc.scanned_hours, 0.0);
    hours += acc.scanned_hours;
  }
  EXPECT_NEAR(hours, summary.total_scanned_hours(), 1e-6);
  EXPECT_GT(hours, 0.0);
}

TEST(Campaign, ArchiveAgreesWithAccounting) {
  // Hours derived from the telemetry (START/END pairs) must track the
  // planner's ground-truth hours (up to lost-END sessions).
  const CampaignRun result = run(short_config());
  double record_hours = 0.0;
  for (const auto& log : result.logs) record_hours += log.monitored_hours();
  EXPECT_NEAR(record_hours, result.summary.total_scanned_hours(),
              0.02 * result.summary.total_scanned_hours());
}

TEST(Campaign, LoginAndDeadNodesNeverLog) {
  const CampaignRun result = run(short_config());
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    if (!result.summary.topology.is_monitored(node)) {
      EXPECT_EQ(result.log(node).starts().size(), 0u);
      EXPECT_EQ(result.log(node).raw_error_count(), 0u);
    }
  }
}

TEST(Campaign, GroundTruthSortedAndOnMonitoredNodes) {
  const CampaignSummary summary = run_campaign_streaming(short_config(), {});
  for (std::size_t i = 0; i < summary.ground_truth.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(summary.ground_truth[i - 1].time, summary.ground_truth[i].time);
    }
    EXPECT_TRUE(summary.topology.is_monitored(summary.ground_truth[i].node));
  }
}

/// Every node's log of the full seed-3 campaign (the December window needs
/// all of it), indexed by node slot.
const std::vector<telemetry::NodeLog>& seed3_logs() {
  static const std::vector<telemetry::NodeLog> logs = [] {
    CampaignConfig config;
    config.seed = 3;
    test_support::LogCollector collector;
    (void)run_campaign_streaming(config, {&collector},
                                 default_campaign_threads());
    return std::move(collector.logs);
  }();
  return logs;
}

const telemetry::NodeLog& seed3_log(cluster::NodeId node) {
  return seed3_logs()[static_cast<std::size_t>(cluster::node_index(node))];
}

TEST(Campaign, SpecialOutagesSilenceDegradingNodeInDecember) {
  const auto& log = seed3_log(CampaignConfig{}.faults.degrading.node);
  int december_sessions = 0;
  for (const auto& start : log.starts()) {
    const CivilDateTime c = to_civil_utc(start.time);
    if (c.year == 2015 && c.month == 12) ++december_sessions;
    // No session may begin inside the unmonitored stretch.
    EXPECT_FALSE(start.time >= from_civil_utc({2015, 11, 26, 12, 0, 0}) &&
                 start.time < from_civil_utc({2015, 12, 12, 9, 0, 0}))
        << format_iso8601(start.time);
  }
  EXPECT_GT(december_sessions, 0);  // the short re-test window
}

TEST(Campaign, PathologicalNodeStopsAtRemoval) {
  const CampaignConfig config;
  const auto& log = seed3_log(config.faults.pathological.node);
  for (const auto& start : log.starts()) {
    EXPECT_LT(start.time, config.faults.pathological.removal);
  }
  EXPECT_GT(log.raw_error_count(), 1000000u);
}

/// The streaming campaign simulates exactly the world plan_campaign plans:
/// same events, same order, every field.
void expect_plan_truth_matches_stream(const CampaignConfig& config) {
  const CampaignPlan plan = plan_campaign(config);
  const CampaignSummary summary = run_campaign_streaming(config, {}, 2);
  ASSERT_FALSE(plan.ground_truth.empty());
  ASSERT_EQ(plan.ground_truth.size(), summary.ground_truth.size());
  for (std::size_t i = 0; i < plan.ground_truth.size(); ++i) {
    const faults::FaultEvent& a = plan.ground_truth[i];
    const faults::FaultEvent& b = summary.ground_truth[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(cluster::node_index(a.node), cluster::node_index(b.node));
    EXPECT_EQ(a.mechanism, b.mechanism);
    EXPECT_EQ(a.persistence, b.persistence);
    EXPECT_EQ(a.active_until, b.active_until);
    EXPECT_EQ(a.words, b.words);
  }
}

TEST(CampaignPlan, GroundTruthMatchesTheStreamingCampaign) {
  expect_plan_truth_matches_stream(short_config());
}

TEST(CampaignPlan, HammerGroundTruthMatchesTheStreamingCampaign) {
  CampaignConfig config = short_config(17);
  config.faults.enable_hammer = true;
  config.faults.hammer.hammered_node_fraction = 0.10;
  config.faults.hammer.episodes_per_node_mean = 2.0;
  expect_plan_truth_matches_stream(config);
}

}  // namespace
}  // namespace unp::sim
