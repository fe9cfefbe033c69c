// Closed-loop campaign: actuated quarantines must reduce what the scanner
// observes, deterministically, with consistent accounting.
#include "policy/loop.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/extraction.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/civil_time.hpp"
#include "sim/campaign.hpp"

namespace unp::policy {
namespace {

ClosedLoopConfig short_config(std::size_t threads = 1) {
  ClosedLoopConfig config;
  config.campaign.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.campaign.window.end = from_civil_utc({2015, 11, 1, 0, 0, 0});
  // Hair trigger so the short window reliably actuates.
  config.controller.trigger_threshold = 0;
  config.controller.period_days = 10;
  config.threads = threads;
  return config;
}

TEST(ClosedLoop, ActuationReducesObservedErrors) {
  const ClosedLoopResult result = run_closed_loop(short_config());
  EXPECT_GT(result.open_loop_errors, 0u);
  EXPECT_GT(result.quarantine_entries, 0u);
  EXPECT_LT(result.closed_loop_errors, result.open_loop_errors);
  EXPECT_GT(result.closed_mtbf_hours, result.open_mtbf_hours);
  EXPECT_GT(result.scan_seconds_removed, 0);
  EXPECT_GT(result.node_days_quarantined, 0.0);
}

TEST(ClosedLoop, AccountingIsConsistent) {
  const ClosedLoopResult result = run_closed_loop(short_config());

  std::uint64_t cuts = 0, retirements = 0;
  std::int64_t removed = 0;
  for (const Actuation& a : result.actuations) {
    if (a.is_retirement) {
      ++retirements;
    } else {
      ++cuts;
      removed += a.summary.seconds_removed;
    }
  }
  EXPECT_EQ(cuts, result.quarantine_entries);
  EXPECT_EQ(retirements, result.pages_retired);
  EXPECT_EQ(removed, result.scan_seconds_removed);

  std::uint64_t open = 0, closed = 0;
  int per_node_actuations = 0;
  for (const ClosedLoopNodeReport& node : result.per_node) {
    open += node.open_faults;
    closed += node.closed_faults;
    per_node_actuations += node.actuations;
    EXPECT_GE(node.rounds, 1);
  }
  EXPECT_EQ(open, result.open_loop_errors);
  EXPECT_EQ(closed, result.closed_loop_errors);
  EXPECT_EQ(static_cast<std::size_t>(per_node_actuations),
            result.actuations.size());
}

// The closed loop's open-loop pass is the open-loop campaign: each node the
// extraction keeps shows up with exactly its extracted fault count, unless
// the loop excluded it.
TEST(ClosedLoop, OpenLoopPassMatchesTheExtractedCampaign) {
  const ClosedLoopConfig config = short_config(2);
  const ClosedLoopResult result = run_closed_loop(config);
  analysis::StreamingExtractor extractor(config.extraction);
  (void)sim::run_campaign_streaming(config.campaign, {&extractor}, 2);
  const analysis::ExtractionResult extracted = extractor.finish();

  std::map<int, std::uint64_t> extracted_per_node;
  for (const analysis::FaultRecord& f : extracted.faults)
    ++extracted_per_node[cluster::node_index(f.node)];
  ASSERT_FALSE(extracted_per_node.empty());

  std::set<int> excluded;
  for (const cluster::NodeId node : result.excluded_nodes)
    excluded.insert(cluster::node_index(node));
  std::map<int, std::uint64_t> reported;
  for (const ClosedLoopNodeReport& node : result.per_node)
    reported[cluster::node_index(node.node)] = node.open_faults;

  for (const auto& [node, count] : extracted_per_node) {
    if (excluded.contains(node)) continue;
    SCOPED_TRACE(node);
    ASSERT_TRUE(reported.contains(node));
    EXPECT_EQ(reported[node], count);
  }
}

TEST(ClosedLoop, DeterministicAcrossRunsAndThreads) {
  const ClosedLoopResult a = run_closed_loop(short_config(1));
  const ClosedLoopResult b = run_closed_loop(short_config(1));
  const ClosedLoopResult c = run_closed_loop(short_config(2));
  for (const ClosedLoopResult* other : {&b, &c}) {
    EXPECT_EQ(a.open_loop_errors, other->open_loop_errors);
    EXPECT_EQ(a.closed_loop_errors, other->closed_loop_errors);
    EXPECT_EQ(a.quarantine_entries, other->quarantine_entries);
    EXPECT_EQ(a.quarantined_seconds, other->quarantined_seconds);
    EXPECT_EQ(a.scan_seconds_removed, other->scan_seconds_removed);
    EXPECT_EQ(a.actuations.size(), other->actuations.size());
    EXPECT_EQ(a.causal_static_waste, other->causal_static_waste);
    EXPECT_EQ(a.causal_adaptive_waste, other->causal_adaptive_waste);
  }
}

TEST(ClosedLoop, PageRetirementRemovesRepeatOffenders) {
  ClosedLoopConfig config = short_config();
  config.controller.period_days = 0;  // isolate retirement
  config.controller.retire_page_repeats = 2;
  const ClosedLoopResult result = run_closed_loop(config);
  // Whether any page repeats twice in two months is data-dependent; the
  // invariants that must hold either way:
  EXPECT_EQ(result.quarantine_entries, 0u);
  EXPECT_EQ(result.scan_seconds_removed, 0);
  EXPECT_LE(result.closed_loop_errors, result.open_loop_errors);
}

}  // namespace
}  // namespace unp::policy
