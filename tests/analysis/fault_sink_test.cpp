// The fault-analysis engine's acceptance property: every incremental
// analyzer is bit-identical to its batch counterpart on the full seed-42
// campaign, and the run_fault_sinks fan-out is invariant to thread count.
#include "analysis/fault_sink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/alignment.hpp"
#include "analysis/bitstats.hpp"
#include "analysis/grouping.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/markov.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "cluster/topology.hpp"
#include "common/thread_pool.hpp"
#include "dram/address_map.hpp"
#include "sim/campaign.hpp"
#include "telemetry/kernels/kernels.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {
namespace {

const ExtractionResult& default_extraction() {
  static const ExtractionResult result =
      extract_faults(sim::default_campaign().archive);
  return result;
}

FaultView default_faults() { return default_extraction().faults; }

const CampaignWindow& default_window() {
  return sim::default_campaign().archive.window();
}

void expect_grid_eq(const Grid2D& streamed, const Grid2D& batch) {
  ASSERT_EQ(streamed.rows(), batch.rows());
  ASSERT_EQ(streamed.cols(), batch.cols());
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    for (std::size_t c = 0; c < batch.cols(); ++c) {
      EXPECT_EQ(streamed.at(r, c), batch.at(r, c)) << "cell " << r << "," << c;
    }
  }
}

void expect_temperature_eq(const TemperatureProfile& streamed,
                           const TemperatureProfile& batch) {
  EXPECT_EQ(streamed.without_reading, batch.without_reading);
  ASSERT_EQ(streamed.by_class.size(), batch.by_class.size());
  for (std::size_t k = 0; k < batch.by_class.size(); ++k) {
    const Histogram1D& s = streamed.by_class[k];
    const Histogram1D& b = batch.by_class[k];
    ASSERT_EQ(s.bins(), b.bins());
    EXPECT_EQ(s.underflow(), b.underflow());
    EXPECT_EQ(s.overflow(), b.overflow());
    for (std::size_t bin = 0; bin < b.bins(); ++bin) {
      EXPECT_EQ(s.count(bin), b.count(bin)) << "class " << k << " bin " << bin;
    }
  }
}

void expect_top_nodes_eq(const TopNodeSeries& streamed,
                         const TopNodeSeries& batch) {
  EXPECT_EQ(streamed.nodes, batch.nodes);
  EXPECT_EQ(streamed.node_totals, batch.node_totals);
  EXPECT_EQ(streamed.per_day, batch.per_day);
  EXPECT_EQ(streamed.rest_per_day, batch.rest_per_day);
  EXPECT_EQ(streamed.rest_total, batch.rest_total);
}

void expect_regime_eq(const AutoRegime& streamed, const AutoRegime& batch) {
  EXPECT_EQ(streamed.excluded, batch.excluded);
  EXPECT_EQ(streamed.regime.degraded, batch.regime.degraded);
  EXPECT_EQ(streamed.regime.errors_per_day, batch.regime.errors_per_day);
  EXPECT_EQ(streamed.regime.normal_days, batch.regime.normal_days);
  EXPECT_EQ(streamed.regime.degraded_days, batch.regime.degraded_days);
  EXPECT_EQ(streamed.regime.normal_errors, batch.regime.normal_errors);
  EXPECT_EQ(streamed.regime.degraded_errors, batch.regime.degraded_errors);
  EXPECT_EQ(streamed.regime.normal_mtbf_hours, batch.regime.normal_mtbf_hours);
  EXPECT_EQ(streamed.regime.degraded_mtbf_hours,
            batch.regime.degraded_mtbf_hours);
}

void expect_groups_eq(const std::vector<SimultaneousGroup>& streamed,
                      const std::vector<SimultaneousGroup>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t g = 0; g < batch.size(); ++g) {
    EXPECT_EQ(streamed[g].node, batch[g].node) << "group " << g;
    EXPECT_EQ(streamed[g].time, batch[g].time) << "group " << g;
    ASSERT_EQ(streamed[g].members.size(), batch[g].members.size())
        << "group " << g;
    for (std::size_t m = 0; m < batch[g].members.size(); ++m) {
      // Both analyses ran over the same FaultView, so matching members are
      // the same FaultRecord objects.
      EXPECT_EQ(streamed[g].members[m], batch[g].members[m])
          << "group " << g << " member " << m;
    }
  }
}

// The full analyzer fleet the unified report driver fans out, plus the
// shared address map the alignment analyzer projects through.
struct Fleet {
  ErrorsGridAnalyzer errors_grid;
  MultibitPatternAnalyzer patterns;
  AdjacencyAnalyzer adjacency;
  DirectionAnalyzer direction;
  SimultaneousGroupAnalyzer grouping;
  HourOfDayAnalyzer hourly;
  TemperatureAnalyzer temperature;
  DailyErrorsAnalyzer daily;
  TopNodeAnalyzer top_nodes;
  NodePatternCensus node_patterns;
  RegimeAnalyzer regime;
  InterArrivalAnalyzer interarrival;
  RegimeDynamicsAnalyzer dynamics;
  dram::AddressMap map{dram::default_geometry()};
  AlignmentAnalyzer alignment{map};

  std::vector<FaultSink*> sinks() {
    return {&errors_grid, &patterns,     &adjacency, &direction,
            &grouping,    &hourly,       &temperature, &daily,
            &top_nodes,   &node_patterns, &regime,    &interarrival,
            &dynamics,    &alignment};
  }
};

void run_fleet(Fleet& fleet, ThreadPool* pool) {
  const std::vector<FaultSink*> sinks = fleet.sinks();
  const std::vector<FaultSinkTiming> timings =
      run_fault_sinks(default_faults(), {default_window()}, sinks, pool);
  ASSERT_EQ(timings.size(), sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(timings[i].sink, sinks[i]);
    EXPECT_GE(timings[i].milliseconds, 0.0);
  }
}

void expect_fleet_matches_batch(Fleet& fleet) {
  const FaultView faults = default_faults();
  const CampaignWindow& window = default_window();

  expect_grid_eq(fleet.errors_grid.grid(), errors_grid(faults));
  EXPECT_EQ(fleet.patterns.patterns(), multibit_patterns(faults));
  EXPECT_EQ(fleet.adjacency.stats(), adjacency_stats(faults));
  EXPECT_EQ(fleet.direction.stats(), direction_stats(faults));
  expect_groups_eq(fleet.grouping.groups(), group_simultaneous(faults));
  EXPECT_EQ(fleet.hourly.profile().counts, hour_of_day_profile(faults).counts);
  expect_temperature_eq(fleet.temperature.profile(),
                        temperature_profile(faults));
  EXPECT_EQ(fleet.daily.series(), daily_errors(faults, window));

  const TopNodeSeries batch_top = top_node_series(faults, window);
  expect_top_nodes_eq(fleet.top_nodes.series(), batch_top);
  for (const auto& node : batch_top.nodes) {
    EXPECT_EQ(fleet.node_patterns.profile(node),
              node_pattern_profile(faults, node));
  }

  const AutoRegime batch_regime =
      classify_regime_excluding_loudest(faults, window);
  expect_regime_eq(fleet.regime.result(), batch_regime);

  std::vector<cluster::NodeId> excluded;
  if (batch_regime.excluded) excluded.push_back(*batch_regime.excluded);
  EXPECT_EQ(fleet.interarrival.stats(), interarrival_stats(faults, excluded));
  EXPECT_EQ(fleet.interarrival.excluded(), batch_regime.excluded);

  const std::vector<bool> days(
      batch_regime.regime.degraded.begin(),
      batch_regime.regime.degraded.begin() +
          static_cast<std::ptrdiff_t>(window.duration_days()));
  const MarkovRegimeModel batch_model = fit_markov_regime(days);
  EXPECT_EQ(fleet.dynamics.days(), days);
  EXPECT_EQ(fleet.dynamics.model().p_stay_normal, batch_model.p_stay_normal);
  EXPECT_EQ(fleet.dynamics.model().p_stay_degraded, batch_model.p_stay_degraded);
  EXPECT_EQ(fleet.dynamics.model().transitions_observed,
            batch_model.transitions_observed);
  const SpellStats batch_spells = spell_stats(days);
  EXPECT_EQ(fleet.dynamics.spells().mean_normal_spell,
            batch_spells.mean_normal_spell);
  EXPECT_EQ(fleet.dynamics.spells().mean_degraded_spell,
            batch_spells.mean_degraded_spell);
  EXPECT_EQ(fleet.dynamics.spells().normal_spells, batch_spells.normal_spells);
  EXPECT_EQ(fleet.dynamics.spells().degraded_spells,
            batch_spells.degraded_spells);
  EXPECT_EQ(fleet.dynamics.spells().longest_degraded_spell,
            batch_spells.longest_degraded_spell);

  const std::vector<SimultaneousGroup> batch_groups = group_simultaneous(faults);
  const AlignmentStats batch_alignment =
      physical_alignment_stats(batch_groups, fleet.map);
  EXPECT_EQ(fleet.alignment.stats().groups_examined,
            batch_alignment.groups_examined);
  EXPECT_EQ(fleet.alignment.stats().same_row, batch_alignment.same_row);
  EXPECT_EQ(fleet.alignment.stats().same_column, batch_alignment.same_column);
  EXPECT_EQ(fleet.alignment.stats().same_bank, batch_alignment.same_bank);
  EXPECT_EQ(fleet.alignment.stats().scattered, batch_alignment.scattered);
  EXPECT_EQ(fleet.alignment.stats().with_aligned_pair,
            batch_alignment.with_aligned_pair);
  const LogicalSpread batch_spread = logical_spread(batch_groups);
  EXPECT_EQ(fleet.alignment.spread().mean_span_bytes,
            batch_spread.mean_span_bytes);
  EXPECT_EQ(fleet.alignment.spread().max_span_bytes,
            batch_spread.max_span_bytes);
}

// The acceptance property: every streaming analyzer reproduces its batch
// counterpart bit-for-bit over the full seed-42 campaign.
TEST(FaultSink, EveryAnalyzerMatchesItsBatchCounterpart) {
  ASSERT_GT(default_faults().size(), 10000u);
  Fleet fleet;
  run_fleet(fleet, nullptr);
  expect_fleet_matches_batch(fleet);
}

// One task per sink over a stable view: products must not depend on the
// pool's thread count.
TEST(FaultSink, ProductsInvariantAcrossThreadCounts) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    Fleet fleet;
    run_fleet(fleet, &pool);
    expect_fleet_matches_batch(fleet);
  }
}

void expect_scan_profile_matches_archive(bool bulk) {
  const sim::CampaignResult& campaign = sim::default_campaign();

  ScanProfileSink scan;
  scan.begin_campaign(campaign.archive.window());
  std::string scratch;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    scan.begin_node(node);
    if (bulk) {
      telemetry::EncodedNodeLog enc(node, campaign.archive.log(node), scratch,
                                    telemetry::kernels::active_encode_kernels());
      scan.on_node_log(enc);
    } else {
      telemetry::replay_node_log(campaign.archive.log(node), scan);
    }
    scan.end_node(node);
  }
  scan.end_campaign();

  expect_grid_eq(scan.hours_grid(), hours_scanned_grid(campaign.archive));
  expect_grid_eq(scan.terabyte_hours_grid(),
                 terabyte_hours_grid(campaign.archive));
  EXPECT_EQ(scan.daily_terabyte_hours(),
            daily_terabyte_hours(campaign.archive));

  const HeadlineStats batch = headline_stats(campaign.archive,
                                             default_extraction());
  const HeadlineStats streamed = headline_stats(
      scan.total_monitored_hours(), scan.total_terabyte_hours(),
      scan.monitored_nodes(), scan.window(), default_extraction());
  EXPECT_EQ(streamed.raw_logs, batch.raw_logs);
  EXPECT_EQ(streamed.removed_fraction, batch.removed_fraction);
  EXPECT_EQ(streamed.independent_faults, batch.independent_faults);
  EXPECT_EQ(streamed.monitored_node_hours, batch.monitored_node_hours);
  EXPECT_EQ(streamed.terabyte_hours, batch.terabyte_hours);
  EXPECT_EQ(streamed.monitored_nodes, batch.monitored_nodes);
  EXPECT_EQ(streamed.node_mtbf_hours, batch.node_mtbf_hours);
  EXPECT_EQ(streamed.cluster_mtbe_minutes, batch.cluster_mtbe_minutes);
}

// The record-level sink: scan totals, grids and the daily series from a
// framed replay, per record or as bulk node logs, must equal the
// archive-based batch metrics.
TEST(FaultSink, ScanProfileSinkMatchesArchiveMetrics) {
  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk" : "per-record");
    expect_scan_profile_matches_archive(bulk);
  }
}

// Sinks with default framing handle an empty stream without touching a
// single fault.
TEST(FaultSink, EmptyStreamYieldsEmptyProducts) {
  Fleet fleet;
  const std::vector<FaultSink*> sinks = fleet.sinks();
  const std::vector<FaultSinkTiming> timings =
      run_fault_sinks({}, {default_window()}, sinks, nullptr);
  EXPECT_EQ(timings.size(), sinks.size());
  EXPECT_TRUE(fleet.patterns.patterns().empty());
  EXPECT_TRUE(fleet.grouping.groups().empty());
  EXPECT_EQ(fleet.interarrival.stats().gaps, 0u);
  EXPECT_EQ(fleet.top_nodes.series().rest_total, 0u);
}

}  // namespace
}  // namespace unp::analysis
