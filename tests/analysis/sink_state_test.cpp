// The sink-state algebra (FaultSink::serialize_state / merge_state): for
// every analyzer, partitioning the fault stream by node, serializing the
// per-partition accumulators and merging the blobs yields a state
// byte-identical to the monolithic pass — for any partition count — and the
// finalized products match the monolithic products exactly.
#include "analysis/fault_sink.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/alignment.hpp"
#include "analysis/bitstats.hpp"
#include "analysis/grouping.hpp"
#include "analysis/hammer_census.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/markov.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "cluster/topology.hpp"
#include "common/require.hpp"
#include "dram/address_map.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"

namespace unp::analysis {
namespace {

sim::CampaignConfig short_config() {
  sim::CampaignConfig config;
  config.seed = 7;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 15, 0, 0, 0});
  return config;
}

const bench::CampaignData& campaign() {
  static const bench::CampaignData data = bench::simulate_data(short_config());
  return data;
}

const ExtractionResult& extraction() { return campaign().extraction; }

FaultStreamContext context() { return {campaign().scan.window()}; }

/// Every mergeable analyzer, in one fixed order (mirrors the report fleet).
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
  HammerCensusSet hammer;  // five folded geometries, then the ledger

  std::vector<FaultSink*> sinks() {
    std::vector<FaultSink*> all = {
        &errors_grid, &patterns,      &adjacency, &direction,
        &grouping,    &hourly,        &temperature, &daily,
        &top_nodes,   &node_patterns, &regime,    &interarrival,
        &dynamics,    &alignment};
    for (FaultSink* sink : hammer.sinks()) all.push_back(sink);
    return all;
  }
};

const std::vector<const char*>& sink_names() {
  static const std::vector<const char*> names = {
      "errors_grid",     "patterns",        "adjacency",
      "direction",       "grouping",        "hourly",
      "temperature",     "daily",           "top_nodes",
      "node_patterns",   "regime",          "interarrival",
      "dynamics",        "alignment",       "hammer:ddr3:1ch",
      "hammer:ddr3:2ch", "hammer:ddr4:1ch", "hammer:ddr4:2ch",
      "hammer:lpddr3:mb", "hammer-ledger"};
  return names;
}

void begin_all(Fleet& fleet) {
  for (FaultSink* sink : fleet.sinks()) sink->begin_faults(context());
}

void feed(Fleet& fleet, int parts, int part) {
  const std::vector<FaultSink*> sinks = fleet.sinks();
  for (const FaultRecord& fault : extraction().faults) {
    if (cluster::node_index(fault.node) % parts != part) continue;
    for (FaultSink* sink : sinks) sink->on_fault(fault);
  }
}

std::vector<std::string> serialize_all(Fleet& fleet) {
  std::vector<std::string> blobs;
  for (FaultSink* sink : fleet.sinks()) blobs.push_back(sink->serialize_state());
  return blobs;
}

// The invariance property: merged partial states serialize to the exact
// bytes of the monolithic state, for K in {1, 2, 8}.
TEST(SinkState, MergedStateBytesInvariantAcrossPartitionCounts) {
  ASSERT_GT(extraction().faults.size(), 100u);

  Fleet mono;
  begin_all(mono);
  feed(mono, 1, 0);
  const std::vector<std::string> mono_blobs = serialize_all(mono);

  for (const int parts : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "parts=" << parts);
    Fleet total;
    begin_all(total);
    const std::vector<FaultSink*> into = total.sinks();
    for (int p = 0; p < parts; ++p) {
      Fleet shard;
      begin_all(shard);
      feed(shard, parts, p);
      const std::vector<FaultSink*> from = shard.sinks();
      for (std::size_t k = 0; k < from.size(); ++k)
        into[k]->merge_state(from[k]->serialize_state());
    }
    const std::vector<std::string> merged_blobs = serialize_all(total);
    ASSERT_EQ(merged_blobs.size(), mono_blobs.size());
    for (std::size_t k = 0; k < mono_blobs.size(); ++k) {
      EXPECT_EQ(merged_blobs[k], mono_blobs[k]) << sink_names()[k];
    }
  }
}

// After end_faults, the aggregated analyzers publish the same products as a
// monolithic pass (spot-checked on every product family).
TEST(SinkState, AggregatedProductsMatchMonolithic) {
  Fleet mono;
  begin_all(mono);
  feed(mono, 1, 0);
  for (FaultSink* sink : mono.sinks()) sink->end_faults();

  constexpr int kParts = 4;
  Fleet total;
  begin_all(total);
  const std::vector<FaultSink*> into = total.sinks();
  for (int p = 0; p < kParts; ++p) {
    Fleet shard;
    begin_all(shard);
    feed(shard, kParts, p);
    const std::vector<FaultSink*> from = shard.sinks();
    for (std::size_t k = 0; k < from.size(); ++k)
      into[k]->merge_state(from[k]->serialize_state());
  }
  for (FaultSink* sink : total.sinks()) sink->end_faults();

  EXPECT_EQ(total.errors_grid.grid().sum(), mono.errors_grid.grid().sum());
  EXPECT_EQ(total.patterns.patterns(), mono.patterns.patterns());
  EXPECT_EQ(total.adjacency.stats(), mono.adjacency.stats());
  EXPECT_EQ(total.direction.stats(), mono.direction.stats());
  for (int b = 0; b <= MultibitViewpoints::kMaxBits; ++b) {
    EXPECT_EQ(total.grouping.viewpoints().per_word[b],
              mono.grouping.viewpoints().per_word[b]) << "bits " << b;
    EXPECT_EQ(total.grouping.viewpoints().per_node[b],
              mono.grouping.viewpoints().per_node[b]) << "bits " << b;
  }
  EXPECT_EQ(total.grouping.co_occurrence().simultaneous_corruptions,
            mono.grouping.co_occurrence().simultaneous_corruptions);
  EXPECT_EQ(total.hourly.profile().counts, mono.hourly.profile().counts);
  EXPECT_EQ(total.daily.series(), mono.daily.series());
  EXPECT_EQ(total.top_nodes.series().nodes, mono.top_nodes.series().nodes);
  EXPECT_EQ(total.top_nodes.series().node_totals,
            mono.top_nodes.series().node_totals);
  EXPECT_EQ(total.regime.result().excluded, mono.regime.result().excluded);
  EXPECT_EQ(total.regime.result().regime.errors_per_day,
            mono.regime.result().regime.errors_per_day);
  EXPECT_EQ(total.interarrival.stats(), mono.interarrival.stats());
  EXPECT_EQ(total.dynamics.days(), mono.dynamics.days());
  EXPECT_EQ(total.alignment.stats().groups_examined,
            mono.alignment.stats().groups_examined);
  EXPECT_EQ(total.alignment.stats().scattered, mono.alignment.stats().scattered);
  EXPECT_EQ(total.alignment.spread().mean_span_bytes,
            mono.alignment.spread().mean_span_bytes);
  EXPECT_EQ(total.alignment.spread().max_span_bytes,
            mono.alignment.spread().max_span_bytes);
  const std::vector<FaultSink*> census_total = total.hammer.sinks();
  const std::vector<FaultSink*> census_mono = mono.hammer.sinks();
  for (std::size_t k = 0; k < census_total.size(); ++k) {
    const auto& t = static_cast<HammerCensusSink*>(census_total[k])->census();
    const auto& m = static_cast<HammerCensusSink*>(census_mono[k])->census();
    EXPECT_EQ(t.rows_triggered, m.rows_triggered) << k;
    EXPECT_EQ(t.nodes_triggered, m.nodes_triggered) << k;
    EXPECT_EQ(t.absorbable, m.absorbable) << k;
    EXPECT_EQ(t.max_words, m.max_words) << k;
    EXPECT_EQ(t.ledger.size(), m.ledger.size()) << k;
  }
}

// Mixing locally streamed faults with merged partials is part of the
// contract: local faults count as one more partition.
TEST(SinkState, LocalFaultsMixWithMergedPartials) {
  Fleet mono;
  begin_all(mono);
  feed(mono, 1, 0);
  const std::vector<std::string> mono_blobs = serialize_all(mono);

  Fleet mixed;
  begin_all(mixed);
  feed(mixed, 2, 0);  // partition 0 streamed locally
  {
    Fleet other;
    begin_all(other);
    feed(other, 2, 1);  // partition 1 arrives as a serialized state
    const std::vector<FaultSink*> from = other.sinks();
    const std::vector<FaultSink*> into = mixed.sinks();
    for (std::size_t k = 0; k < from.size(); ++k)
      into[k]->merge_state(from[k]->serialize_state());
  }
  const std::vector<std::string> mixed_blobs = serialize_all(mixed);
  for (std::size_t k = 0; k < mono_blobs.size(); ++k) {
    EXPECT_EQ(mixed_blobs[k], mono_blobs[k]) << sink_names()[k];
  }
}

TEST(SinkState, DefaultImplementationsReject) {
  class Plain final : public FaultSink {
   public:
    void on_fault(const FaultRecord&) override {}
  };
  Plain sink;
  EXPECT_THROW((void)sink.serialize_state(), ContractViolation);
  EXPECT_THROW(sink.merge_state(""), ContractViolation);
}

TEST(SinkState, MergeRejectsForeignAndCorruptBlobs) {
  Fleet fleet;
  begin_all(fleet);
  const std::string grid_blob = fleet.errors_grid.serialize_state();
  // Wrong sink: the tag byte identifies the accumulator type.
  EXPECT_THROW(fleet.hourly.merge_state(grid_blob), ContractViolation);
  // Truncated payload.
  EXPECT_THROW(
      fleet.errors_grid.merge_state(grid_blob.substr(0, grid_blob.size() / 2)),
      ContractViolation);
  // Trailing garbage.
  EXPECT_THROW(fleet.errors_grid.merge_state(grid_blob + "xx"),
               ContractViolation);
  // Empty blob.
  EXPECT_THROW(fleet.errors_grid.merge_state(""), ContractViolation);

  // The census sinks hold per-node outcomes; feed one partition so the
  // blobs carry nodes.
  Fleet fed;
  begin_all(fed);
  feed(fed, 2, 0);
  HammerCensusSink& ledger = fleet.hammer.ledger;
  HammerCensusSink& folded = *fleet.hammer.geometries.front();
  for (HammerCensusSink* sink : {&fed.hammer.ledger,
                                 fed.hammer.geometries.front().get()}) {
    const std::string blob = sink->serialize_state();
    HammerCensusSink& into = sink == &fed.hammer.ledger ? ledger : folded;
    SCOPED_TRACE(into.label());
    for (std::size_t cut = 0; cut < blob.size(); ++cut)
      EXPECT_THROW(into.merge_state(blob.substr(0, cut)), ContractViolation)
          << "cut " << cut;
    EXPECT_THROW(into.merge_state(blob + "xx"), ContractViolation);
    // Wrong tag: another sink's blob, or the other census mode's.
    EXPECT_THROW(into.merge_state(grid_blob), ContractViolation);
    EXPECT_THROW(
        (&into == &ledger ? folded : ledger).merge_state(blob),
        ContractViolation);
  }
  // Same mode, other geometry.
  EXPECT_THROW(fleet.hammer.geometries[1]->merge_state(
                   fed.hammer.geometries[0]->serialize_state()),
               ContractViolation);
  // None of the rejected blobs merged anything.
  Fleet empty;
  begin_all(empty);
  EXPECT_EQ(ledger.serialize_state(), empty.hammer.ledger.serialize_state());
  EXPECT_EQ(folded.serialize_state(),
            empty.hammer.geometries.front()->serialize_state());
}

}  // namespace
}  // namespace unp::analysis
