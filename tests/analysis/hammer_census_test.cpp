// The Rowhammer census sinks: on a short hammer-enabled campaign each of
// the six products equals a direct per-node HammerRowDetector replay of the
// extracted faults, for any thread count, and a node is never merged twice.
#include "analysis/hammer_census.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "common/bitops.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"

namespace unp::analysis {
namespace {

sim::CampaignConfig hammer_config() {
  sim::CampaignConfig config;
  config.seed = 17;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 15, 0, 0, 0});
  config.faults.enable_hammer = true;
  config.faults.hammer.hammered_node_fraction = 0.10;
  config.faults.hammer.episodes_per_node_mean = 2.0;
  return config;
}

const bench::CampaignData& campaign() {
  static const bench::CampaignData data = bench::simulate_data(hammer_config());
  return data;
}

const ExtractionResult& extraction() { return campaign().extraction; }

FaultStreamContext context() { return {campaign().scan.window()}; }

/// The census computed the direct way: every fault through one detector
/// per node, keyed by node index.
HammerCensus direct_replay(const std::string& geometry, bool fold) {
  const dram::mapping::DramMapping mapping(
      dram::mapping::make_mapping_config(geometry));
  const std::uint64_t total = mapping.total_words();
  std::map<int, faults::hammer::HammerRowDetector> per_node;
  for (const FaultRecord& f : extraction().faults) {
    std::uint64_t word = f.virtual_address / sizeof(Word);
    if (fold) {
      word &= total - 1;
    } else if (word >= total) {
      continue;
    }
    per_node.try_emplace(cluster::node_index(f.node), mapping,
                         faults::hammer::DetectorConfig{})
        .first->second.observe(f.first_seen, word);
  }
  HammerCensus census;
  for (const auto& [node, det] : per_node) {
    census.rows_triggered += det.detections().size();
    census.absorbable += det.absorbable_faults();
    if (!det.detections().empty()) ++census.nodes_triggered;
    for (const faults::hammer::DetectedRow& d : det.detections()) {
      census.max_words = std::max(census.max_words, d.distinct_words);
      if (!fold) census.ledger.push_back({node, d});
    }
  }
  return census;
}

void expect_equal(const HammerCensus& got, const HammerCensus& want) {
  EXPECT_EQ(got.rows_triggered, want.rows_triggered);
  EXPECT_EQ(got.nodes_triggered, want.nodes_triggered);
  EXPECT_EQ(got.absorbable, want.absorbable);
  EXPECT_EQ(got.max_words, want.max_words);
  ASSERT_EQ(got.ledger.size(), want.ledger.size());
  for (std::size_t i = 0; i < got.ledger.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "ledger row " << i);
    EXPECT_EQ(got.ledger[i].node_index, want.ledger[i].node_index);
    EXPECT_EQ(got.ledger[i].row.bank, want.ledger[i].row.bank);
    EXPECT_EQ(got.ledger[i].row.row, want.ledger[i].row.row);
    EXPECT_EQ(got.ledger[i].row.trigger_time, want.ledger[i].row.trigger_time);
    EXPECT_EQ(got.ledger[i].row.distinct_words,
              want.ledger[i].row.distinct_words);
  }
}

void expect_matches_direct_replay(const HammerCensusSet& set) {
  ASSERT_EQ(set.geometries.size(), dram::mapping::mapping_menu().size());
  for (const auto& sink : set.geometries) {
    SCOPED_TRACE(sink->label());
    expect_equal(sink->census(), direct_replay(sink->geometry(), true));
  }
  SCOPED_TRACE(set.ledger.label());
  expect_equal(set.ledger.census(), direct_replay("lpddr3:mb", false));
}

TEST(HammerCensus, ProductsEqualDirectDetectorReplay) {
  HammerCensusSet set;
  run_fault_sinks(extraction().faults, context(), set.sinks());
  // The hammered nodes make the products non-trivial.
  EXPECT_GT(set.ledger.census().ledger.size(), 10u);
  EXPECT_GT(set.ledger.census().nodes_triggered, 1u);
  for (const auto& sink : set.geometries)
    EXPECT_GT(sink->census().rows_triggered, 0u) << sink->label();
  expect_matches_direct_replay(set);
}

TEST(HammerCensus, ProductsEqualOnAPool) {
  ThreadPool pool(4);
  HammerCensusSet set;
  run_fault_sinks(extraction().faults, context(), set.sinks(), &pool);
  expect_matches_direct_replay(set);
}

TEST(HammerCensus, NodePartitionedMergeEqualsOnePass) {
  constexpr int kParts = 3;
  HammerCensusSet total;
  const std::vector<FaultSink*> into = total.sinks();
  for (FaultSink* sink : into) sink->begin_faults(context());
  for (int p = 0; p < kParts; ++p) {
    HammerCensusSet part;
    const std::vector<FaultSink*> from = part.sinks();
    for (FaultSink* sink : from) sink->begin_faults(context());
    for (const FaultRecord& f : extraction().faults) {
      if (cluster::node_index(f.node) % kParts != p) continue;
      for (FaultSink* sink : from) sink->on_fault(f);
    }
    for (std::size_t k = 0; k < from.size(); ++k)
      into[k]->merge_state(from[k]->serialize_state());
  }
  for (FaultSink* sink : into) sink->end_faults();
  expect_matches_direct_replay(total);
}

TEST(HammerCensus, MergingTheSameNodeTwiceIsRefused) {
  const auto fed = [](HammerCensusSink& sink) {
    sink.begin_faults(context());
    for (const FaultRecord& f : extraction().faults) sink.on_fault(f);
  };
  HammerCensusSink a("lpddr3:mb", HammerCensusSink::Mode::kLedger);
  HammerCensusSink b("lpddr3:mb", HammerCensusSink::Mode::kLedger);
  fed(a);
  fed(b);
  const std::string blob = a.serialize_state();

  // Two partial states holding the same nodes.
  HammerCensusSink total("lpddr3:mb", HammerCensusSink::Mode::kLedger);
  total.begin_faults(context());
  total.merge_state(blob);
  EXPECT_THROW(total.merge_state(b.serialize_state()), ContractViolation);
  // The refused merge changed nothing.
  EXPECT_EQ(total.serialize_state(), blob);

  // A node streamed locally, then merged.
  EXPECT_THROW(b.merge_state(blob), ContractViolation);
  // A node merged, then streamed locally.
  EXPECT_THROW(total.on_fault(extraction().faults.front()), ContractViolation);
}

}  // namespace
}  // namespace unp::analysis
