#include "analysis/extraction.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/streaming_extractor.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"

namespace unp::analysis {
namespace {

telemetry::ErrorRecord make_error(TimePoint t, std::uint64_t vaddr,
                                  Word expected = 0xFFFFFFFFu,
                                  Word actual = 0xFFFFFFFEu) {
  telemetry::ErrorRecord r;
  r.time = t;
  r.node = {3, 3};
  r.virtual_address = vaddr;
  r.expected = expected;
  r.actual = actual;
  return r;
}

TEST(Collapse, SingleLogIsOneFault) {
  telemetry::NodeLog log;
  log.add_error(make_error(1000, 64));
  const auto faults = collapse_node_log({3, 3}, log, 300);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].raw_logs, 1u);
  EXPECT_EQ(faults[0].first_seen, 1000);
  EXPECT_EQ(faults[0].flipped_bits(), 1);
}

TEST(Collapse, RunCollapsesToOneFault) {
  // The paper: thousands of consecutive iterations -> one memory error.
  telemetry::NodeLog log;
  log.add_error_run({make_error(1000, 64), 150, 5000});
  const auto faults = collapse_node_log({3, 3}, log, 300);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].raw_logs, 5000u);
  EXPECT_EQ(faults[0].first_seen, 1000);
  EXPECT_EQ(faults[0].last_seen, 1000 + 150 * 4999);
}

TEST(Collapse, NearbyLogsSameAddressMerge) {
  telemetry::NodeLog log;
  log.add_error(make_error(1000, 64));
  log.add_error(make_error(1200, 64));  // 200 s later, within the window
  const auto faults = collapse_node_log({3, 3}, log, 300);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].raw_logs, 2u);
}

TEST(Collapse, DistantLogsSameAddressStaySeparate) {
  // A clean stretch longer than the window: the weak bit leaked twice.
  telemetry::NodeLog log;
  log.add_error(make_error(1000, 64));
  log.add_error(make_error(10000, 64));
  const auto faults = collapse_node_log({3, 3}, log, 300);
  EXPECT_EQ(faults.size(), 2u);
}

TEST(Collapse, DifferentAddressesNeverMerge) {
  telemetry::NodeLog log;
  log.add_error(make_error(1000, 64));
  log.add_error(make_error(1001, 128));
  const auto faults = collapse_node_log({3, 3}, log, 300);
  EXPECT_EQ(faults.size(), 2u);
}

TEST(Collapse, ChainOfRunsMerges) {
  // Two-phase stuck fault: interleaved runs at the same address fuse.
  telemetry::NodeLog log;
  log.add_error_run({make_error(1000, 64, 0xFFFFFFFFu, 0xFFFFFFFEu), 200, 10});
  log.add_error_run({make_error(1100, 64, 0x00000000u, 0x00000002u), 200, 10});
  const auto faults = collapse_node_log({3, 3}, log, 300);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].raw_logs, 20u);
  // Representative context is the first observation.
  EXPECT_EQ(faults[0].expected, 0xFFFFFFFFu);
}

TEST(Collapse, OutputSortedByTime) {
  telemetry::NodeLog log;
  log.add_error(make_error(5000, 64));
  log.add_error(make_error(1000, 128));
  log.add_error(make_error(3000, 256));
  const auto faults = collapse_node_log({3, 3}, log, 300);
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_LT(faults[0].first_seen, faults[1].first_seen);
  EXPECT_LT(faults[1].first_seen, faults[2].first_seen);
}

TEST(Collapse, SplitInvariance) {
  // Property: representing the same raw stream as one run or as many
  // adjacent runs must extract identical faults.
  telemetry::NodeLog one;
  one.add_error_run({make_error(1000, 64), 100, 30});
  telemetry::NodeLog split;
  split.add_error_run({make_error(1000, 64), 100, 10});
  split.add_error_run({make_error(2000, 64), 100, 10});
  split.add_error_run({make_error(3000, 64), 100, 10});
  const auto a = collapse_node_log({3, 3}, one, 300);
  const auto b = collapse_node_log({3, 3}, split, 300);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].raw_logs, b[0].raw_logs);
  EXPECT_EQ(a[0].first_seen, b[0].first_seen);
  EXPECT_EQ(a[0].last_seen, b[0].last_seen);
}

/// Node logs indexed by node slot, each run on the log of its own node.
std::vector<telemetry::NodeLog> logs_of(
    std::initializer_list<telemetry::ErrorRun> runs) {
  std::vector<telemetry::NodeLog> logs(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (const auto& run : runs)
    logs[static_cast<std::size_t>(cluster::node_index(run.first.node))]
        .add_error_run(run);
  return logs;
}

/// Extract `logs` three ways and hold each result to `want`, written out by
/// hand: the reference extract_faults, and a StreamingExtractor fed per
/// record and through a spilled stream (ArchiveWriter, then
/// ArchiveReader::drain).
void expect_extraction(const std::vector<telemetry::NodeLog>& logs,
                       const ExtractionResult& want) {
  const CampaignWindow window;
  StreamingExtractor per_record;
  test_support::feed_logs(logs, window, per_record);
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  test_support::feed_logs(logs, window, writer);
  StreamingExtractor drained;
  (void)test_support::feed_bulk(os.str(), drained);

  const std::pair<const char*, ExtractionResult> results[] = {
      {"extract_faults", extract_faults(logs)},
      {"per-record feed", per_record.finish()},
      {"drained stream", drained.finish()}};
  for (const auto& [name, got] : results) {
    SCOPED_TRACE(name);
    EXPECT_EQ(got.total_raw_logs, want.total_raw_logs);
    EXPECT_EQ(got.removed_raw_logs, want.removed_raw_logs);
    EXPECT_EQ(got.removed_nodes, want.removed_nodes);
    EXPECT_EQ(got.faults, want.faults);
  }
}

TEST(Extract, PathologicalNodeFiltered) {
  // A node drowning the campaign in raw logs...
  telemetry::ErrorRecord bad = make_error(1000, 64);
  bad.node = {9, 9};
  // ...and a normal node with two real faults.
  telemetry::ErrorRecord ok = make_error(2000, 64);
  ok.node = {1, 1};
  ok.temperature_c = 41.5;
  telemetry::ErrorRecord again = ok;
  again.time = 100000;
  again.temperature_c = telemetry::kNoTemperature;
  const std::vector<telemetry::NodeLog> logs =
      logs_of({{bad, 150, 2000000}, {ok, 0, 1}, {again, 0, 1}});

  ExtractionResult want;
  want.total_raw_logs = 2000002;
  want.removed_raw_logs = 2000000;
  want.removed_nodes = {{9, 9}};
  want.faults = {
      // node   first   last    raw vaddr expected     actual       temp
      {{1, 1}, 2000, 2000, 1, 64, 0xFFFFFFFFu, 0xFFFFFFFEu, 41.5},
      {{1, 1}, 100000, 100000, 1, 64, 0xFFFFFFFFu, 0xFFFFFFFEu,
       telemetry::kNoTemperature}};
  expect_extraction(logs, want);
  EXPECT_GT(extract_faults(logs).removed_fraction(), 0.99);
}

TEST(Extract, SmallNoisyNodeKept) {
  // Below the absolute threshold a node is loud but not pathological.
  telemetry::ErrorRecord r = make_error(1000, 64);
  r.node = {9, 9};
  ExtractionResult want;
  want.total_raw_logs = 5000;
  want.faults = {
      // node   first  last            raw   vaddr expected     actual
      {{9, 9}, 1000, 1000 + 150 * 4999, 5000, 64, 0xFFFFFFFFu, 0xFFFFFFFEu,
       telemetry::kNoTemperature}};
  expect_extraction(logs_of({{r, 150, 5000}}), want);
}

TEST(Extract, FaultRecordDerivedFields) {
  FaultRecord f;
  f.expected = 0xFFFFFFFFu;
  f.actual = 0xFFFF7BFFu;
  EXPECT_EQ(f.flip_mask(), 0x00008400u);
  EXPECT_EQ(f.flipped_bits(), 2);
  EXPECT_TRUE(f.is_multibit());
}

}  // namespace
}  // namespace unp::analysis
