// The record-level sinks must be bit-identical to their per-node references
// over the same node logs - the property that licenses running analyses
// without a campaign's records resident: StreamingExtractor to
// extract_faults (and its seed-42 result is pinned), ScanProfileSink to the
// NodeLog scan sums.  Every identity check runs over both feeds: per-record
// replay and the bulk on_node_log path ArchiveReader::drain takes.
#include "analysis/streaming_extractor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "sim/campaign.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {
namespace {

using test_support::default_stream;

/// The default campaign's node logs, indexed by node slot: the reference
/// extraction's input.
const std::vector<telemetry::NodeLog>& default_logs() {
  static const std::vector<telemetry::NodeLog> logs =
      test_support::node_logs(default_stream());
  return logs;
}

enum class Feed { kPerRecord, kBulk };

const char* feed_name(Feed feed) {
  return feed == Feed::kBulk ? "bulk" : "per-record";
}

/// Feed the default campaign to `sink` per record, from its resident node
/// logs, or in bulk through ArchiveReader::drain (one on_node_log per
/// frame).
void feed_default(Feed feed, telemetry::RecordSink& sink) {
  if (feed == Feed::kBulk) {
    (void)test_support::feed_bulk(default_stream(), sink);
  } else {
    test_support::feed_logs(default_logs(), sim::CampaignConfig{}.window, sink);
  }
}

ExtractionResult extract_default(Feed feed, const ExtractionConfig& config) {
  StreamingExtractor extractor(config);
  feed_default(feed, extractor);
  return extractor.finish();
}

void expect_identical(const ExtractionResult& streamed,
                      const ExtractionResult& batch) {
  EXPECT_EQ(streamed.total_raw_logs, batch.total_raw_logs);
  EXPECT_EQ(streamed.removed_raw_logs, batch.removed_raw_logs);
  ASSERT_EQ(streamed.removed_nodes.size(), batch.removed_nodes.size());
  for (std::size_t i = 0; i < batch.removed_nodes.size(); ++i) {
    EXPECT_EQ(streamed.removed_nodes[i], batch.removed_nodes[i]);
  }
  ASSERT_EQ(streamed.faults.size(), batch.faults.size());
  for (std::size_t i = 0; i < batch.faults.size(); ++i) {
    ASSERT_EQ(streamed.faults[i], batch.faults[i]) << "fault " << i;
  }
}

// The acceptance property: bit-identical output on the full seed-42
// default campaign, pathological node filter included.  Node 21-07 is a
// filter candidate (raw >= pathological_min_raw), so its collapse waits for
// finish().  Under the default config the filter drops it uncollapsed; at a
// 0.999 fraction (it holds ~99.8% of the raw logs) the filter keeps it and
// finish() must collapse it.
TEST(StreamingExtractor, BitIdenticalToBatchOnDefaultCampaign) {
  ExtractionConfig keeps_candidate;
  keeps_candidate.pathological_raw_fraction = 0.999;
  const std::vector<cluster::NodeId> heavy{cluster::NodeId{21, 7}};
  const std::pair<ExtractionConfig, std::vector<cluster::NodeId>> cases[] = {
      {ExtractionConfig{}, heavy}, {keeps_candidate, {}}};

  for (const auto& [config, removed] : cases) {
    SCOPED_TRACE(testing::Message() << "fraction "
                                    << config.pathological_raw_fraction);
    const ExtractionResult batch = extract_faults(default_logs(), config);
    EXPECT_EQ(batch.removed_nodes, removed);
    EXPECT_GT(batch.faults.size(), 10000u);
    for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
      SCOPED_TRACE(feed_name(feed));
      expect_identical(extract_default(feed, config), batch);
    }
  }
}

/// FNV-1a 64 over the little-endian bytes of 64-bit words.
struct Fnv1a64 {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      value ^= (v >> (8 * b)) & 0xFF;
      value *= 0x100000001b3ull;
    }
  }
};

/// Folds every field of every fault, in order, into one digest, except the
/// temperature value, of which only the presence counts: temperatures are
/// raw doubles from libm, which builds may round differently in the last
/// bit (CampaignEmit.DefaultCampaignStreamIsPinned leaves them out too).
std::uint64_t fault_digest(FaultView faults) {
  Fnv1a64 digest;
  for (const FaultRecord& f : faults) {
    digest.word(static_cast<std::uint64_t>(cluster::node_index(f.node)));
    digest.word(static_cast<std::uint64_t>(f.first_seen));
    digest.word(static_cast<std::uint64_t>(f.last_seen));
    digest.word(f.raw_logs);
    digest.word(f.virtual_address);
    digest.word(f.expected);
    digest.word(f.actual);
    digest.word(telemetry::has_temperature(f.temperature_c) ? 1 : 0);
  }
  return digest.value;
}

// The seed-42 extraction every report is built from, pinned without an
// oracle: the raw count, the removed node and its raw lines, the fault
// count and a digest of every fault, through both feeds.  A change that
// moves them on purpose updates the pins and says why.
TEST(StreamingExtractor, DefaultCampaignExtractionIsPinned) {
  constexpr std::uint64_t kPinnedRawLogs = 26'492'874;
  constexpr std::uint64_t kPinnedRemovedRawLogs = 26'433'770;
  constexpr std::size_t kPinnedFaults = 53'112;
  constexpr std::uint64_t kPinnedFaultDigest = 0xbb06db316ec7d78eull;
  const std::vector<cluster::NodeId> removed{cluster::NodeId{21, 7}};
  for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
    SCOPED_TRACE(feed_name(feed));
    const ExtractionResult result = extract_default(feed, ExtractionConfig{});
    EXPECT_EQ(result.total_raw_logs, kPinnedRawLogs);
    EXPECT_EQ(result.removed_nodes, removed);
    EXPECT_EQ(result.removed_raw_logs, kPinnedRemovedRawLogs);
    EXPECT_EQ(result.faults.size(), kPinnedFaults);
    EXPECT_EQ(fault_digest(result.faults), kPinnedFaultDigest)
        << std::hex << "0x" << fault_digest(result.faults);
  }
}

// The warm report's feed: a cache replay decodes a frame's runs only when
// an extractor collapses the node.  In every case each extractor's result
// is bit-identical to the batch extraction under its config, and the
// drain's counts show what was decoded: under the defaults the filter
// candidate 21-07 is dropped without ever being unpacked; a filter that
// keeps it decodes its held body at finish(), after the drain; an
// observer, owed every node's faults at its end_node, decodes every frame.
// Several extractors with different merge windows behind one FanOutSink
// (unp_study's ablation_dedup) share each frame and 21-07's held body, and
// 21-07 is still only counted.
TEST(StreamingExtractor, ReplayDecodesOnlyTheNodesItCollapses) {
  const cluster::NodeId heavy{21, 7};
  const std::uint64_t heavy_runs =
      default_logs()[static_cast<std::size_t>(cluster::node_index(heavy))]
          .error_runs()
          .size();
  std::uint64_t total_runs = 0;
  for (const telemetry::NodeLog& log : default_logs())
    total_runs += log.error_runs().size();
  ASSERT_GT(heavy_runs, total_runs / 2);

  ExtractionConfig keeps_candidate;
  keeps_candidate.pathological_raw_fraction = 0.999;
  std::vector<ExtractionConfig> merge_windows;
  for (const std::int64_t window_s : {0, 300, 86400}) {
    merge_windows.emplace_back().merge_window_s = window_s;
  }
  struct Case {
    const char* name;
    std::vector<ExtractionConfig> configs;  ///< one extractor each
    bool observe;
    std::uint64_t decoded;
  };
  const Case cases[] = {
      {"defaults", {ExtractionConfig{}}, false, total_runs - heavy_runs},
      {"filter keeps the candidate", {keeps_candidate}, false,
       total_runs - heavy_runs},
      {"observer", {ExtractionConfig{}}, true, total_runs},
      {"three merge windows on one drain", merge_windows, false,
       total_runs - heavy_runs},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<StreamingExtractor> extractors(c.configs.begin(),
                                               c.configs.end());
    telemetry::FanOutSink fan;
    for (StreamingExtractor& extractor : extractors) fan.add(extractor);
    std::size_t observed = 0;
    if (c.observe)
      extractors.front().set_node_observer(
          [&](cluster::NodeId, std::span<const FaultRecord> faults) {
            observed += faults.size();
          });
    const telemetry::ReplayStats stats =
        test_support::feed_bulk(default_stream(), fan);
    EXPECT_EQ(stats.runs_decoded, c.decoded);
    EXPECT_EQ(stats.runs_decoded + stats.runs_counted, total_runs);
    for (std::size_t i = 0; i < extractors.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "merge window " << c.configs[i].merge_window_s << " s");
      const ExtractionResult batch =
          extract_faults(default_logs(), c.configs[i]);
      expect_identical(extractors[i].finish(), batch);
      if (c.observe) {
        EXPECT_GT(observed, batch.faults.size());
      }
    }
  }
}

/// Forwards to an extractor and remembers which node's end_node is running.
class FrameTracker final : public telemetry::RecordSink {
 public:
  explicit FrameTracker(StreamingExtractor& inner) : inner_(inner) {}
  void begin_campaign(const CampaignWindow& w) override { inner_.begin_campaign(w); }
  void begin_node(cluster::NodeId node) override { inner_.begin_node(node); }
  void end_node(cluster::NodeId node) override {
    closing_ = node;
    inner_.end_node(node);
    closing_.reset();
  }
  void end_campaign() override { inner_.end_campaign(); }
  void on_start(const telemetry::StartRecord& r) override { inner_.on_start(r); }
  void on_end(const telemetry::EndRecord& r) override { inner_.on_end(r); }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    inner_.on_alloc_fail(r);
  }
  void on_error_run(const telemetry::ErrorRun& r) override { inner_.on_error_run(r); }
  void on_node_log(telemetry::EncodedNodeLog& log) override { inner_.on_node_log(log); }

  [[nodiscard]] const std::optional<cluster::NodeId>& closing() const {
    return closing_;
  }

 private:
  StreamingExtractor& inner_;
  std::optional<cluster::NodeId> closing_;
};

// With an observer attached nothing is deferred: every node's faults,
// 21-07's included, reach the observer during that node's own end_node, in
// collapse_node_log order, on both feeds.
TEST(StreamingExtractor, ObserverSeesEveryNodeAtItsEndNode) {
  const ExtractionResult batch = extract_faults(default_logs());
  const cluster::NodeId heavy{21, 7};
  const std::vector<FaultRecord> heavy_faults = collapse_node_log(
      heavy,
      default_logs()[static_cast<std::size_t>(cluster::node_index(heavy))],
      ExtractionConfig{}.merge_window_s);
  ASSERT_GT(heavy_faults.size(), 100000u);

  for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
    SCOPED_TRACE(feed_name(feed));
    StreamingExtractor extractor;
    FrameTracker tracker(extractor);
    std::vector<int> observed_nodes;
    std::size_t outside_end_node = 0;
    std::vector<FaultRecord> observed_heavy;
    extractor.set_node_observer(
        [&](cluster::NodeId node, std::span<const FaultRecord> faults) {
          if (tracker.closing() != node) ++outside_end_node;
          observed_nodes.push_back(cluster::node_index(node));
          if (node == heavy) observed_heavy.assign(faults.begin(), faults.end());
        });
    feed_default(feed, tracker);
    const std::size_t observed_before_finish = observed_nodes.size();
    expect_identical(extractor.finish(), batch);

    EXPECT_EQ(outside_end_node, 0u);
    EXPECT_EQ(observed_nodes.size(), observed_before_finish);
    EXPECT_TRUE(std::is_sorted(observed_nodes.begin(), observed_nodes.end()));
    ASSERT_EQ(observed_heavy.size(), heavy_faults.size());
    EXPECT_TRUE(observed_heavy == heavy_faults);
  }
}

// Same property fed directly from the simulator's sink emission (no
// stream replay in between), alongside a sink that collects the records
// per node, on a short campaign with a non-default extraction config.
TEST(StreamingExtractor, MatchesBatchWhenFedByCampaignStream) {
  sim::CampaignConfig config;
  config.seed = 9;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 21, 0, 0, 0});

  ExtractionConfig extraction_config;
  extraction_config.merge_window_s = 120;

  test_support::LogCollector records;
  StreamingExtractor extractor(extraction_config);
  (void)sim::run_campaign_streaming(config, {&records, &extractor}, 2);

  expect_identical(extractor.finish(),
                   extract_faults(records.logs, extraction_config));

  // Every node with errors a filter candidate: the extractor holds each
  // body (the costliest node's handed over uncopied) and decodes the kept
  // ones' run sections at finish(), at 1 and 2 threads.  Next to a sink
  // that wants bytes it holds the bodies the workers encoded; alone, the
  // ones its share_body() calls encode.
  ExtractionConfig held = extraction_config;
  held.pathological_min_raw = 1;
  for (const bool with_writer : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << "writer " << with_writer
                                      << ", threads " << threads);
      std::ostringstream os(std::ios::binary);
      telemetry::ArchiveWriter writer(os);
      StreamingExtractor held_extractor(held);
      std::vector<telemetry::RecordSink*> sinks{&held_extractor};
      if (with_writer) sinks.insert(sinks.begin(), &writer);
      (void)sim::run_campaign_streaming(config, sinks, threads);
      expect_identical(held_extractor.finish(),
                       extract_faults(records.logs, held));
    }
  }
}

TEST(StreamingExtractor, CountsSessionsAndRawErrors) {
  std::uint64_t starts = 0;
  std::uint64_t raw = 0;
  for (const telemetry::NodeLog& log : default_logs()) {
    starts += log.starts().size();
    raw += log.raw_error_count();
  }
  for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
    SCOPED_TRACE(feed_name(feed));
    StreamingExtractor extractor;
    feed_default(feed, extractor);
    EXPECT_EQ(extractor.raw_errors_seen(), raw);
    EXPECT_EQ(extractor.sessions_seen(), starts);
  }
}

// The scan products (Figs 1, 2, 9 and the headline totals) from a framed
// replay, per record or as bulk node logs, equal the per-node references
// summed in node-slot order.
TEST(ScanProfileSink, MatchesPerNodeReferencesOnDefaultCampaign) {
  const CampaignWindow window = sim::CampaignConfig{}.window;
  for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
    SCOPED_TRACE(feed_name(feed));
    ScanProfileSink scan;
    feed_default(feed, scan);
    EXPECT_EQ(scan.window().start, window.start);
    EXPECT_EQ(scan.window().end, window.end);

    const std::vector<double>& daily = scan.daily_terabyte_hours();
    ASSERT_GE(daily.size(), static_cast<std::size_t>(window.duration_days()));
    std::vector<double> want_daily(daily.size(), 0.0);
    double hours = 0.0;
    double tbh = 0.0;
    int monitored = 0;
    for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
      const telemetry::NodeLog& log = default_logs()[static_cast<std::size_t>(i)];
      const cluster::NodeId node = cluster::node_from_index(i);
      const auto row = static_cast<std::size_t>(node.blade);
      const auto col = static_cast<std::size_t>(node.soc);
      ASSERT_EQ(scan.hours_grid().at(row, col), log.monitored_hours())
          << cluster::node_name(node);
      ASSERT_EQ(scan.terabyte_hours_grid().at(row, col), log.terabyte_hours())
          << cluster::node_name(node);
      accumulate_daily_terabyte_hours(log, window, want_daily);
      hours += log.monitored_hours();
      tbh += log.terabyte_hours();
      if (log.monitored_hours() > 0.0) ++monitored;
    }
    EXPECT_EQ(daily, want_daily);
    EXPECT_EQ(scan.total_monitored_hours(), hours);
    EXPECT_EQ(scan.total_terabyte_hours(), tbh);
    EXPECT_EQ(scan.monitored_nodes(), monitored);
    EXPECT_EQ(monitored, 923);
  }
}

TEST(StreamingExtractor, EmptyStreamYieldsEmptyResult) {
  StreamingExtractor extractor;
  const ExtractionResult result = extractor.finish();
  EXPECT_TRUE(result.faults.empty());
  EXPECT_TRUE(result.removed_nodes.empty());
  EXPECT_EQ(result.total_raw_logs, 0u);
}

}  // namespace
}  // namespace unp::analysis
