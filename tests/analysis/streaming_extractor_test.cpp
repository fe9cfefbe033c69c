// StreamingExtractor must be bit-identical to the batch extract_faults -
// the property that licenses running analyses without a resident archive.
// Every identity check runs over both feeds: per-record replay and the bulk
// on_node_log path ArchiveReader::drain takes.
#include "analysis/streaming_extractor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extraction.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {
namespace {

void stream_archive(const telemetry::CampaignArchive& archive,
                    telemetry::RecordSink& sink) {
  sink.begin_campaign(archive.window());
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    sink.begin_node(node);
    telemetry::replay_node_log(archive.log(node), sink);
    sink.end_node(node);
  }
  sink.end_campaign();
}

/// The default campaign as a UNPS stream, spilled once.
const std::string& default_stream() {
  static const std::string bytes = [] {
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    stream_archive(sim::default_campaign().archive, writer);
    return os.str();
  }();
  return bytes;
}

enum class Feed { kPerRecord, kBulk };

const char* feed_name(Feed feed) {
  return feed == Feed::kBulk ? "bulk" : "per-record";
}

/// Feed the default campaign to `sink` per record, or in bulk through
/// ArchiveReader::drain (one on_node_log per frame).
void feed_default(Feed feed, telemetry::RecordSink& sink) {
  if (feed == Feed::kBulk) {
    std::istringstream is(default_stream(), std::ios::binary);
    telemetry::ArchiveReader(is).drain(sink);
  } else {
    stream_archive(sim::default_campaign().archive, sink);
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
  const sim::CampaignResult& campaign = sim::default_campaign();
  ExtractionConfig keeps_candidate;
  keeps_candidate.pathological_raw_fraction = 0.999;
  const std::vector<cluster::NodeId> heavy{cluster::NodeId{21, 7}};
  const std::pair<ExtractionConfig, std::vector<cluster::NodeId>> cases[] = {
      {ExtractionConfig{}, heavy}, {keeps_candidate, {}}};

  for (const auto& [config, removed] : cases) {
    SCOPED_TRACE(testing::Message() << "fraction "
                                    << config.pathological_raw_fraction);
    const ExtractionResult batch = extract_faults(campaign.archive, config);
    EXPECT_EQ(batch.removed_nodes, removed);
    EXPECT_GT(batch.faults.size(), 10000u);
    for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
      SCOPED_TRACE(feed_name(feed));
      expect_identical(extract_default(feed, config), batch);
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
  const sim::CampaignResult& campaign = sim::default_campaign();
  const ExtractionResult batch = extract_faults(campaign.archive);
  const cluster::NodeId heavy{21, 7};
  const std::vector<FaultRecord> heavy_faults = collapse_node_log(
      heavy, campaign.archive.log(heavy), ExtractionConfig{}.merge_window_s);
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
// archive replay in between), alongside an archive sink, on a short
// campaign with a non-default extraction config.
TEST(StreamingExtractor, MatchesBatchWhenFedByCampaignStream) {
  sim::CampaignConfig config;
  config.seed = 9;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 21, 0, 0, 0});

  ExtractionConfig extraction_config;
  extraction_config.merge_window_s = 120;

  telemetry::CampaignArchive archive;
  StreamingExtractor extractor(extraction_config);
  (void)sim::run_campaign_streaming(config, {&archive, &extractor}, 2);

  expect_identical(extractor.finish(), extract_faults(archive, extraction_config));
}

TEST(StreamingExtractor, CountsSessionsAndRawErrors) {
  const sim::CampaignResult& campaign = sim::default_campaign();
  std::uint64_t starts = 0;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    starts += campaign.archive.log(cluster::node_from_index(i)).starts().size();
  }
  for (const Feed feed : {Feed::kPerRecord, Feed::kBulk}) {
    SCOPED_TRACE(feed_name(feed));
    StreamingExtractor extractor;
    feed_default(feed, extractor);
    EXPECT_EQ(extractor.raw_errors_seen(), campaign.archive.total_raw_errors());
    EXPECT_EQ(extractor.sessions_seen(), starts);
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
