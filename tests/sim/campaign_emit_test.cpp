// Campaign emission contract: the record stream a campaign emits must be
// byte-identical (UNPS) for every thread count and equal to its records
// re-encoded through ArchiveWriter, and every sink fed from one run must
// see the same per-node records no matter which other sinks share the
// run's single encoded body.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "telemetry/archive_io.hpp"

namespace unp::sim {
namespace {

CampaignConfig short_config(std::uint64_t seed = 5) {
  CampaignConfig config;
  config.seed = seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 8, 0, 0, 0});
  return config;
}

/// Re-encode a materialized archive through ArchiveWriter's bulk path: one
/// EncodedNodeLog per node slot, as the campaign driver delivers them
/// (empty logs write no frame).
std::string reencode(const telemetry::CampaignArchive& archive) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  writer.begin_campaign(archive.window());
  std::string scratch;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    telemetry::EncodedNodeLog enc(node, archive.log(node), scratch);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

void expect_same_logs(const telemetry::CampaignArchive& got,
                      const telemetry::CampaignArchive& want) {
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    ASSERT_EQ(got.log(node).starts(), want.log(node).starts()) << i;
    ASSERT_EQ(got.log(node).ends(), want.log(node).ends()) << i;
    ASSERT_EQ(got.log(node).alloc_fails(), want.log(node).alloc_fails()) << i;
    ASSERT_EQ(got.log(node).error_runs(), want.log(node).error_runs()) << i;
  }
}

TEST(CampaignEmit, StreamBytesIdenticalAcrossThreads) {
  // The campaign pre-encodes bodies in its workers; its stream must be what
  // ArchiveWriter produces from the same records afterwards.
  std::string expect;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    telemetry::CampaignArchive archive;
    std::vector<telemetry::RecordSink*> sinks{&writer, &archive};
    (void)run_campaign_streaming(short_config(), sinks, threads);
    const std::string stream = os.str();
    if (expect.empty()) expect = stream;
    ASSERT_GT(stream.size(), 1u << 12);
    EXPECT_EQ(stream, expect) << "threads=" << threads;
    EXPECT_EQ(reencode(archive), stream) << "threads=" << threads;
  }
}

TEST(CampaignEmit, MixedSinksShareOneEncodedBody) {
  // A byte sink (ArchiveWriter) and a record sink (CampaignArchive) fed from
  // the same streaming run: the writer's stream must equal a writer-only run
  // and the archive must hold, node by node, the records of an archive-only
  // run — one encode per node serves both.
  std::ostringstream solo_os(std::ios::binary);
  {
    telemetry::ArchiveWriter writer(solo_os);
    std::vector<telemetry::RecordSink*> sinks{&writer};
    (void)run_campaign_streaming(short_config(), sinks, 2);
  }

  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  telemetry::CampaignArchive archive;
  std::vector<telemetry::RecordSink*> sinks{&writer, &archive};
  (void)run_campaign_streaming(short_config(), sinks, 2);

  EXPECT_EQ(os.str(), solo_os.str());

  telemetry::CampaignArchive solo_archive;
  std::vector<telemetry::RecordSink*> archive_sinks{&solo_archive};
  (void)run_campaign_streaming(short_config(), archive_sinks, 1);
  ASSERT_GT(solo_archive.total_raw_errors(), 0u);
  EXPECT_EQ(archive.total_raw_errors(), solo_archive.total_raw_errors());
  expect_same_logs(archive, solo_archive);
}

}  // namespace
}  // namespace unp::sim
