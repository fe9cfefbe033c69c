// Codec round trips over a real, full-scale archive: the seed-42 default
// campaign pushed through the streaming spill format (UNPS) and the text
// codec.  binary_codec_test covers hand-built records; this suite
// covers the actual 13-month record population (runs, missing temperatures,
// alloc failures, the pathological node's megarun stream).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/codec.hpp"

namespace unp::telemetry {
namespace {

const CampaignArchive& campaign_archive() {
  return sim::default_campaign().archive;
}

/// The archive's canonical bytes: its UNPS stream.
std::string stream_bytes(const CampaignArchive& archive) {
  std::ostringstream os(std::ios::binary);
  save_archive_stream(archive, os);
  return os.str();
}

TEST(CampaignRoundTrip, StreamFormatIsExactOnFullArchive) {
  const CampaignArchive& archive = campaign_archive();
  ASSERT_GT(archive.total_raw_errors(), 1000000u);  // full-scale input

  const std::string path =
      (std::filesystem::temp_directory_path() / "unp_campaign_roundtrip.unps")
          .string();
  const std::string bytes = stream_bytes(archive);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const CampaignArchive loaded = load_archive_stream(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.window().start, archive.window().start);
  EXPECT_EQ(loaded.window().end, archive.window().end);
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    const NodeLog& a = archive.log(node);
    const NodeLog& b = loaded.log(node);
    ASSERT_EQ(a.starts(), b.starts()) << "node " << i;
    ASSERT_EQ(a.ends(), b.ends()) << "node " << i;
    ASSERT_EQ(a.alloc_fails(), b.alloc_fails()) << "node " << i;
    ASSERT_EQ(a.error_runs(), b.error_runs()) << "node " << i;
  }
  EXPECT_TRUE(stream_bytes(loaded) == bytes);
}

TEST(CampaignRoundTrip, TextCodecRoundTripsFullArchive) {
  // The text format keeps temperatures at 0.1 degC resolution (the log files'
  // human-facing precision); every other field must survive exactly.
  const CampaignArchive& archive = campaign_archive();
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const NodeLog& original = archive.log(cluster::node_from_index(i));
    std::stringstream ss;
    write_node_log(ss, original);
    const NodeLog parsed = read_node_log(ss);

    ASSERT_EQ(parsed.starts().size(), original.starts().size()) << "node " << i;
    for (std::size_t r = 0; r < original.starts().size(); ++r) {
      const StartRecord& a = original.starts()[r];
      const StartRecord& b = parsed.starts()[r];
      ASSERT_EQ(b.time, a.time);
      ASSERT_EQ(b.node, a.node);
      ASSERT_EQ(b.allocated_bytes, a.allocated_bytes);
      ASSERT_EQ(has_temperature(b.temperature_c), has_temperature(a.temperature_c));
      if (has_temperature(a.temperature_c)) {
        ASSERT_NEAR(b.temperature_c, a.temperature_c, 0.05 + 1e-9);
      }
    }
    ASSERT_EQ(parsed.ends().size(), original.ends().size()) << "node " << i;
    for (std::size_t r = 0; r < original.ends().size(); ++r) {
      ASSERT_EQ(parsed.ends()[r].time, original.ends()[r].time);
      if (has_temperature(original.ends()[r].temperature_c)) {
        ASSERT_NEAR(parsed.ends()[r].temperature_c,
                    original.ends()[r].temperature_c, 0.05 + 1e-9);
      }
    }
    ASSERT_EQ(parsed.alloc_fails(), original.alloc_fails()) << "node " << i;
    ASSERT_EQ(parsed.error_runs().size(), original.error_runs().size());
    for (std::size_t r = 0; r < original.error_runs().size(); ++r) {
      const ErrorRun& a = original.error_runs()[r];
      const ErrorRun& b = parsed.error_runs()[r];
      ASSERT_EQ(b.first.time, a.first.time);
      ASSERT_EQ(b.first.virtual_address, a.first.virtual_address);
      ASSERT_EQ(b.first.expected, a.first.expected);
      ASSERT_EQ(b.first.actual, a.first.actual);
      ASSERT_EQ(b.first.physical_page, a.first.physical_page);
      ASSERT_EQ(b.period_s, a.period_s);
      ASSERT_EQ(b.count, a.count);
      if (has_temperature(a.first.temperature_c)) {
        ASSERT_NEAR(b.first.temperature_c, a.first.temperature_c, 0.05 + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace unp::telemetry
