// ArchiveWriter/ArchiveReader: the streaming on-disk spill format.
#include "telemetry/archive_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

NodeLog sample_log(cluster::NodeId node) {
  NodeLog log;
  log.add_start({from_civil_utc({2015, 3, 1, 1, 0, 0}), node, 3ULL << 30, 31.5});
  log.add_end({from_civil_utc({2015, 3, 1, 9, 30, 0}), node, 32.25});
  log.add_alloc_fail({from_civil_utc({2015, 3, 2, 4, 0, 0}), node});
  ErrorRecord err;
  err.time = from_civil_utc({2015, 3, 1, 2, 0, 0});
  err.node = node;
  err.virtual_address = 0xBEEF00;
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFF7BFFu;
  err.temperature_c = 34.125;
  err.physical_page = 0x12345;
  log.add_error_run({err, 150, 42});
  return log;
}

std::string write_sample_stream(const CampaignWindow& window) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(window);
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    if (i == 17 || i == 200) replay_node_log(sample_log(node), writer);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

TEST(ArchiveStream, RoundTripThroughSinkProtocol) {
  CampaignWindow window;
  const std::string bytes = write_sample_stream(window);

  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  EXPECT_EQ(reader.window().start, window.start);
  EXPECT_EQ(reader.window().end, window.end);

  CampaignArchive archive;
  reader.drain(archive);
  EXPECT_EQ(reader.frames_read(), 2u);  // empty nodes are elided
  EXPECT_EQ(archive.log({1, 2}).error_runs(),
            sample_log({1, 2}).error_runs());  // node_index({1,2}) == 17
  EXPECT_EQ(archive.log({0, 0}).starts().size(), 0u);
  EXPECT_EQ(archive.total_raw_errors(), 2u * 42u);
}

TEST(ArchiveStream, NodeByNodeIteration) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);

  cluster::NodeId node;
  NodeLog log;
  ASSERT_TRUE(reader.next(node, log));
  EXPECT_EQ(cluster::node_index(node), 17);
  EXPECT_EQ(log.starts(), sample_log(node).starts());
  ASSERT_TRUE(reader.next(node, log));
  EXPECT_EQ(cluster::node_index(node), 200);
  EXPECT_FALSE(reader.next(node, log));
  EXPECT_FALSE(reader.next(node, log));  // stays done
}

TEST(ArchiveStream, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "unp_stream_test.unps").string();
  CampaignArchive archive;
  archive.log({7, 3}) = sample_log({7, 3});
  archive.log({62, 14}) = sample_log({62, 14});
  save_archive_stream(archive, path);
  const CampaignArchive loaded = load_archive_stream(path);
  EXPECT_EQ(loaded.log({7, 3}).starts(), archive.log({7, 3}).starts());
  EXPECT_EQ(loaded.log({62, 14}).error_runs(), archive.log({62, 14}).error_runs());
  EXPECT_EQ(loaded.total_raw_errors(), archive.total_raw_errors());
  std::filesystem::remove(path);
}

TEST(ArchiveStream, RejectsCorruptMagicAndVersion) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(ArchiveReader reader(is), ContractViolation);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // unknown version
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(ArchiveReader reader(is), ContractViolation);
  }
}

TEST(ArchiveStream, RejectsTruncation) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  // Truncate at every suffix length: the reader must throw (or, for a cut
  // exactly after the header, report frames but never validate the end
  // frame) - it must never return corrupt data silently.
  for (std::size_t cut = 5; cut + 1 < bytes.size(); cut += 7) {
    std::istringstream is(bytes.substr(0, cut), std::ios::binary);
    bool threw = false;
    try {
      ArchiveReader reader(is);
      CampaignArchive archive;
      reader.drain(archive);
    } catch (const ContractViolation&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "no rejection when truncated to " << cut << " bytes";
  }
}

TEST(ArchiveStream, RejectsWrongFrameCount) {
  std::string bytes = write_sample_stream(CampaignWindow{});
  // The end frame is ...<sentinel varint><count varint>; count is 2 (one
  // byte).  Patch it to 3.
  ASSERT_EQ(static_cast<unsigned char>(bytes.back()), 2u);
  bytes.back() = 3;
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  CampaignArchive archive;
  EXPECT_THROW(reader.drain(archive), ContractViolation);
}

TEST(ArchiveStream, RejectsOutOfRangeNodeIndex) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  writer.finish();
  std::string bytes = os.str();
  // Remove the end frame and splice in a frame claiming an invalid index
  // one past the sentinel.
  bytes.resize(bytes.size() - 3);
  std::string frame;
  put_varint(frame, static_cast<std::uint64_t>(cluster::kStudyNodeSlots) + 1);
  put_varint(frame, 0);
  bytes += frame;
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  cluster::NodeId node;
  NodeLog log;
  EXPECT_THROW((void)reader.next(node, log), ContractViolation);
}

/// A hand-built stream whose node frames carry `indices` in the given
/// order (each body a sample log), with a matching end frame.  Records the
/// byte offset of every frame in `offsets`.
std::string stream_with_frames(const std::vector<int>& indices,
                               std::vector<std::size_t>& offsets) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  writer.finish();
  std::string bytes = os.str();
  bytes.resize(bytes.size() - 3);  // drop the empty stream's end frame
  for (const int index : indices) {
    offsets.push_back(bytes.size());
    const std::string body =
        encode_node_log(sample_log(cluster::node_from_index(index)));
    put_varint(bytes, static_cast<std::uint64_t>(index));
    put_varint(bytes, body.size());
    bytes += body;
  }
  put_varint(bytes, static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
  put_varint(bytes, indices.size());
  return bytes;
}

// The format requires ascending node indices; a duplicated or descending
// frame would otherwise reach sinks as a second frame for one node.
TEST(ArchiveStream, RejectsDuplicateAndDescendingFrames) {
  for (const std::vector<int>& indices :
       {std::vector<int>{17, 17}, std::vector<int>{200, 17},
        std::vector<int>{3, 200, 200}}) {
    std::vector<std::size_t> offsets;
    const std::string bytes = stream_with_frames(indices, offsets);
    std::istringstream is(bytes, std::ios::binary);
    ArchiveReader reader(is);
    CampaignArchive archive;
    try {
      reader.drain(archive);
      ADD_FAILURE() << "frame order " << indices.front() << ", "
                    << indices.back() << " accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), offsets.back());
      EXPECT_NE(e.detail().find("not ascending"), std::string::npos)
          << e.what();
    }
  }

  // The same frames in ascending order decode.
  std::vector<std::size_t> offsets;
  const std::string bytes = stream_with_frames({3, 17, 200}, offsets);
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  CampaignArchive archive;
  reader.drain(archive);
  EXPECT_EQ(reader.frames_read(), 3u);
  EXPECT_EQ(archive.total_raw_errors(), 3u * 42u);
}

TEST(ArchiveWriterContract, RecordsOutsideNodeFrameThrow) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  EXPECT_THROW(writer.on_start({0, {1, 1}, 0, kNoTemperature}),
               ContractViolation);
  writer.begin_node({1, 1});
  EXPECT_THROW(writer.begin_node({1, 2}), ContractViolation);  // nested frame
}

}  // namespace
}  // namespace unp::telemetry
