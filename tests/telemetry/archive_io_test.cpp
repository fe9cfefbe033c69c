// ArchiveWriter/ArchiveReader: the streaming on-disk spill format.
#include "telemetry/archive_io.hpp"

#include <gtest/gtest.h>

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

TEST(ArchiveStream, MissingFileThrows) {
  EXPECT_THROW((void)load_archive_stream("/nonexistent/unp.unps"),
               ContractViolation);
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
  for (const int index : indices) {
    offsets.push_back(static_cast<std::size_t>(os.tellp()));
    writer.write_frame(static_cast<std::uint64_t>(index),
                       encode_node_log(sample_log(cluster::node_from_index(index))));
  }
  writer.finish();
  return os.str();
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

// A corrupt body size must end in a truncation DecodeError at the body's
// offset once the bytes run out, never in an allocation of the declared
// size (2^40 bytes would throw std::bad_alloc, 2^62 std::length_error).
TEST(ArchiveStream, LyingBodySizeIsRejectedWithoutAllocatingIt) {
  for (const int bits : {40, 62}) {
    std::vector<std::size_t> offsets;
    std::string bytes = stream_with_frames({17, 200}, offsets);
    std::string lie;
    put_varint(lie, std::uint64_t{1} << bits);
    // Frame 17: a one-byte index, then a one-byte size (bodies < 128 B).
    bytes.replace(offsets.front() + 1, 1, lie);
    std::istringstream is(bytes, std::ios::binary);
    CampaignArchive archive;
    try {
      ArchiveReader(is).drain(archive);
      ADD_FAILURE() << "2^" << bits << " body size accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), offsets.front() + 1 + lie.size());
      EXPECT_NE(e.detail().find("truncated block"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArchiveStream, ByteLayoutMatchesHandEncodedLiteral) {
  // One node frame whose bytes are derived by hand from the format comments
  // in archive_io.hpp and binary_codec.hpp (LEB128 varints, zigzag time
  // deltas restarting at 0 per section, flag byte + little-endian f64 per
  // temperature), so the layout is pinned independently of the encoder.
  const cluster::NodeId node = cluster::node_from_index(17);
  NodeLog log;
  log.add_start({120, node, 300, kNoTemperature});
  log.add_start({500, node, 300, 30.5});
  log.add_end({400, node, 31.25});
  log.add_alloc_fail({450, node});
  ErrorRecord err;
  err.time = 130;
  err.node = node;
  err.virtual_address = 0x1000;
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFFFFFEu;
  err.physical_page = 1;
  log.add_error_run({err, 60, 5});

  const unsigned char expected[] = {
      'U', 'N', 'P', 'S', 0x01,  // magic, version
      0xC8, 0x01,                // zigzag(window.start = 100) = 200
      0xD0, 0x0F,                // zigzag(window.end = 1000) = 2000
      0x11,                      // node index 17 (index 5 is empty: elided)
      0x35,                      // body size 53
      // STARTs: count 2
      0x02,
      0xF0, 0x01, 0xAC, 0x02, 0x00,  // dt 120, 300 bytes, no temperature
      0xF8, 0x05, 0xAC, 0x02,        // dt 380, 300 bytes
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3E, 0x40,  // 30.5 C
      // ENDs: count 1
      0x01,
      0xA0, 0x06,                                            // dt 400
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x3F, 0x40,  // 31.25 C
      // ALLOCFAILs: count 1
      0x01, 0x84, 0x07,  // dt 450
      // ERROR runs: count 1
      0x01,
      0x84, 0x02,                    // dt 130
      0x80, 0x20,                    // virtual address 0x1000
      0xFF, 0xFF, 0xFF, 0xFF, 0x0F,  // expected 0xFFFFFFFF
      0xFE, 0xFF, 0xFF, 0xFF, 0x0F,  // actual 0xFFFFFFFE
      0x00,                          // no temperature
      0x01,                          // physical page 1
      0x3C,                          // period 60 s
      0x05,                          // count 5
      0xB1, 0x07,  // end frame: kStudyNodeSlots = 945
      0x01,        // frame count 1
  };
  const std::string want(reinterpret_cast<const char*>(expected),
                         sizeof expected);

  CampaignWindow window;
  window.start = 100;
  window.end = 1000;
  const auto write = [&](bool bulk) {
    std::ostringstream os(std::ios::binary);
    ArchiveWriter writer(os);
    writer.begin_campaign(window);
    writer.begin_node(cluster::node_from_index(5));
    writer.end_node(cluster::node_from_index(5));
    writer.begin_node(node);
    std::string scratch;
    EncodedNodeLog enc(node, log, scratch);
    if (bulk) {
      writer.on_node_log(enc);
    } else {
      replay_node_log(log, writer);
    }
    writer.end_node(node);
    writer.finish();
    return os.str();
  };
  EXPECT_EQ(write(false), want) << "per-record";
  EXPECT_EQ(write(true), want) << "bulk";
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
