// ArchiveWriter/ArchiveReader: the streaming on-disk spill format.
#include "telemetry/archive_io.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "sim/campaign.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

using test_support::LogCollector;

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

  LogCollector records;
  reader.drain(records);
  EXPECT_EQ(reader.frames_read(), 2u);  // empty nodes are elided
  EXPECT_EQ(records.logs[17].error_runs(),
            sample_log({1, 2}).error_runs());  // node_index({1,2}) == 17
  EXPECT_EQ(records.logs[0].starts().size(), 0u);
  EXPECT_EQ(records.raw_errors(), 2u * 42u);
}

/// Checks that every bulk frame's bytes() are the encoding of its log.
class BodyCheck final : public RecordSink {
 public:
  int frames = 0;
  int mismatches = 0;
  void on_node_log(EncodedNodeLog& log) override {
    ++frames;
    if (log.bytes() != encode_node_log(log.log())) ++mismatches;
  }
  void on_start(const StartRecord&) override {}
  void on_end(const EndRecord&) override {}
  void on_alloc_fail(const AllocFailRecord&) override {}
  void on_error_run(const ErrorRun&) override {}
};

TEST(ArchiveStream, DrainHandsEachFrameItsBodyAsBytes) {
  // Replay passes each frame's body through as the node log's bytes, so a
  // writer fed by a drain copies the stream without re-encoding it.
  const std::string bytes = write_sample_stream(CampaignWindow{});
  {
    std::istringstream is(bytes, std::ios::binary);
    BodyCheck check;
    ArchiveReader(is).drain(check);
    EXPECT_EQ(check.frames, 2);
    EXPECT_EQ(check.mismatches, 0);
  }
  std::istringstream is(bytes, std::ios::binary);
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  ArchiveReader(is).drain(writer);
  writer.finish();
  EXPECT_EQ(os.str(), bytes);
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

// Sinks size per-day series by the header's window, so a window that is
// inverted or longer than a century is rejected at the header.
TEST(ArchiveStream, RejectsImplausibleWindow) {
  const CampaignWindow study;
  const CampaignWindow bad[] = {
      {study.end, study.start},
      {study.start, study.start + 36526 * kSecondsPerDay},
      {std::numeric_limits<TimePoint>::min(),
       std::numeric_limits<TimePoint>::max()}};
  for (const CampaignWindow& window : bad) {
    const std::string bytes = write_sample_stream(window);
    std::istringstream is(bytes, std::ios::binary);
    try {
      ArchiveReader reader(is);
      ADD_FAILURE() << "window " << window.start << ".." << window.end
                    << " accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), 5u);  // just past magic and version
    }
  }
  // A century exactly is accepted.
  const std::string bytes = write_sample_stream(
      {study.start, study.start + 36525 * kSecondsPerDay});
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_NO_THROW(ArchiveReader reader(is));
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
      LogCollector records;
      reader.drain(records);
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
  LogCollector records;
  EXPECT_THROW(reader.drain(records), ContractViolation);
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
    LogCollector records;
    try {
      reader.drain(records);
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
  LogCollector records;
  reader.drain(records);
  EXPECT_EQ(reader.frames_read(), 3u);
  EXPECT_EQ(records.raw_errors(), 3u * 42u);
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
    LogCollector records;
    try {
      ArchiveReader(is).drain(records);
      ADD_FAILURE() << "2^" << bits << " body size accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), offsets.front() + 1 + lie.size());
      EXPECT_NE(e.detail().find("truncated block"), std::string::npos)
          << e.what();
    }
  }
}

/// A short seed-9 campaign spilled as one UNPS stream.
std::string small_campaign_stream() {
  sim::CampaignConfig config;
  config.seed = 9;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 21, 0, 0, 0});
  return test_support::campaign_stream(config, 2);
}

// A replayed frame decodes its sessions at delivery and its runs only on
// log(); every accessor must agree with decoding the body in full.
TEST(LazyFrame, EveryFrameMatchesItsFullDecode) {
  const std::string bytes = small_campaign_stream();
  std::istringstream lazy_is(bytes, std::ios::binary);
  std::istringstream full_is(bytes, std::ios::binary);
  ArchiveReader lazy(lazy_is);
  ArchiveReader full(full_is);
  std::size_t frames = 0;
  std::size_t runs = 0;
  cluster::NodeId node;
  NodeLog log;
  while (std::optional<EncodedNodeLog> frame = lazy.next_frame()) {
    ASSERT_TRUE(full.next(node, log));
    SCOPED_TRACE(cluster::node_name(node));
    ASSERT_EQ(frame->node(), node);
    EXPECT_EQ(frame->sessions().starts(), log.starts());
    EXPECT_EQ(frame->sessions().ends(), log.ends());
    EXPECT_EQ(frame->sessions().alloc_fails(), log.alloc_fails());
    EXPECT_EQ(frame->raw_error_count(), log.raw_error_count());
    EXPECT_EQ(frame->error_run_count(), log.error_runs().size());
    EXPECT_EQ(frame->empty(), log.empty());
    EXPECT_EQ(frame->bytes(), encode_node_log(log));
    EXPECT_FALSE(frame->runs_decoded());
    const NodeLog& decoded = frame->log();
    EXPECT_TRUE(frame->runs_decoded());
    EXPECT_EQ(decoded.starts(), log.starts());
    EXPECT_EQ(decoded.ends(), log.ends());
    EXPECT_EQ(decoded.alloc_fails(), log.alloc_fails());
    EXPECT_EQ(decoded.error_runs(), log.error_runs());
    EXPECT_EQ(&frame->log(), &decoded);  // decoded once
    ++frames;
    runs += log.error_runs().size();
  }
  EXPECT_FALSE(full.next(node, log));
  EXPECT_EQ(lazy.frames_read(), full.frames_read());
  EXPECT_GT(frames, 100u);
  EXPECT_GT(runs, 100u);
}

/// Reads only what the warm report's sinks read at delivery: sessions and
/// counts, never log().
class CountOnlySink final : public RecordSink {
 public:
  int frames = 0;
  std::uint64_t raw = 0;
  std::size_t starts = 0;
  void on_node_log(EncodedNodeLog& log) override {
    ++frames;
    raw += log.raw_error_count();
    starts += log.sessions().starts().size();
  }
  void on_start(const StartRecord&) override {}
  void on_end(const EndRecord&) override {}
  void on_alloc_fail(const AllocFailRecord&) override {}
  void on_error_run(const ErrorRun&) override {}
};

// A corrupt run section throws at delivery, before the frame reaches any
// sink, with the stream offset full decoding reports - even though no sink
// ever asks for the runs.
TEST(LazyFrame, CorruptRunSectionThrowsAtDeliveryWithStreamOffset) {
  std::vector<std::size_t> offsets;
  const std::string valid = stream_with_frames({17, 100}, offsets);
  const std::size_t body_size =
      encode_node_log(sample_log(cluster::node_from_index(100))).size();
  // Frame 100: one-byte index and size, then the body, whose last byte is
  // the one run's count (42).
  const std::size_t count_at = offsets.back() + 2 + body_size - 1;
  ASSERT_EQ(static_cast<unsigned char>(valid[count_at]), 42u);

  const std::pair<unsigned char, const char*> corruptions[] = {
      {0x00, "error run with zero count"}, {0x80, "truncated varint"}};
  for (const auto& [byte, detail] : corruptions) {
    SCOPED_TRACE(detail);
    std::string bytes = valid;
    bytes[count_at] = static_cast<char>(byte);

    std::uint64_t full_offset = 0;
    {
      std::istringstream is(bytes, std::ios::binary);
      ArchiveReader reader(is);
      cluster::NodeId node;
      NodeLog log;
      ASSERT_TRUE(reader.next(node, log));
      try {
        (void)reader.next(node, log);
        ADD_FAILURE() << "full decode accepted the corruption";
      } catch (const DecodeError& e) {
        full_offset = e.byte_offset();
      }
    }
    EXPECT_EQ(full_offset, count_at + 1);

    std::istringstream is(bytes, std::ios::binary);
    CountOnlySink sink;
    try {
      (void)ArchiveReader(is).drain(sink);
      ADD_FAILURE() << "drain accepted the corruption";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), full_offset);
      EXPECT_NE(e.detail().find(detail), std::string::npos) << e.what();
      EXPECT_NE(e.detail().find("node frame for"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sink.frames, 1);  // frame 17 only
  }
}

// drain reports what it delivered: runs a sink decoded versus runs only
// counted at delivery.
TEST(LazyFrame, DrainCountsRunsDecodedAndOnlyCounted) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  {
    std::istringstream is(bytes, std::ios::binary);
    CountOnlySink sink;
    const ReplayStats stats = ArchiveReader(is).drain(sink);
    EXPECT_EQ(stats.frames, 2u);
    EXPECT_EQ(stats.body_bytes, 2 * encode_node_log(sample_log({})).size());
    EXPECT_EQ(stats.runs_decoded, 0u);
    EXPECT_EQ(stats.runs_counted, 2u);
    EXPECT_EQ(sink.raw, 2u * 42u);
    EXPECT_EQ(sink.starts, 2u);
  }
  std::istringstream is(bytes, std::ios::binary);
  LogCollector records;
  const ReplayStats stats = ArchiveReader(is).drain(records);
  EXPECT_EQ(stats.runs_decoded, 2u);
  EXPECT_EQ(stats.runs_counted, 0u);
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
