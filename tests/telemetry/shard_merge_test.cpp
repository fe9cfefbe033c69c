// Edge cases of the streaming shard merge (telemetry/shard_merge): header
// round trips, empty and single-record shards, partition validation, and
// corrupt-shard diagnostics carrying the failing shard id and byte offset.
#include "telemetry/shard_merge.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

constexpr TimePoint kStart = 1'440'000'000;
constexpr TimePoint kEnd = kStart + 100'000;
constexpr CampaignWindow kWindow{kStart, kEnd};
constexpr std::uint64_t kFingerprint = 0xfeedbeef;

ErrorRun run_for_node(int node_index) {
  ErrorRun run;
  run.first.time = kStart + 10 + node_index;
  run.first.node = cluster::node_from_index(node_index);
  run.first.virtual_address = 0x1000u + static_cast<std::uint64_t>(node_index);
  run.first.expected = 0;
  run.first.actual = 1;
  return run;
}

/// UNPS stream holding one single-record frame per listed node.
std::string stream_bytes(const std::vector<int>& nodes) {
  std::ostringstream os;
  ArchiveWriter writer(os);
  writer.begin_campaign(kWindow);
  for (const int n : nodes) {
    const cluster::NodeId id = cluster::node_from_index(n);
    writer.begin_node(id);
    writer.on_error_run(run_for_node(n));
    writer.end_node(id);
  }
  writer.end_campaign();
  return os.str();
}

/// Shard archive = UNPH prefix + the node frames this shard owns.
std::string shard_bytes(std::uint32_t count, std::uint32_t index,
                        const std::vector<int>& nodes,
                        std::uint64_t fingerprint = kFingerprint) {
  std::ostringstream os;
  write_shard_header(os, {count, index, fingerprint});
  os << stream_bytes(nodes);
  return os.str();
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  return path;
}

TEST(ShardHeader, RoundTrips) {
  std::ostringstream os;
  const ShardHeader header{7, 3, 0x123456789abcdef0ull};
  write_shard_header(os, header);
  std::istringstream is(os.str());
  EXPECT_EQ(read_shard_header(is), header);
}

TEST(ShardHeader, RejectsBadMagicAndTruncation) {
  std::ostringstream os;
  write_shard_header(os, {2, 0, kFingerprint});
  std::string bytes = os.str();

  std::string corrupt = bytes;
  corrupt[0] = 'X';
  std::istringstream bad_magic(corrupt);
  EXPECT_THROW((void)read_shard_header(bad_magic), DecodeError);

  std::istringstream truncated(bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW((void)read_shard_header(truncated), DecodeError);
}

TEST(ShardMerge, EmptyAndSingleRecordShardsMergeToMonolithic) {
  // Shard 1 owns no loud node at all: its stream is header + end frame.
  const std::string p0 = write_temp("smt_e0.unph", shard_bytes(3, 0, {0, 6}));
  const std::string p1 = write_temp("smt_e1.unph", shard_bytes(3, 1, {}));
  const std::string p2 = write_temp("smt_e2.unph", shard_bytes(3, 2, {2}));

  std::ostringstream merged;
  merge_shard_archives({p0, p1, p2}, merged);
  EXPECT_EQ(merged.view(), stream_bytes({0, 2, 6}));

  // The reader agrees on the partition metadata.
  ShardMergeReader reader({p2, p0, p1});  // any path order
  EXPECT_EQ(reader.shard_count(), 3);
  EXPECT_EQ(reader.fingerprint(), kFingerprint);
  EXPECT_EQ(reader.window().start, kWindow.start);
  EXPECT_EQ(reader.window().end, kWindow.end);
  cluster::NodeId node;
  NodeLog log;
  std::vector<int> seen;
  while (reader.next(node, log)) seen.push_back(cluster::node_index(node));
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 6}));
  EXPECT_EQ(reader.frames_merged(), 3u);

  for (const auto& p : {p0, p1, p2}) std::remove(p.c_str());
}

TEST(ShardMerge, AllShardsEmptyYieldsEmptyMonolithicStream) {
  const std::string p0 = write_temp("smt_ae0.unph", shard_bytes(2, 0, {}));
  const std::string p1 = write_temp("smt_ae1.unph", shard_bytes(2, 1, {}));
  std::ostringstream merged;
  merge_shard_archives({p0, p1}, merged);
  EXPECT_EQ(merged.view(), stream_bytes({}));
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(ShardMerge, RejectsIncompleteOrMismatchedPartitions) {
  const std::string p0 = write_temp("smt_m0.unph", shard_bytes(2, 0, {0}));
  const std::string p1 = write_temp("smt_m1.unph", shard_bytes(2, 1, {1}));
  const std::string p1_of3 = write_temp("smt_m2.unph", shard_bytes(3, 1, {1}));
  const std::string p1_fp =
      write_temp("smt_m3.unph", shard_bytes(2, 1, {1}, 0x999));

  EXPECT_THROW(ShardMergeReader({p0}), ContractViolation);         // missing
  EXPECT_THROW(ShardMergeReader({p0, p0}), ContractViolation);     // duplicate
  EXPECT_THROW(ShardMergeReader({p0, p1_of3}), ContractViolation); // count
  EXPECT_THROW(ShardMergeReader({p0, p1_fp}), ContractViolation);  // ensemble

  ShardMergeReader ok({p0, p1});
  EXPECT_EQ(ok.shard_count(), 2);
  for (const auto& p : {p0, p1, p1_of3, p1_fp}) std::remove(p.c_str());
}

TEST(ShardMerge, OverlappingPartitionIsRejected) {
  // Both shards claim node 5: the partition invariant is broken and a
  // "stable merge" of the streams would be ambiguous.
  const std::string p0 = write_temp("smt_o0.unph", shard_bytes(2, 0, {5}));
  const std::string p1 = write_temp("smt_o1.unph", shard_bytes(2, 1, {5}));
  std::ostringstream merged;
  try {
    merge_shard_archives({p0, p1}, merged);
    FAIL() << "overlapping partition not detected";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.detail()).find("overlapping"), std::string::npos)
        << e.detail();
  }
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

/// Counts how a producer delivers frames: bulk node logs vs per-record calls.
struct DeliveryCounter final : RecordSink {
  void on_start(const StartRecord&) override { ++per_record; }
  void on_end(const EndRecord&) override { ++per_record; }
  void on_alloc_fail(const AllocFailRecord&) override { ++per_record; }
  void on_error_run(const ErrorRun&) override { ++per_record; }
  void on_node_log(EncodedNodeLog& log) override {
    nodes.push_back(cluster::node_index(log.node()));
    runs += log.log().error_runs().size();
  }
  std::vector<int> nodes;
  std::size_t runs = 0;
  std::size_t per_record = 0;
};

TEST(ShardMerge, DrainDeliversOneBulkNodeLogPerFrame) {
  const std::string p0 = write_temp("smt_b0.unph", shard_bytes(2, 0, {0, 4}));
  const std::string p1 = write_temp("smt_b1.unph", shard_bytes(2, 1, {1, 7}));
  ShardMergeReader reader({p0, p1});
  DeliveryCounter sink;
  reader.drain(sink);
  EXPECT_EQ(sink.nodes, (std::vector<int>{0, 1, 4, 7}));
  EXPECT_EQ(sink.runs, 4u);
  EXPECT_EQ(sink.per_record, 0u);
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

// A shard cut mid-frame, holding descending frames, or whose first body
// size lies by 2^40 or 2^62 bytes fails with the shard id and an offset
// inside the shard file - never with an allocation of the declared size.
TEST(ShardMerge, CorruptShardNamesShardAndByteOffset) {
  const std::string p0 = write_temp("smt_t0.unph", shard_bytes(2, 0, {0, 2}));
  const std::string full = shard_bytes(2, 1, {1, 3});
  // Shard 1's first body size follows the UNPH prefix, the UNPS header (the
  // empty stream minus its 3-byte end frame) and the one-byte index 1.
  const std::size_t size_at = full.size() - stream_bytes({1, 3}).size() +
                              stream_bytes({}).size() - 3 + 1;
  std::vector<std::pair<std::string, std::string>> corrupt = {
      {full.substr(0, full.size() - 4), "shard 1: truncated block"},
      {shard_bytes(2, 1, {5, 1}), "shard 1: node index 1 not ascending"}};
  for (const int bits : {40, 62}) {
    std::string lie;
    put_varint(lie, std::uint64_t{1} << bits);
    corrupt.emplace_back(
        full.substr(0, size_at) + lie + full.substr(size_at + 1),
        "shard 1: truncated block");
  }
  for (const auto& [bytes, want] : corrupt) {
    const std::string p1 = write_temp("smt_t1.unph", bytes);
    try {
      ShardMergeReader reader({p0, p1});
      cluster::NodeId node;
      NodeLog log;
      while (reader.next(node, log)) {
      }
      ADD_FAILURE() << "corrupt shard of " << bytes.size() << " bytes accepted";
    } catch (const DecodeError& e) {
      EXPECT_NE(e.detail().find(want), std::string::npos) << e.what();
      EXPECT_GT(e.byte_offset(), 0u);
      EXPECT_LT(e.byte_offset(), full.size());
    }
    std::remove(p1.c_str());
  }
  std::remove(p0.c_str());
}

}  // namespace
}  // namespace unp::telemetry
