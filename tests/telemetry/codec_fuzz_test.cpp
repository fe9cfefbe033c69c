// Robustness of the log parsers against malformed input: every input either
// parses, is ignored, or throws ContractViolation (DecodeError included) -
// never crashes, loops, or silently corrupts.  Mutations are seeded random
// edits of valid input: text lines plus unstructured garbage, and the binary
// formats that are actually read back - a UNPS stream drained through
// ArchiveReader and a 2-shard UNPH partition drained through
// ShardMergeReader, each into a sink decoding every record and into the warm
// report's sinks, which decode no run, and must reject exactly what full
// decoding rejects - and single node-log bodies, whose count pass must
// agree with full decoding error for error.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/shard_merge.hpp"

namespace unp::telemetry {
namespace {

const char* kValidLines[] = {
    "START 2015-02-01T00:12:03 host=07-03 bytes=3221225472 temp=33.4",
    "END 2015-02-01T06:00:00 host=07-03 temp=33.9",
    "ALLOCFAIL 2015-02-02T10:00:00 host=07-03",
    "ERROR 2015-11-03T07:08:09 host=02-04 vaddr=0x000012345678 "
    "expected=0xffffffff actual=0xffff7bff temp=34.1 page=0x000012345",
    "ERRRUN 2015-11-03T07:08:09 host=02-04 vaddr=0x000012345678 "
    "expected=0xffffffff actual=0xffff7bff temp=34.1 page=0x000012345 "
    "period=150 count=12000",
};

class TextCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextCodecFuzz, MutatedLinesNeverCrash) {
  RngStream rng(GetParam());
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = kValidLines[rng.uniform_u64(std::size(kValidLines))];
    const auto edits = 1 + rng.uniform_u64(6);
    for (std::uint64_t e = 0; e < edits; ++e) {
      if (line.empty()) break;
      const std::size_t pos = rng.uniform_u64(line.size());
      switch (rng.uniform_u64(3)) {
        case 0:  // replace with random byte
          line[pos] = static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:  // delete
          line.erase(pos, 1);
          break;
        default:  // duplicate a chunk
          line.insert(pos, line.substr(pos, rng.uniform_u64(8)));
          break;
      }
    }
    NodeLog log;
    try {
      (void)parse_line(line, log);
    } catch (const ContractViolation&) {
      // Rejection is a valid outcome; anything else would fail the test.
    }
  }
}

TEST_P(TextCodecFuzz, PureGarbageNeverCrashes) {
  RngStream rng(GetParam() + 1000);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line;
    const auto len = rng.uniform_u64(120);
    for (std::uint64_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(1 + rng.uniform_u64(255)));
    }
    NodeLog log;
    try {
      (void)parse_line(line, log);
    } catch (const ContractViolation&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextCodecFuzz, ::testing::Values(1, 2, 3));

/// A valid binary input, the offsets of its body-size varints, and a second
/// valid input to splice with.
struct Corpus {
  std::string valid;
  std::string other;
  std::vector<std::size_t> size_fields;
};

/// Append a UNPS stream with one small frame per node to `corpus.valid`.
/// Nodes and bodies stay under 128, so index and size are one byte each.
void append_stream(Corpus& corpus, const std::vector<int>& nodes) {
  NodeLog log;
  ErrorRecord err;
  err.time = from_civil_utc({2015, 5, 1, 0, 0, 0});
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFFFFFEu;
  log.add_error_run({err, 60, 3});
  log.add_start({err.time - 100, {}, 1 << 20, 30.0});
  const std::string body = encode_node_log(log);

  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  for (const int n : nodes) {
    corpus.size_fields.push_back(corpus.valid.size() +
                                 static_cast<std::size_t>(os.tellp()) + 1);
    writer.write_frame(static_cast<std::uint64_t>(n), body);
  }
  writer.finish();
  corpus.valid += os.str();
}

/// 1-8 seeded edits: byte flips, truncations, appends, body sizes that lie
/// about the bytes behind them, and splices with the other valid input.
std::string mutate(const Corpus& corpus, RngStream& rng) {
  static constexpr std::uint64_t kLies[] = {std::uint64_t{1} << 31,
                                            std::uint64_t{1} << 40,
                                            std::uint64_t{1} << 62};
  std::string bytes = corpus.valid;
  const auto edits = 1 + rng.uniform_u64(8);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_u64(5)) {
      case 0:
        bytes[rng.uniform_u64(bytes.size())] =
            static_cast<char>(rng.uniform_u64(256));
        break;
      case 1:
        bytes.resize(rng.uniform_u64(bytes.size()) + 1);
        break;
      case 2:
        bytes.push_back(static_cast<char>(rng.uniform_u64(256)));
        break;
      case 3: {
        const std::size_t at =
            corpus.size_fields[rng.uniform_u64(corpus.size_fields.size())];
        if (at >= bytes.size()) break;
        std::string lie;
        put_varint(lie, rng.bernoulli(0.25) ? rng.next_u64()
                                            : kLies[rng.uniform_u64(3)]);
        bytes.replace(at, 1, lie);
        break;
      }
      default:
        bytes = bytes.substr(0, rng.uniform_u64(bytes.size()) + 1) +
                corpus.other.substr(rng.uniform_u64(corpus.other.size()));
        break;
    }
  }
  return bytes;
}

// Every outcome below other than a ContractViolation (DecodeError included)
// - std::bad_alloc, any other exception, a crash or a hang - fails the test.
class BinaryCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// True when `drain` pushes its whole stream through the warm report's
/// sinks (ScanProfileSink + StreamingExtractor) and the extractor finishes.
/// Every node with runs is a filter candidate under the extractor's config,
/// so no sink decodes a run during the drain: validation at delivery is all
/// that stands between a corrupt run section and the sinks.
bool accepted_by_report_sinks(const std::function<ReplayStats(RecordSink&)>& drain) {
  analysis::ExtractionConfig held;
  held.pathological_min_raw = 1;
  analysis::ScanProfileSink scan;
  analysis::StreamingExtractor extractor(held);
  FanOutSink fan;
  fan.add(scan);
  fan.add(extractor);
  try {
    const ReplayStats stats = drain(fan);
    EXPECT_EQ(stats.runs_decoded, 0u);
  } catch (const ContractViolation&) {
    return false;
  }
  // The bodies were validated at delivery, so decoding the kept candidates
  // must not throw.
  (void)extractor.finish();
  return true;
}

TEST_P(BinaryCodecFuzz, MutatedStreamsNeverCrash) {
  Corpus corpus, other;
  append_stream(corpus, {3, 60, 100});
  append_stream(other, {5, 61, 62, 127});
  corpus.other = other.valid;

  RngStream rng(GetParam());
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string bytes = mutate(corpus, rng);
    // Reference: every frame decoded in full.
    bool decoded = true;
    try {
      std::istringstream is(bytes, std::ios::binary);
      ArchiveReader reader(is);
      cluster::NodeId node;
      NodeLog log;
      while (reader.next(node, log)) {
      }
    } catch (const ContractViolation&) {
      decoded = false;
    }
    try {
      std::istringstream is(bytes, std::ios::binary);
      test_support::LogCollector records;
      (void)ArchiveReader(is).drain(records);
    } catch (const ContractViolation&) {
    }
    EXPECT_EQ(accepted_by_report_sinks([&](RecordSink& sink) {
                std::istringstream is(bytes, std::ios::binary);
                return ArchiveReader(is).drain(sink);
              }),
              decoded)
        << "trial " << trial;
  }
}

TEST_P(BinaryCodecFuzz, MutatedShardPartitionsNeverCrash) {
  // Each trial corrupts one shard of a valid 2-shard partition (splicing
  // with the other shard) and merges the pair.
  Corpus shards[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    std::ostringstream header(std::ios::binary);
    write_shard_header(header, {2, i, 0xfeedbeef});
    shards[i].valid = header.str();
    append_stream(shards[i], i == 0 ? std::vector<int>{0, 4, 8}
                                    : std::vector<int>{1, 5});
  }
  shards[0].other = shards[1].valid;
  shards[1].other = shards[0].valid;
  const std::string paths[2] = {::testing::TempDir() + "fuzz_shard0.unph",
                                ::testing::TempDir() + "fuzz_shard1.unph"};

  RngStream rng(GetParam() + 100);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t victim = rng.uniform_u64(2);
    for (std::uint64_t i = 0; i < 2; ++i) {
      std::ofstream(paths[i], std::ios::binary | std::ios::trunc)
          << (i == victim ? mutate(shards[i], rng) : shards[i].valid);
    }
    bool decoded = true;
    try {
      ShardMergeReader reader({paths[0], paths[1]});
      cluster::NodeId node;
      NodeLog log;
      while (reader.next(node, log)) {
      }
    } catch (const ContractViolation&) {
      decoded = false;
    }
    try {
      test_support::LogCollector records;
      (void)ShardMergeReader({paths[0], paths[1]}).drain(records);
    } catch (const ContractViolation&) {
    }
    EXPECT_EQ(accepted_by_report_sinks([&](RecordSink& sink) {
                return ShardMergeReader({paths[0], paths[1]}).drain(sink);
              }),
              decoded)
        << "trial " << trial;
  }
  for (const auto& path : paths) std::remove(path.c_str());
}

/// A node-log body whose run section exercises every varint length: 1- to
/// 10-byte values, missing and present temperatures, multi-byte counts.
std::string varied_body() {
  NodeLog log;
  log.add_start({from_civil_utc({2015, 5, 1, 0, 0, 0}), {}, 3ULL << 30, 31.5});
  log.add_end({from_civil_utc({2015, 5, 1, 6, 0, 0}), {}, kNoTemperature});
  log.add_alloc_fail({from_civil_utc({2015, 5, 1, 7, 0, 0}), {}});
  RngStream rng(4242);
  TimePoint t = from_civil_utc({2015, 5, 1, 1, 0, 0});
  for (int i = 0; i < 24; ++i) {
    ErrorRecord err;
    t += static_cast<TimePoint>(rng.uniform_u64(100000));
    err.time = t;
    // Values of 1..64 significant bits: varints of every length.
    err.virtual_address = rng.next_u64() >> rng.uniform_u64(64);
    err.expected = ~Word{0} >> (i % 8);
    err.actual = static_cast<Word>(rng.next_u64() >> rng.uniform_u64(64));
    err.temperature_c = i % 3 == 0 ? kNoTemperature : 30.0 + i;
    err.physical_page = rng.next_u64() >> rng.uniform_u64(64);
    log.add_error_run({err, static_cast<std::int64_t>(rng.uniform_u64(1000)),
                       1 + rng.uniform_u64(i % 2 == 0 ? 100 : 1000000)});
  }
  return encode_node_log(log);
}

/// The outcome of one decode: accepted, or the error's detail and offset.
struct Outcome {
  bool ok = true;
  std::string detail;
  std::uint64_t offset = 0;

  static Outcome of(const DecodeError& e) {
    return {false, e.detail(), e.byte_offset()};
  }
};

// The count pass a replayed frame runs at delivery accepts exactly the
// bodies full decoding accepts, and rejects the others with the same error
// at the same offset; an accepted frame's log() equals the full decode.
TEST_P(BinaryCodecFuzz, CountPassAcceptsExactlyWhenFullDecodeDoes) {
  const std::string valid = varied_body();
  RngStream rng(GetParam() + 200);
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string body = valid;
    const auto edits = 1 + rng.uniform_u64(3);
    for (std::uint64_t e = 0; e < edits && !body.empty(); ++e) {
      const std::size_t at = rng.uniform_u64(body.size());
      switch (rng.uniform_u64(5)) {
        case 0:  // any byte
          body[at] = static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:  // a continuation byte: lengthens a varint
          body[at] = static_cast<char>(0x80 | rng.uniform_u64(128));
          break;
        case 2:  // a small byte: ends a varint, or is a flag or a count
          body[at] = static_cast<char>(rng.uniform_u64(3));
          break;
        case 3:
          body.resize(at);
          break;
        default:
          body.insert(at, body.substr(at, rng.uniform_u64(12)));
          break;
      }
    }

    Outcome full;
    NodeLog log;
    try {
      std::size_t pos = 0;
      log = decode_node_log(body, pos, {});
      if (pos != body.size()) throw DecodeError("body size mismatch", pos);
    } catch (const DecodeError& e) {
      full = Outcome::of(e);
    }
    Outcome lazy;
    try {
      EncodedNodeLog frame({}, body);
      EXPECT_EQ(frame.raw_error_count(), log.raw_error_count());
      EXPECT_EQ(frame.error_run_count(), log.error_runs().size());
      EXPECT_EQ(frame.log().error_runs(), log.error_runs());
    } catch (const DecodeError& e) {
      lazy = Outcome::of(e);
    }
    ASSERT_EQ(lazy.ok, full.ok) << "trial " << trial << ": "
                                << (full.ok ? lazy.detail : full.detail);
    EXPECT_EQ(lazy.detail, full.detail) << "trial " << trial;
    EXPECT_EQ(lazy.offset, full.offset) << "trial " << trial;
    if (!full.ok) ++rejected;
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecFuzz, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace unp::telemetry
