// Robustness of the log parsers against malformed input: every input either
// parses, is ignored, or throws ContractViolation (DecodeError included) -
// never crashes, loops, or silently corrupts.  Mutations are seeded random
// edits of valid input: text lines plus unstructured garbage, and the binary
// formats that are actually read back - a UNPS stream drained through
// ArchiveReader and a 2-shard UNPH partition drained through
// ShardMergeReader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
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

TEST_P(BinaryCodecFuzz, MutatedStreamsNeverCrash) {
  Corpus corpus, other;
  append_stream(corpus, {3, 60, 100});
  append_stream(other, {5, 61, 62, 127});
  corpus.other = other.valid;

  RngStream rng(GetParam());
  for (int trial = 0; trial < 3000; ++trial) {
    std::istringstream is(mutate(corpus, rng), std::ios::binary);
    try {
      CampaignArchive archive;
      ArchiveReader(is).drain(archive);
    } catch (const ContractViolation&) {
    }
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
    try {
      CampaignArchive archive;
      ShardMergeReader({paths[0], paths[1]}).drain(archive);
    } catch (const ContractViolation&) {
    }
  }
  for (const auto& path : paths) std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecFuzz, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace unp::telemetry
