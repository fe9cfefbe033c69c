// The varint encoder against put_varint and the LEB128 definition: every
// length boundary (the 2^7k edges), every residue of VarintWriter's
// 512-byte block spill, the zig-zag delta chains, and the pre-sizing
// contract (a buffer reserved from node_log_encoded_bound never
// reallocates while a node log is encoded into it).
#include "telemetry/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry::kernels {
namespace {

/// Every LEB128 length boundary: 2^(7k) - 1, 2^(7k), 2^(7k) + 1 for each
/// group count, plus the 10-byte extremes.
std::vector<std::uint64_t> boundary_values() {
  std::vector<std::uint64_t> v{0, 1, 0x7F, 0x80, 0x81};
  for (int k = 2; k <= 9; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << (7 * k);
    v.push_back(edge - 1);
    v.push_back(edge);
    v.push_back(edge + 1);
  }
  v.push_back(~std::uint64_t{0} >> 1);
  v.push_back((~std::uint64_t{0} >> 1) + 1);
  v.push_back(~std::uint64_t{0});
  return v;
}

/// Mixed stream shaped like real telemetry: mostly 1-byte values with
/// multi-byte and maximal encodings sprinkled in.
std::vector<std::uint64_t> mixed_values(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 70)
      values.push_back(rng.next() % 128);  // 1 byte (packed-run path)
    else if (roll < 90)
      values.push_back(128 + rng.next() % (1u << 20));  // 2-3 bytes
    else
      values.push_back(rng.next());  // up to 10 bytes
  }
  return values;
}

std::string oracle_bytes(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t v : values) put_varint(out, v);
  return out;
}

/// LEB128 from its definition: the minimal number of 7-bit groups, least
/// significant first, the high bit set on every byte but the last.
std::string leb128(std::uint64_t v) {
  int groups = 1;
  while (groups < 10 && (v >> (7 * groups)) != 0) ++groups;
  std::string out;
  for (int g = 0; g < groups; ++g) {
    const auto payload = static_cast<unsigned char>((v >> (7 * g)) & 0x7F);
    out.push_back(static_cast<char>(g + 1 < groups ? payload | 0x80 : payload));
  }
  return out;
}

TEST(EncodeKernelsTest, EncodeVarintMatchesLeb128AtEveryLengthBoundary) {
  std::string expect_all;
  for (const std::uint64_t v : boundary_values()) {
    const std::string expect = leb128(v);
    expect_all += expect;

    char buffer[10];
    const std::size_t len = encode_varint(v, buffer);
    EXPECT_EQ(std::string(buffer, len), expect) << "value " << v;

    std::string put;
    put_varint(put, v);
    EXPECT_EQ(put, expect) << "value " << v;
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(put, pos), v);
    EXPECT_EQ(pos, put.size());
  }
  const auto edges = boundary_values();
  std::string got;
  encode_varints(edges.data(), edges.size(), got);
  EXPECT_EQ(got, expect_all);
}

TEST(EncodeKernelsTest, EncodeVarintsMatchesPutVarintOnEveryResidue) {
  // Counts 0..40 cover short runs; 3000 values cross the writer's
  // 512-byte block spill many times at varying offsets.
  for (std::size_t count = 0; count <= 40; ++count) {
    const auto values = mixed_values(count, count * 31 + 7);
    std::string got = "prefix";  // appends, never overwrites
    encode_varints(values.data(), values.size(), got);
    EXPECT_EQ(got, "prefix" + oracle_bytes(values)) << "count " << count;
  }
  const auto values = mixed_values(3000, 99);
  std::string got;
  encode_varints(values.data(), values.size(), got);
  EXPECT_EQ(got, oracle_bytes(values));
}

TEST(EncodeKernelsTest, EncodeZigzagDeltasMatchesSignedScalarChain) {
  Xoshiro256 rng(2024);
  std::vector<std::vector<std::uint64_t>> chains;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{33}, std::size_t{1000}}) {
    // Random walk with small steps, regressions (negative deltas), and
    // occasional huge jumps (multi-byte and wraparound cases).
    std::vector<std::uint64_t> values(count);
    std::uint64_t v = 1'440'000'000;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t roll = rng.next() % 100;
      if (roll < 70)
        v += rng.next() % 32;
      else if (roll < 90)
        v -= rng.next() % 1000;  // regression: negative delta
      else
        v = rng.next();  // arbitrary jump, including wraparound deltas
      values[i] = v;
    }
    chains.push_back(std::move(values));
  }
  {  // A chain whose zig-zag deltas land on every 2^7k length boundary.
    std::vector<std::uint64_t> values;
    std::uint64_t v = 0;
    for (const std::uint64_t zz : boundary_values()) {
      v += static_cast<std::uint64_t>(zigzag_decode(zz));
      values.push_back(v);
    }
    chains.push_back(std::move(values));
  }

  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& values = chains[c];
    const std::uint64_t base = c % 2 == 0 ? 0 : 1'439'999'000;
    // Oracle: the signed delta chain the section writers run.
    std::string expect;
    std::uint64_t previous = base;
    for (const std::uint64_t value : values) {
      put_varint(expect,
                 zigzag_encode(static_cast<std::int64_t>(value - previous)));
      previous = value;
    }
    std::string got;
    encode_zigzag_deltas(values.data(), values.size(), base, got);
    EXPECT_EQ(got, expect) << "chain " << c;
  }
}

TEST(EncodeKernelsTest, VarintWriterMatchesDirectAppends) {
  auto values = mixed_values(700, 5);
  const auto edges = boundary_values();
  values.insert(values.end(), edges.begin(), edges.end());
  std::string expect;
  for (std::size_t i = 0; i < values.size(); ++i) {
    put_varint(expect, values[i]);
    if (i % 5 == 0) expect.push_back('\1');
    if (i % 7 == 0) put_f64(expect, static_cast<double>(values[i]) * 0.25);
  }
  std::string got;
  {
    VarintWriter w(got);
    for (std::size_t i = 0; i < values.size(); ++i) {
      w.varint(values[i]);
      if (i % 5 == 0) w.byte('\1');
      if (i % 7 == 0) w.f64(static_cast<double>(values[i]) * 0.25);
    }
  }  // destructor flushes
  EXPECT_EQ(got, expect);
}

NodeLog busy_log(cluster::NodeId node, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  NodeLog log;
  TimePoint t = from_civil_utc({2015, 6, 1, 0, 0, 0});
  for (int s = 0; s < 40; ++s) {
    t += static_cast<TimePoint>(3600 + rng.next() % 7200);
    log.add_start({t, node, 3ULL << 30,
                   s % 3 == 0 ? kNoTemperature : 25.0 + static_cast<double>(s)});
    for (int e = 0; e < 12; ++e) {
      ErrorRecord err;
      err.time = t + 60 * (e + 1);
      err.node = node;
      err.virtual_address = (rng.next() % (1ull << 33)) & ~std::uint64_t{3};
      err.expected = static_cast<Word>(rng.next());
      err.actual = err.expected ^ static_cast<Word>(1u << (rng.next() % 32));
      err.temperature_c = e % 2 == 0 ? kNoTemperature : 31.25;
      err.physical_page = err.virtual_address >> 12;
      log.add_error_run({err, static_cast<std::int64_t>(rng.next() % 400),
                         1 + rng.next() % 90});
    }
    for (int a = 0; a < 6; ++a)
      log.add_alloc_fail({t + 10 * (a + 1), node});
    t += 8 * 3600;
    log.add_end({t, node, 26.5});
  }
  log.sort_by_time();
  return log;
}

TEST(EncodeKernelsTest, NodeLogBoundPreSizingNeverReallocates) {
  const NodeLog log = busy_log({3, 7}, 11);
  const std::size_t bound = node_log_encoded_bound(log);
  const std::string expect = encode_node_log(log);
  ASSERT_LE(expect.size(), bound);

  // A buffer reserved to the bound (behind a prefix, as frame writers
  // append) keeps its storage through the whole encode: every append
  // below the bound fits, so the data pointer and capacity never move.
  for (const std::size_t prefix : {std::size_t{0}, std::size_t{13}}) {
    std::string out(prefix, 'x');
    out.reserve(prefix + bound);
    const char* data = out.data();
    const std::size_t capacity = out.capacity();
    encode_node_log_into(log, out);
    EXPECT_EQ(out.data(), data) << "prefix " << prefix;
    EXPECT_EQ(out.capacity(), capacity) << "prefix " << prefix;
    EXPECT_EQ(out.substr(prefix), expect) << "prefix " << prefix;
  }
}

}  // namespace
}  // namespace unp::telemetry::kernels
