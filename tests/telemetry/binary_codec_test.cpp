#include "telemetry/binary_codec.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace unp::telemetry {
namespace {

TEST(Varint, RoundTripKnownValues) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL,
                          16384ULL, ~0ULL, 1ULL << 63}) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, Compactness) {
  std::string buf;
  put_varint(buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, TruncationThrows) {
  std::string buf;
  put_varint(buf, 1ULL << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW((void)get_varint(buf, pos), ContractViolation);
}

TEST(Varint, MaxLengthEncodingsRoundTrip) {
  // The 64-bit ceiling needs all ten LEB128 groups; both extremes of the
  // ten-byte form must decode exactly.
  for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
           std::numeric_limits<std::uint64_t>::max(), 1ULL << 63}) {
    std::string buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), 10u);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, pos), v);
    EXPECT_EQ(pos, 10u);
  }
}

TEST(Varint, RejectsTenthByteBitsBeyond64) {
  // Nine continuation groups consume 63 bits; any tenth-byte payload bit
  // other than the lowest would overflow u64 and must be rejected, not
  // silently wrapped.
  for (const char last : {'\x02', '\x7e', '\x7f'}) {
    std::string buf(9, '\x80');
    buf += last;
    std::size_t pos = 0;
    EXPECT_THROW((void)get_varint(buf, pos), DecodeError);
  }
  // The same shape with only bit 63 set stays valid.
  std::string ok(9, '\x80');
  ok += '\x01';
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(ok, pos), 1ULL << 63);
}

TEST(Varint, RejectsEncodingsLongerThanTenBytes) {
  std::string buf(10, '\x80');
  buf += '\x01';
  std::size_t pos = 0;
  EXPECT_THROW((void)get_varint(buf, pos), DecodeError);
}

TEST(Varint, MidVarintTruncationReportsOffset) {
  std::string buf;
  put_varint(buf, 5);            // one complete varint...
  put_varint(buf, 1ULL << 40);   // ...then one cut mid-encoding
  buf.resize(buf.size() - 2);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, pos), 5u);
  try {
    (void)get_varint(buf, pos);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_LE(e.byte_offset(), buf.size());
    EXPECT_GE(e.byte_offset(), 1u);  // past the first, intact varint
    EXPECT_FALSE(e.detail().empty());
  }
}

TEST(Varint, GroupBoundaryValuesUseExpectedLengths) {
  // 2^(7k) is the first value needing k+1 bytes; its predecessor fits in k.
  for (int k = 1; k <= 9; ++k) {
    const std::uint64_t boundary = 1ULL << (7 * k);
    for (const std::uint64_t v : {boundary - 1, boundary, boundary + 1}) {
      std::string buf;
      put_varint(buf, v);
      EXPECT_EQ(buf.size(), static_cast<std::size_t>(k) + (v >= boundary))
          << "value " << v;
      std::size_t pos = 0;
      EXPECT_EQ(get_varint(buf, pos), v);
      EXPECT_EQ(pos, buf.size());
    }
  }
}

TEST(Varint, RoundTripRandom) {
  RngStream rng(3);
  std::string buf;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_u64() >> rng.uniform_u64(64);
    values.push_back(v);
    put_varint(buf, v);
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) EXPECT_EQ(get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(ZigZag, RoundTrip) {
  for (std::int64_t v :
       std::initializer_list<std::int64_t>{
           0, 1, -1, 1234567, -1234567,
           std::numeric_limits<std::int64_t>::max(),
           std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the point of zigzag).
  EXPECT_LE(zigzag_encode(-1), 2u);
  EXPECT_LE(zigzag_encode(1), 2u);
}

NodeLog sample_log(cluster::NodeId node) {
  NodeLog log;
  log.add_start({from_civil_utc({2015, 3, 1, 1, 0, 0}), node, 3ULL << 30, 31.5});
  log.add_start({from_civil_utc({2015, 3, 2, 1, 0, 0}), node, 3ULL << 30,
                 kNoTemperature});
  log.add_end({from_civil_utc({2015, 3, 1, 9, 30, 0}), node, 32.25});
  log.add_alloc_fail({from_civil_utc({2015, 3, 2, 4, 0, 0}), node});
  ErrorRecord err;
  err.time = from_civil_utc({2015, 3, 1, 2, 0, 0});
  err.node = node;
  err.virtual_address = 0x12345678;
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFF7BFFu;
  err.temperature_c = 34.125;
  err.physical_page = 0x12345;
  log.add_error(err);
  err.time += 12345;
  log.add_error_run({err, 150, 42});
  return log;
}

TEST(BinaryCodec, NodeLogRoundTripExact) {
  const NodeLog original = sample_log({7, 3});
  const std::string bytes = encode_node_log(original);
  std::size_t pos = 0;
  const NodeLog parsed = decode_node_log(bytes, pos, {7, 3});
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(parsed.starts(), original.starts());
  EXPECT_EQ(parsed.ends(), original.ends());
  EXPECT_EQ(parsed.alloc_fails(), original.alloc_fails());
  EXPECT_EQ(parsed.error_runs(), original.error_runs());
}

TEST(BinaryCodec, DeltaEncodingIsCompact) {
  // 1000 error records one pass apart should cost only a few bytes each.
  NodeLog log;
  ErrorRecord err;
  err.node = {1, 1};
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFFFFFEu;
  err.temperature_c = kNoTemperature;
  for (int i = 0; i < 1000; ++i) {
    err.time = 1000000 + i * 75;
    err.virtual_address = 4096;
    log.add_error(err);
  }
  const std::string bytes = encode_node_log(log);
  EXPECT_LT(bytes.size(), 1000u * 24u);
}

}  // namespace
}  // namespace unp::telemetry
