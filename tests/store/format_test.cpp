// Unit tests for the UNPF segment/zone/metadata codecs (src/store/format).
#include "store/format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "telemetry/record.hpp"

using unp::telemetry::kNoTemperature;

namespace unp::store {
namespace {

// --- bit packing ----------------------------------------------------------

TEST(PackBits, RoundTripAcrossWidths) {
  Xoshiro256 rng(7);
  for (const int width : {1, 2, 3, 7, 8, 10, 31, 32, 33, 56, 63, 64}) {
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 97; ++i) {
      const std::uint64_t mask =
          width == 64 ? ~0ull : ((1ull << width) - 1ull);
      values.push_back(rng.next() & mask);
    }
    std::string buf = "xx";  // nonzero base offset
    pack_bits(buf, values, width);
    std::vector<std::uint64_t> decoded;
    unpack_bits(buf, 2, buf.size(), values.size(), width, decoded);
    EXPECT_EQ(decoded, values) << "width " << width;
  }
}

TEST(PackBits, WidthZeroWritesNothing) {
  std::string buf;
  const std::vector<std::uint64_t> zeros(5, 0);
  pack_bits(buf, zeros, 0);
  EXPECT_TRUE(buf.empty());
  std::vector<std::uint64_t> decoded;
  unpack_bits(buf, 0, 0, 5, 0, decoded);
  EXPECT_EQ(decoded, zeros);
}

TEST(PackBits, RejectsValueWiderThanWidth) {
  std::string buf;
  const std::vector<std::uint64_t> values = {4};  // needs 3 bits
  EXPECT_THROW(pack_bits(buf, values, 2), ContractViolation);
}

TEST(PackBits, UnpackThrowsOnTruncatedBlock) {
  std::string buf;
  const std::vector<std::uint64_t> values = {0x3ff, 0x2aa, 0x155};
  pack_bits(buf, values, 10);
  std::vector<std::uint64_t> decoded;
  EXPECT_THROW(unpack_bits(buf, 0, buf.size() - 1, 3, 10, decoded),
               DecodeError);
  EXPECT_THROW(unpack_bits(buf, 0, buf.size(), 4, 10, decoded), DecodeError);
}

// --- fault classes --------------------------------------------------------

TEST(FaultClassTest, ClassifiesBitCountBoundaries) {
  // The stored 2-bit codes: single 0, double 1, few (3-8) 2, many (9+) 3.
  EXPECT_EQ(flip_class_of(1), 0);
  EXPECT_EQ(flip_class_of(2), 1);
  EXPECT_EQ(flip_class_of(3), 2);
  EXPECT_EQ(flip_class_of(8), 2);
  EXPECT_EQ(flip_class_of(9), 3);
  EXPECT_EQ(flip_class_of(32), 3);
}

// --- segment codec --------------------------------------------------------

std::vector<analysis::FaultRecord> sample_rows() {
  std::vector<analysis::FaultRecord> rows;
  Xoshiro256 rng(11);
  TimePoint t = 1'444'000'000;
  for (int i = 0; i < 300; ++i) {
    analysis::FaultRecord f;
    f.node = cluster::node_from_index(
        static_cast<int>(rng.next() % cluster::kStudyNodeSlots));
    f.first_seen = t;
    f.last_seen = t + static_cast<TimePoint>(rng.next() % 4000);
    f.raw_logs = 1 + rng.next() % 900;
    f.virtual_address = rng.next() >> 12;
    f.expected = static_cast<Word>(rng.next());
    // Flip 1..12 bits so every flip class occurs.
    Word mask = 0;
    const int flips = 1 + static_cast<int>(rng.next() % 12);
    for (int b = 0; b < flips; ++b)
      mask |= Word{1} << (rng.next() % 32);
    f.actual = f.expected ^ (mask == 0 ? Word{1} : mask);
    f.temperature_c =
        i % 7 == 0 ? kNoTemperature : 20.0 + static_cast<double>(i % 30);
    rows.push_back(f);
    t += static_cast<TimePoint>(rng.next() % 600);
  }
  return rows;
}

TEST(SegmentCodec, RoundTripsEveryColumn) {
  const auto rows = sample_rows();
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  zone.size = body.size();

  SegmentColumns cols;
  decode_segment(body, 0, zone, kAllColumns, cols);
  ASSERT_EQ(cols.first_seen.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const analysis::FaultRecord& f = rows[i];
    EXPECT_EQ(cols.node_index[i],
              static_cast<std::uint32_t>(cluster::node_index(f.node)));
    EXPECT_EQ(cols.first_seen[i], f.first_seen);
    // The segment codec stores last_seen as an offset from first_seen; the
    // reader re-bases it after decoding.
    EXPECT_EQ(cols.last_seen[i], f.last_seen - f.first_seen);
    EXPECT_EQ(cols.raw_logs[i], f.raw_logs);
    EXPECT_EQ(cols.address[i], f.virtual_address);
    EXPECT_EQ(cols.expected[i], f.expected);
    EXPECT_EQ(cols.actual[i], f.actual);
    EXPECT_EQ(cols.temperature[i], f.temperature_c);
    EXPECT_EQ(cols.fault_class[i], flip_class_of(f.flipped_bits()));
  }
}

TEST(SegmentCodec, ZoneCoversExactMinMaxRanges) {
  const auto rows = sample_rows();
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  EXPECT_EQ(zone.rows, rows.size());
  TimePoint tmin = rows.front().first_seen, tmax = rows.front().first_seen;
  std::uint32_t nmin = ~0u, nmax = 0;
  std::uint64_t amin = ~0ull, amax = 0;
  int bmin = 99, bmax = 0;
  for (const auto& f : rows) {
    tmin = std::min(tmin, f.first_seen);
    tmax = std::max(tmax, f.first_seen);
    const auto idx = static_cast<std::uint32_t>(cluster::node_index(f.node));
    nmin = std::min(nmin, idx);
    nmax = std::max(nmax, idx);
    amin = std::min(amin, f.virtual_address);
    amax = std::max(amax, f.virtual_address);
    bmin = std::min(bmin, f.flipped_bits());
    bmax = std::max(bmax, f.flipped_bits());
  }
  EXPECT_EQ(zone.time_min, tmin);
  EXPECT_EQ(zone.time_max, tmax);
  EXPECT_EQ(zone.node_min, nmin);
  EXPECT_EQ(zone.node_max, nmax);
  EXPECT_EQ(zone.addr_min, amin);
  EXPECT_EQ(zone.addr_max, amax);
  EXPECT_EQ(int{zone.bits_min}, bmin);
  EXPECT_EQ(int{zone.bits_max}, bmax);
}

TEST(SegmentCodec, ProjectionSkipsUnselectedColumns) {
  const auto rows = sample_rows();
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  zone.size = body.size();

  SegmentColumns cols;
  decode_segment(body, 0, zone, kColFirstSeen | kColClass, cols);
  EXPECT_EQ(cols.first_seen.size(), rows.size());
  EXPECT_EQ(cols.fault_class.size(), rows.size());
  EXPECT_TRUE(cols.node_index.empty());
  EXPECT_TRUE(cols.raw_logs.empty());
  EXPECT_TRUE(cols.address.empty());
  EXPECT_TRUE(cols.expected.empty());
  EXPECT_TRUE(cols.actual.empty());
  EXPECT_TRUE(cols.temperature.empty());
  // last_seen is stored as an offset from first_seen: decoding it requires
  // first_seen, which the planner adds; here it decodes standalone offsets.
  EXPECT_TRUE(cols.last_seen.empty() || cols.last_seen.size() == rows.size());
}

TEST(SegmentCodec, SingleNodeSegmentUsesZeroBitIndexes) {
  std::vector<analysis::FaultRecord> rows;
  for (int i = 0; i < 10; ++i) {
    analysis::FaultRecord f;
    f.node = cluster::NodeId{12, 3};
    f.first_seen = 1000 + i;
    f.last_seen = f.first_seen;
    f.virtual_address = 0x1000u + static_cast<std::uint64_t>(i);
    f.expected = 0xffffffffu;
    f.actual = 0xfffffffeu;
    f.temperature_c = kNoTemperature;
    rows.push_back(f);
  }
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  zone.size = body.size();
  SegmentColumns cols;
  decode_segment(body, 0, zone, kAllColumns, cols);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(cols.node_index[i],
              static_cast<std::uint32_t>(cluster::node_index({12, 3})));
}

TEST(SegmentCodec, ThrowsDecodeErrorOnTruncation) {
  const auto rows = sample_rows();
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  // Every strict prefix must fail loudly, never mis-decode.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, body.size() / 2,
                                body.size() - 1}) {
    SegmentZone short_zone = zone;
    short_zone.size = cut;
    SegmentColumns cols;
    EXPECT_THROW(
        decode_segment(body.substr(0, cut), 0, short_zone, kAllColumns, cols),
        DecodeError)
        << "cut at " << cut;
  }
}

TEST(SegmentCodec, ThrowsOnTrailingGarbageInsideSegment) {
  const auto rows = sample_rows();
  SegmentZone zone;
  std::string body = encode_segment(rows, zone);
  body += '\xff';
  zone.size = body.size();
  SegmentColumns cols;
  EXPECT_THROW(decode_segment(body, 0, zone, kAllColumns, cols), DecodeError);
}

TEST(SegmentCodec, DecodeErrorCarriesByteOffset) {
  const auto rows = sample_rows();
  SegmentZone zone;
  const std::string body = encode_segment(rows, zone);
  SegmentZone short_zone = zone;
  short_zone.size = body.size() / 2;
  SegmentColumns cols;
  try {
    decode_segment(body.substr(0, body.size() / 2), 0, short_zone, kAllColumns,
                    cols);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_LE(e.byte_offset(), body.size());
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

// --- zone directory codec -------------------------------------------------

TEST(ZoneCodec, RoundTrips) {
  SegmentZone zone;
  zone.offset = 123456;
  zone.size = 9999;
  zone.rows = 1024;
  zone.time_min = 1'444'000'000;
  zone.time_max = 1'444'999'999;
  zone.node_min = 3;
  zone.node_max = 901;
  zone.addr_min = 0x1000;
  zone.addr_max = 0xffff'ffff'fffull;
  zone.bits_min = 1;
  zone.bits_max = 17;

  std::string buf;
  encode_zone(buf, zone);
  std::size_t pos = 0;
  const SegmentZone back = decode_zone(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.offset, zone.offset);
  EXPECT_EQ(back.size, zone.size);
  EXPECT_EQ(back.rows, zone.rows);
  EXPECT_EQ(back.time_min, zone.time_min);
  EXPECT_EQ(back.time_max, zone.time_max);
  EXPECT_EQ(back.node_min, zone.node_min);
  EXPECT_EQ(back.node_max, zone.node_max);
  EXPECT_EQ(back.addr_min, zone.addr_min);
  EXPECT_EQ(back.addr_max, zone.addr_max);
  EXPECT_EQ(back.bits_min, zone.bits_min);
  EXPECT_EQ(back.bits_max, zone.bits_max);
}

TEST(ZoneCodec, RejectsZeroRowSegments) {
  SegmentZone zone;
  zone.rows = 0;
  std::string buf;
  encode_zone(buf, zone);
  std::size_t pos = 0;
  EXPECT_THROW((void)decode_zone(buf, pos), DecodeError);
}

// --- campaign metadata codecs ---------------------------------------------

TEST(MetadataCodec, ScanProfileRoundTripsBitExact) {
  StoredScanProfile profile;
  profile.monitored_nodes = 900;
  profile.total_hours = 40941.25;
  profile.total_terabyte_hours = 319.921875;
  for (std::size_t b = 0; b < static_cast<std::size_t>(cluster::kStudyBlades); ++b)
    for (std::size_t s = 0; s < static_cast<std::size_t>(cluster::kSocsPerBlade); ++s) {
      profile.hours.at(b, s) =
          static_cast<double>(b) * 100.0 + static_cast<double>(s) + 0.125;
      profile.terabyte_hours.at(b, s) =
          static_cast<double>(b) + static_cast<double>(s) / 7.0;
    }
  profile.daily_terabyte_hours = {0.0, 1.5, 2.25, 1e-30, 3.9999999999};

  std::string buf;
  encode_scan_profile(buf, profile);
  std::size_t pos = 0;
  const StoredScanProfile back = decode_scan_profile(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.monitored_nodes, profile.monitored_nodes);
  EXPECT_EQ(back.total_hours, profile.total_hours);
  EXPECT_EQ(back.total_terabyte_hours, profile.total_terabyte_hours);
  EXPECT_EQ(back.daily_terabyte_hours, profile.daily_terabyte_hours);
  for (std::size_t b = 0; b < static_cast<std::size_t>(cluster::kStudyBlades); ++b)
    for (std::size_t s = 0; s < static_cast<std::size_t>(cluster::kSocsPerBlade); ++s) {
      EXPECT_EQ(back.hours.at(b, s), profile.hours.at(b, s));
      EXPECT_EQ(back.terabyte_hours.at(b, s), profile.terabyte_hours.at(b, s));
    }
}

TEST(MetadataCodec, ExtractionMetaRoundTrips) {
  StoredExtractionMeta meta;
  meta.removed_nodes = {cluster::NodeId{0, 0}, cluster::NodeId{58, 2},
                        cluster::NodeId{62, 14}};
  meta.total_raw_logs = 25'000'000;
  meta.removed_raw_logs = 1'234'567;

  std::string buf;
  encode_extraction_meta(buf, meta);
  std::size_t pos = 0;
  const StoredExtractionMeta back = decode_extraction_meta(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.removed_nodes, meta.removed_nodes);
  EXPECT_EQ(back.total_raw_logs, meta.total_raw_logs);
  EXPECT_EQ(back.removed_raw_logs, meta.removed_raw_logs);
}

}  // namespace
}  // namespace unp::store
