// Byte-identity guarantees for the persisted formats: a UNPS stream is the
// same whether it went through the bulk node-log path or the per-record
// sink protocol, and a UNPF store's bytes are pinned (UNPS bytes are pinned
// in archive_io_test), so an encoder change that moves a byte of the store
// fails here.  Anything less would make archives non-reproducible across
// machines and builds.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/rng.hpp"
#include "store/builder.hpp"
#include "store/format.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

NodeLog varied_log(cluster::NodeId node, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  NodeLog log;
  TimePoint t = from_civil_utc({2015, 9, 1, 0, 0, 0});
  const int sessions = 3 + static_cast<int>(rng.next() % 5);
  for (int s = 0; s < sessions; ++s) {
    t += static_cast<TimePoint>(1800 + rng.next() % 7200);
    log.add_start({t, node, (2ULL + rng.next() % 3) << 30,
                   s % 2 == 0 ? kNoTemperature : 28.5});
    const int errors = static_cast<int>(rng.next() % 30);
    for (int e = 0; e < errors; ++e) {
      ErrorRecord err;
      err.time = t + 30 * (e + 1);
      err.node = node;
      err.virtual_address = (rng.next() % (1ull << 34)) & ~std::uint64_t{3};
      err.expected = static_cast<Word>(rng.next());
      err.actual = err.expected ^ static_cast<Word>(1u << (rng.next() % 32));
      err.temperature_c = e % 3 == 0 ? kNoTemperature : 30.0 + e;
      err.physical_page = err.virtual_address >> 12;
      log.add_error_run({err, static_cast<std::int64_t>(rng.next() % 300),
                         1 + rng.next() % 50});
    }
    const int fails = static_cast<int>(rng.next() % 10);
    for (int a = 0; a < fails; ++a) log.add_alloc_fail({t + 5 * (a + 1), node});
    t += 6 * 3600;
    log.add_end({t, node, 27.0});
  }
  log.sort_by_time();
  return log;
}

std::string write_stream_per_record() {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    if (i % 97 == 3)
      replay_node_log(varied_log(node, 100 + static_cast<std::uint64_t>(i)),
                      writer);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

std::string write_stream_bulk() {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  std::string scratch;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    NodeLog log;
    if (i % 97 == 3) log = varied_log(node, 100 + static_cast<std::uint64_t>(i));
    writer.begin_node(node);
    EncodedNodeLog enc(node, log, scratch);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

TEST(EncodeIdentityTest, ArchiveStreamIdenticalAcrossEmitPaths) {
  const std::string expect = write_stream_per_record();
  ASSERT_GT(expect.size(), 16u);
  EXPECT_EQ(write_stream_bulk(), expect);
}

std::vector<analysis::FaultRecord> canonical_faults(std::size_t count,
                                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<analysis::FaultRecord> faults;
  faults.reserve(count);
  TimePoint t = from_civil_utc({2015, 9, 1, 0, 0, 0});
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<TimePoint>(rng.next() % 600);
    analysis::FaultRecord fault;
    fault.node = {static_cast<int>(rng.next() % 94),
                  static_cast<int>(rng.next() % 16)};
    fault.first_seen = t;
    fault.last_seen = t + static_cast<TimePoint>(rng.next() % 50'000);
    fault.raw_logs = 1 + rng.next() % 4000;
    fault.virtual_address = (rng.next() % (1ull << 34)) & ~std::uint64_t{3};
    fault.expected = static_cast<Word>(rng.next());
    Word mask = static_cast<Word>(1u << (rng.next() % 32));
    if (i % 5 == 0) mask |= static_cast<Word>(1u << (rng.next() % 32));
    fault.actual = fault.expected ^ mask;
    fault.temperature_c =
        i % 4 == 0 ? kNoTemperature : 20.0 + static_cast<double>(rng.next() % 30);
    faults.push_back(fault);
  }
  return faults;
}

std::string build_store(const std::vector<analysis::FaultRecord>& faults) {
  store::StoreBuilder builder(store::StoreBuilder::Config{128});
  builder.set_fingerprint(0xC0FFEE);
  const TimePoint start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  builder.begin_faults(analysis::FaultStreamContext{{start, start + 400'000}});
  for (const analysis::FaultRecord& fault : faults) builder.on_fault(fault);
  builder.end_faults();
  return builder.encode();
}

constexpr std::size_t kPinnedStoreSize = 38554;
constexpr std::uint64_t kPinnedStoreDigest = 0xc1193e312667e1c6ull;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(EncodeIdentityTest, StoreFileBytesArePinned) {
  // 777 rows over 128-row segments: six full segments plus a short tail.
  // Size and digest were captured from the store the per-ISA encoders
  // (scalar, SSE2, AVX2) all produced before they folded into one loop.
  const std::string bytes = build_store(canonical_faults(777, 42));
  EXPECT_EQ(bytes.size(), kPinnedStoreSize);
  EXPECT_EQ(fnv1a64(bytes), kPinnedStoreDigest);
}

TEST(EncodeIdentityTest, SegmentWrapperMatchesHotPathForm) {
  const auto faults = canonical_faults(200, 7);
  const std::span<const analysis::FaultRecord> rows(faults);

  store::SegmentZone zone_wrapper;
  const std::string expect = store::encode_segment(rows, zone_wrapper);

  store::SegmentZone zone;
  store::SegmentScratch arena;
  std::string out = "prefix";  // offsets must be caller-relative
  store::encode_segment_into(rows, zone, out, arena);
  EXPECT_EQ(out.substr(6), expect);
  EXPECT_EQ(zone.size, expect.size());
  EXPECT_EQ(zone.rows, zone_wrapper.rows);
  EXPECT_EQ(zone.time_min, zone_wrapper.time_min);
  EXPECT_EQ(zone.time_max, zone_wrapper.time_max);
  EXPECT_EQ(zone.addr_min, zone_wrapper.addr_min);
  EXPECT_EQ(zone.addr_max, zone_wrapper.addr_max);

  // Arena reuse across segments must not leak state between bodies.
  std::string again;
  store::SegmentZone zone2;
  store::encode_segment_into(rows, zone2, again, arena);
  EXPECT_EQ(again, expect) << "reused arena";
}

}  // namespace
}  // namespace unp::telemetry
