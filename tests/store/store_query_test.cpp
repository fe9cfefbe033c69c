// End-to-end tests of the UNPF store: builder -> reader round trip, query
// planning, zone-map pruning equivalence, thread invariance, sink replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "store/query.hpp"
#include "store/reader.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/record.hpp"

using unp::telemetry::kNoTemperature;

namespace unp::store {
namespace {

constexpr TimePoint kStart = 1'440'000'000;
constexpr TimePoint kEnd = kStart + 200'000;

/// Synthetic population in canonical (time, node, address) order spanning
/// many blades, bit multiplicities, and both temperature states.
std::vector<analysis::FaultRecord> make_population(int n = 3000) {
  std::vector<analysis::FaultRecord> faults;
  Xoshiro256 rng(99);
  for (int i = 0; i < n; ++i) {
    analysis::FaultRecord f;
    f.first_seen = kStart + (static_cast<TimePoint>(i) * 60);
    f.last_seen = f.first_seen + static_cast<TimePoint>(rng.next() % 300);
    // Cluster nodes in time so node zones have pruning power.
    const int blade = (i / 200) % cluster::kStudyBlades;
    const int soc = static_cast<int>(rng.next() % cluster::kSocsPerBlade);
    f.node = cluster::NodeId{blade, soc};
    f.raw_logs = 1 + rng.next() % 40;
    f.virtual_address = (rng.next() % (1ull << 40));
    f.expected = static_cast<Word>(rng.next());
    Word mask = 1;
    const std::uint64_t roll = rng.next() % 100;
    if (roll >= 90) {  // ~10% multi-bit of varying class
      const int flips = 2 + static_cast<int>(rng.next() % 14);
      for (int b = 0; b < flips; ++b) mask |= Word{1} << (rng.next() % 32);
    }
    f.actual = f.expected ^ mask;
    f.temperature_c = i % 5 == 0 ? kNoTemperature
                                 : 18.0 + static_cast<double>(rng.next() % 25);
    faults.push_back(f);
  }
  std::sort(faults.begin(), faults.end(),
            [](const analysis::FaultRecord& a, const analysis::FaultRecord& b) {
              return std::tie(a.first_seen, a.node, a.virtual_address) <
                     std::tie(b.first_seen, b.node, b.virtual_address);
            });
  return faults;
}

StoreReader build_reader(const std::vector<analysis::FaultRecord>& faults,
                         std::size_t segment_rows = 128) {
  StoreBuilder builder(StoreBuilder::Config{segment_rows});
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.set_fingerprint(0xabcdef);
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  return StoreReader(StoreHandle::from_bytes(builder.encode()));
}

std::vector<analysis::FaultRecord> brute_force(
    const std::vector<analysis::FaultRecord>& faults, const Query& q) {
  std::vector<analysis::FaultRecord> out;
  for (const auto& f : faults) {
    if (q.matches(static_cast<std::uint32_t>(cluster::node_index(f.node)),
                  f.first_seen, f.flipped_bits()))
      out.push_back(f);
  }
  return out;
}

std::vector<Query> query_grid() {
  std::vector<Query> queries;
  queries.emplace_back();  // match-all
  {
    Query q;
    q.since = kStart + 20'000;
    q.until = kStart + 90'000;
    queries.push_back(q);
  }
  {
    Query q;
    q.blade = 7;
    queries.push_back(q);
  }
  {
    Query q;
    q.soc = 3;  // row-level only: node zones cannot prune a bare SoC
    queries.push_back(q);
  }
  {
    Query q;
    q.blade = 2;
    q.soc = 11;
    queries.push_back(q);
  }
  {
    Query q;
    q.min_bits = 2;  // class-aligned (multi-bit)
    queries.push_back(q);
  }
  {
    Query q;
    q.min_bits = 4;  // NOT class-aligned: needs the pattern pair
    q.max_bits = 10;
    queries.push_back(q);
  }
  {
    Query q;  // everything at once
    q.since = kStart + 5'000;
    q.until = kStart + 150'000;
    q.blade = 3;
    q.min_bits = 2;
    q.max_bits = 8;
    queries.push_back(q);
  }
  {
    Query q;  // empty result: time range before any fault
    q.until = kStart;
    queries.push_back(q);
  }
  return queries;
}

TEST(StoreQuery, MaterializeMatchesBruteForceAcrossQueryGrid) {
  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);
  for (const Query& q : query_grid()) {
    ScanStats stats;
    const auto rows = reader.materialize(q, {}, &stats);
    EXPECT_EQ(rows, brute_force(faults, q)) << q.describe();
    EXPECT_EQ(stats.rows_matched, rows.size());
    EXPECT_EQ(stats.segments_total,
              stats.segments_pruned + stats.segments_scanned);
  }
}

TEST(StoreQuery, PrunedAndUnprunedScansAgree) {
  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);
  for (const Query& q : query_grid()) {
    ScanStats pruned_stats;
    ScanStats full_stats;
    const auto pruned = reader.materialize(q, {nullptr, true}, &pruned_stats);
    const auto full = reader.materialize(q, {nullptr, false}, &full_stats);
    EXPECT_EQ(pruned, full) << q.describe();
    EXPECT_EQ(full_stats.segments_pruned, 0u);
    EXPECT_LE(pruned_stats.segments_scanned, full_stats.segments_scanned);
  }
}

TEST(StoreQuery, SelectivePredicatesActuallyPrune) {
  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);

  Query time_slice;
  time_slice.since = kStart + 20'000;
  time_slice.until = kStart + 30'000;
  ScanStats stats;
  (void)reader.materialize(time_slice, {}, &stats);
  EXPECT_GT(stats.segments_pruned, 0u);
  EXPECT_LT(stats.segments_scanned, stats.segments_total);

  Query blade_slice;
  blade_slice.blade = 11;
  ScanStats blade_stats;
  (void)reader.materialize(blade_slice, {}, &blade_stats);
  EXPECT_GT(blade_stats.segments_pruned, 0u);
}

TEST(StoreQuery, ResultsAreThreadCountInvariant) {
  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);
  ThreadPool pool(4);
  for (const Query& q : query_grid()) {
    const auto sequential = reader.materialize(q, {nullptr, true});
    const auto parallel = reader.materialize(q, {&pool, true});
    EXPECT_EQ(sequential, parallel) << q.describe();
  }
}

TEST(StoreQuery, CountOnlyProjectionDecodesNoPayloadColumns) {
  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);
  Query q;
  q.min_bits = 2;
  q.projection = 0;
  ScanStats stats;
  const QueryResult result = reader.run(q, {}, &stats);
  EXPECT_EQ(result.rows, brute_force(faults, q).size());
  EXPECT_TRUE(result.columns.node_index.empty());
  EXPECT_TRUE(result.columns.expected.empty());
  EXPECT_TRUE(result.columns.temperature.empty());
}

TEST(StoreQuery, ClassAlignedBitRangesPlanOffTheClassColumn) {
  Query aligned;
  aligned.min_bits = 3;
  aligned.max_bits = 8;  // exactly the few-bit class (code 2)
  aligned.projection = 0;
  ASSERT_TRUE(aligned.class_range().has_value());
  EXPECT_EQ(aligned.class_range()->first, 2);
  EXPECT_EQ(aligned.class_range()->second, 2);
  EXPECT_EQ(aligned.required_columns() & kColPattern, 0u);
  EXPECT_NE(aligned.required_columns() & kColClass, 0u);

  Query unaligned;
  unaligned.min_bits = 4;
  unaligned.max_bits = 8;
  unaligned.projection = 0;
  EXPECT_FALSE(unaligned.class_range().has_value());
  EXPECT_NE(unaligned.required_columns() & kColPattern, 0u);

  Query unconstrained;
  unconstrained.projection = 0;
  EXPECT_TRUE(unconstrained.bits_unconstrained());
  EXPECT_EQ(unconstrained.required_columns(), 0u);
}

TEST(StoreQuery, RepresentativeBitsMatchesClassMinima) {
  // A class-column scan tests each row at its class's min_bits.
  EXPECT_EQ(kFlipClasses[0].min_bits, 1);
  EXPECT_EQ(kFlipClasses[1].min_bits, 2);
  EXPECT_EQ(kFlipClasses[2].min_bits, 3);
  EXPECT_EQ(kFlipClasses[3].min_bits, 9);
}

TEST(StoreQuery, ReplayStreamsTheExactMatchSetThroughSinks) {
  struct Collector final : analysis::FaultSink {
    std::vector<analysis::FaultRecord> seen;
    CampaignWindow window{0, 0};
    void begin_faults(const analysis::FaultStreamContext& ctx) override {
      window = ctx.window;
    }
    void on_fault(const analysis::FaultRecord& f) override {
      seen.push_back(f);
    }
  };

  const auto faults = make_population();
  const StoreReader reader = build_reader(faults);
  Query q;
  q.blade = 5;
  Collector collector;
  analysis::FaultSink* sink = &collector;
  const auto kept = reader.replay(q, {&sink, 1});
  EXPECT_EQ(collector.seen, brute_force(faults, q));
  EXPECT_EQ(kept, collector.seen);
  EXPECT_EQ(collector.window.start, kStart);
  EXPECT_EQ(collector.window.end, kEnd);
}

TEST(StoreQuery, ExtractionResultRebuildsTheFullPopulation) {
  const auto faults = make_population();
  StoreBuilder builder(StoreBuilder::Config{256});
  builder.set_window(CampaignWindow{kStart, kEnd});
  StoredExtractionMeta meta;
  meta.removed_nodes = {cluster::NodeId{1, 2}};
  meta.total_raw_logs = 777'777;
  meta.removed_raw_logs = 111'111;
  builder.set_extraction_meta(meta);
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();

  const StoreReader reader{StoreHandle::from_bytes(builder.encode())};
  const analysis::ExtractionResult extraction = reader.extraction_result();
  EXPECT_EQ(extraction.faults, faults);
  EXPECT_EQ(extraction.removed_nodes, meta.removed_nodes);
  EXPECT_EQ(extraction.total_raw_logs, meta.total_raw_logs);
  EXPECT_EQ(extraction.removed_raw_logs, meta.removed_raw_logs);
}

TEST(StoreBuilderTest, SegmentRowsControlSegmentCount) {
  const auto faults = make_population(1000);
  StoreBuilder builder(StoreBuilder::Config{100});
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  EXPECT_EQ(builder.rows_written(), 1000u);
  EXPECT_EQ(builder.segments_written(), 10u);

  const StoreReader reader{StoreHandle::from_bytes(builder.encode())};
  EXPECT_EQ(reader.zones().size(), 10u);
  EXPECT_EQ(reader.rows_total(), 1000u);
}

TEST(StoreBuilderTest, EmptyStreamEncodesAndReadsBack) {
  StoreBuilder builder;
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  builder.end_faults();
  const StoreReader reader{StoreHandle::from_bytes(builder.encode())};
  EXPECT_EQ(reader.rows_total(), 0u);
  EXPECT_TRUE(reader.materialize(Query{}).empty());
}

TEST(StoreBuilderTest, WriteIsAtomicAndLeavesNoTempFile) {
  const auto faults = make_population(500);
  StoreBuilder builder;
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();

  const std::string path = ::testing::TempDir() + "store_atomic_test.unpf";
  builder.write(path);
  const StoreReader reader = StoreReader::open(path);
  EXPECT_EQ(reader.materialize(Query{}), faults);
  // No builder temp file may survive next to the target.
  EXPECT_EQ(std::remove(path.c_str()), 0);
  EXPECT_NE(std::remove((path + ".tmp." + std::to_string(::getpid())).c_str()),
            0);
}

TEST(StoreReaderTest, RejectsCorruptHeadersWithDecodeError) {
  const auto faults = make_population(200);
  StoreBuilder builder;
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  const std::string good = builder.encode();

  EXPECT_THROW((void)StoreHandle::from_bytes(std::string{}), DecodeError);
  EXPECT_THROW((void)StoreHandle::from_bytes(std::string("UNP")), DecodeError);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)StoreHandle::from_bytes(std::move(bad_magic)),
               DecodeError);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(99);
  EXPECT_THROW((void)StoreHandle::from_bytes(std::move(bad_version)),
               DecodeError);

  // Truncation anywhere in the file must be loud.
  for (const std::size_t cut : {good.size() / 4, good.size() / 2,
                                good.size() - 1}) {
    EXPECT_THROW((void)StoreHandle::from_bytes(good.substr(0, cut)),
                 DecodeError)
        << cut;
  }

  // Trailing garbage after the declared data section must be loud too.
  std::string oversized = good + "junk";
  EXPECT_THROW((void)StoreHandle::from_bytes(std::move(oversized)),
               DecodeError);

  // An inverted window (end before start) is corrupt input: the report
  // sizes its per-day series by it.
  std::string window, inverted;
  telemetry::put_varint(window, telemetry::zigzag_encode(kStart));
  telemetry::put_varint(window, telemetry::zigzag_encode(kEnd));
  telemetry::put_varint(inverted, telemetry::zigzag_encode(kEnd));
  telemetry::put_varint(inverted, telemetry::zigzag_encode(kStart));
  ASSERT_EQ(good.compare(13, window.size(), window), 0);
  ASSERT_EQ(inverted.size(), window.size());
  std::string bad_window = good;
  bad_window.replace(13, inverted.size(), inverted);
  try {
    (void)StoreHandle::from_bytes(std::move(bad_window));
    ADD_FAILURE() << "inverted window accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.byte_offset(), 13u);
  }
}

TEST(StoreReaderTest, OpenMissingFileThrowsContractViolation) {
  EXPECT_THROW((void)StoreReader::open("/nonexistent/no.unpf"),
               ContractViolation);
}

TEST(StoreReaderTest, CorruptSegmentBodySurfacesDuringScanNotOpen) {
  const auto faults = make_population(400);
  StoreBuilder builder(StoreBuilder::Config{64});
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  std::string bytes = builder.encode();
  // Flip bytes near the end of the data section (inside the last segment).
  for (std::size_t i = bytes.size() - 16; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(~static_cast<unsigned char>(bytes[i]));

  // header+directory still parse
  const StoreReader reader{StoreHandle::from_bytes(std::move(bytes))};
  EXPECT_THROW((void)reader.materialize(Query{}), DecodeError);
}

TEST(StoreReaderTest, FromBytesRoundTrips) {
  // The canonical in-memory path (all call sites migrated off the removed
  // bytes-owning StoreReader constructor): StoreHandle::from_bytes owns and
  // parses, StoreReader views.  Same DecodeError contract as the file path.
  const auto faults = make_population(300);
  StoreBuilder builder;
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();

  const StoreReader reader{StoreHandle::from_bytes(builder.encode())};
  EXPECT_THROW(StoreHandle::from_bytes(std::string{}), DecodeError);
  EXPECT_EQ(reader.materialize(Query{}), faults);
}

}  // namespace
}  // namespace unp::store
