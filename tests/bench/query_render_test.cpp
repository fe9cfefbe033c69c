// util/query_render: the request vocabulary shared by unp_query and
// unp_serve.  Parsing must fail closed (QueryError before any scan can
// start), and rendering must be deterministic and thread-safe — the
// properties the server's byte-identity and result-cache contracts rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/rng.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "store/query_builder.hpp"
#include "store/reader.hpp"
#include "telemetry/record.hpp"
#include "util/query_render.hpp"

namespace unp::bench {
namespace {

using store::QueryError;

constexpr TimePoint kStart = 1'440'000'000;

store::StoreReader build_reader(int n = 1200) {
  std::vector<analysis::FaultRecord> faults;
  Xoshiro256 rng(21);
  for (int i = 0; i < n; ++i) {
    analysis::FaultRecord f;
    f.first_seen = kStart + static_cast<TimePoint>(i) * 50;
    f.last_seen = f.first_seen + 10;
    f.node = cluster::NodeId{(i / 40) % cluster::kStudyBlades,
                             static_cast<int>(rng.next() % 15)};
    f.raw_logs = 1 + rng.next() % 7;
    f.virtual_address = rng.next() % (1ull << 40);
    f.expected = static_cast<Word>(rng.next());
    Word mask = 1;
    if (i % 8 == 0)
      for (int b = 0; b < 4; ++b) mask |= Word{1} << (rng.next() % 32);
    f.actual = f.expected ^ mask;
    f.temperature_c =
        i % 6 == 0 ? telemetry::kNoTemperature : 22.0 + i % 10;
    faults.push_back(f);
  }
  std::sort(faults.begin(), faults.end(),
            [](const analysis::FaultRecord& a, const analysis::FaultRecord& b) {
              return std::tie(a.first_seen, a.node, a.virtual_address) <
                     std::tie(b.first_seen, b.node, b.virtual_address);
            });
  store::StoreBuilder builder(store::StoreBuilder::Config{128});
  builder.set_window(CampaignWindow{kStart, kStart + 100'000});
  builder.begin_faults(
      analysis::FaultStreamContext{{kStart, kStart + 100'000}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  return store::StoreReader(store::StoreHandle::from_bytes(builder.encode()));
}

TEST(QueryRenderParseTest, FlagArityTableKnowsTheVocabulary) {
  bool needs_value = false;
  EXPECT_TRUE(is_request_flag("--blade", &needs_value));
  EXPECT_TRUE(needs_value);
  EXPECT_TRUE(is_request_flag("--count", &needs_value));
  EXPECT_FALSE(needs_value);
  EXPECT_TRUE(is_request_flag("--no-prune", &needs_value));
  EXPECT_FALSE(needs_value);
  EXPECT_FALSE(is_request_flag("--store", &needs_value));
  EXPECT_FALSE(is_request_flag("blade", &needs_value));
}

TEST(QueryRenderParseTest, PredicatesAndActionsParseTogether) {
  const QueryRequest req = parse_request(
      {"--since", "100", "--until", "900", "--blade", "12", "--count"});
  EXPECT_EQ(req.query.since, 100);
  EXPECT_EQ(req.query.until, 900);
  EXPECT_EQ(req.query.blade, 12);
  EXPECT_TRUE(req.count_only);
  EXPECT_FALSE(req.any_section);
  EXPECT_TRUE(req.any_query_action);
}

TEST(QueryRenderParseTest, SectionFlagsSelectRenderers) {
  EXPECT_TRUE(parse_request({"--headline"}).any_section);
  EXPECT_TRUE(parse_request({"--tab1"}).any_section);
  EXPECT_TRUE(parse_request({"--fig", "3"}).any_section);
  EXPECT_TRUE(parse_request({"--ext", "temporal"}).any_section);
  const QueryRequest all = parse_request({"--all"});
  EXPECT_TRUE(all.any_section);
  EXPECT_TRUE(
      std::all_of(all.want, all.want + kSectionCount, [](bool b) { return b; }));
}

TEST(QueryRenderParseTest, ExtResolvesAgainstTheSectionRegistry) {
  // Every name unp_report --ext accepts, request lines accept too.
  for (const ExtSection& ext : ext_sections())
    EXPECT_TRUE(parse_request({"--ext", ext.name}).want[ext.section]) << ext.name;
  try {
    (void)parse_request({"--ext", "nope"});
    FAIL() << "an unknown --ext must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "ext");
    for (const ExtSection& ext : ext_sections())
      EXPECT_NE(std::string(e.what()).find(ext.name), std::string::npos)
          << ext.name;
  }
}

TEST(QueryRenderParseTest, InvalidRequestsThrowBeforeAnyQueryExists) {
  EXPECT_THROW((void)parse_request({"--bogus"}), QueryError);
  EXPECT_THROW((void)parse_request({"--blade"}), QueryError);          // no value
  EXPECT_THROW((void)parse_request({"--blade", "999"}), QueryError);   // range
  EXPECT_THROW((void)parse_request({"--blade", "1x"}), QueryError);    // junk
  EXPECT_THROW((void)parse_request({"--fig", "0"}), QueryError);
  EXPECT_THROW((void)parse_request({"--fig", "14"}), QueryError);
  EXPECT_THROW((void)parse_request({"--ext", "nope"}), QueryError);
  EXPECT_THROW((void)parse_request({"--class", "sextuple"}), QueryError);
  EXPECT_THROW((void)parse_request({"--min-bits", "9", "--max-bits", "2"}),
               QueryError);
  // The rejected flag is named for the error line / ERR payload.
  try {
    (void)parse_request({"--bogus"});
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "--bogus");
  }
}

TEST(QueryRenderParseTest, RequestLineSplittingMatchesTokenParsing) {
  const QueryRequest from_line =
      parse_request_line("  --blade 7\t--class multi   --count ");
  const QueryRequest from_tokens =
      parse_request({"--blade", "7", "--class", "multi", "--count"});
  EXPECT_EQ(from_line.query.describe(), from_tokens.query.describe());
  EXPECT_EQ(from_line.count_only, from_tokens.count_only);
}

TEST(QueryRenderTest, CountRowsAndSectionPathsAllRender) {
  const store::StoreReader reader = build_reader();

  const std::string count = render_request_to_string(
      reader, parse_request({"--count"}), store::ScanOptions{});
  EXPECT_EQ(count, "1200\n");

  const std::string rows = render_request_to_string(
      reader, parse_request({"--limit", "3"}), store::ScanOptions{});
  // Header + 3 rows + the "more rows" footer.
  EXPECT_EQ(static_cast<int>(std::count(rows.begin(), rows.end(), '\n')), 5);
  EXPECT_NE(rows.find("... 1197 more row(s)"), std::string::npos);

  const std::string fig = render_request_to_string(
      reader, parse_request({"--fig", "3"}), store::ScanOptions{});
  EXPECT_NE(fig.find("Fig 3"), std::string::npos);

  const std::string hammer = render_request_to_string(
      reader, parse_request({"--ext", "hammer"}), store::ScanOptions{});
  EXPECT_NE(hammer.find("Rowhammer victim-row census"), std::string::npos);
}

TEST(QueryRenderTest, RenderingIsDeterministic) {
  const store::StoreReader reader = build_reader();
  for (const char* line : {"--count", "--class multi --count", "--limit 10",
                           "--blade 3", "--fig 5"}) {
    const QueryRequest req = parse_request_line(line);
    EXPECT_EQ(render_request_to_string(reader, req, store::ScanOptions{}),
              render_request_to_string(reader, req, store::ScanOptions{}))
        << line;
  }
}

TEST(QueryRenderTest, NoPruneChangesTheScanNeverTheBytes) {
  const store::StoreReader reader = build_reader();
  const QueryRequest pruned = parse_request_line("--blade 2 --count");
  const QueryRequest full = parse_request_line("--blade 2 --count --no-prune");
  EXPECT_EQ(render_request_to_string(reader, pruned, store::ScanOptions{}),
            render_request_to_string(reader, full, store::ScanOptions{}));
}

TEST(QueryRenderTest, ConcurrentSharedReaderRendersAreByteIdentical) {
  // The server's core concurrency claim, minus the sockets: N threads
  // rendering mixed requests against ONE shared handle produce exactly the
  // serial bytes.  Run under the sanitizer CI jobs, this is also the data
  // race proof for the shared mmap/decode path.
  const store::StoreReader reader = build_reader(2000);
  const std::vector<std::string> workload = {
      "--count",
      "--class multi --count",
      "--blade 3 --count",
      "--since 1440010000 --until 1440040000 --count",
      "--limit 7",
      "--class single --limit 4",
      "--min-bits 2 --max-bits 8 --count",
  };
  std::vector<std::string> expected;
  for (const std::string& line : workload)
    expected.push_back(render_request_to_string(
        reader, parse_request_line(line), store::ScanOptions{}));

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger each thread's starting offset so different requests overlap.
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t w = 0; w < workload.size(); ++w) {
          const std::size_t idx =
              (w + static_cast<std::size_t>(t)) % workload.size();
          const std::string got = render_request_to_string(
              reader, parse_request_line(workload[idx]),
              store::ScanOptions{});
          if (got != expected[idx])
            ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << t;
}

}  // namespace
}  // namespace unp::bench
