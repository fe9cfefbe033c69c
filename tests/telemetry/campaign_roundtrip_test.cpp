// Codec round trips over a real, full-scale campaign: the seed-42 default
// campaign's records pushed through the streaming spill format (UNPS) and
// the text codec.  binary_codec_test covers hand-built records; this suite
// covers the actual 13-month record population (runs, missing temperatures,
// alloc failures, the pathological node's megarun stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/codec.hpp"

namespace unp::telemetry {
namespace {

/// Checks every frame the campaign delivers: its body, encoded in the
/// campaign's workers, decodes back to exactly the log it came from.
class BodyRoundTrip final : public RecordSink {
 public:
  std::uint64_t frames = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t raw_errors = 0;

  void on_node_log(EncodedNodeLog& enc) override {
    ++frames;
    const NodeLog& log = enc.log();
    raw_errors += log.raw_error_count();
    std::size_t pos = 0;
    const NodeLog decoded = decode_node_log(enc.bytes(), pos, enc.node());
    if (pos != enc.bytes().size() || decoded.starts() != log.starts() ||
        decoded.ends() != log.ends() ||
        decoded.alloc_fails() != log.alloc_fails() ||
        decoded.error_runs() != log.error_runs()) {
      ++mismatches;
    }
  }
  [[nodiscard]] bool wants_encoded_node_log() const override { return true; }
  void on_start(const StartRecord&) override {}
  void on_end(const EndRecord&) override {}
  void on_alloc_fail(const AllocFailRecord&) override {}
  void on_error_run(const ErrorRun&) override {}
};

/// The default campaign spilled once as a UNPS stream, every frame checked
/// on the way.
struct Spill {
  std::string bytes;
  BodyRoundTrip check;
};

const Spill& spill() {
  static const Spill s = [] {
    Spill out;
    std::ostringstream os(std::ios::binary);
    ArchiveWriter writer(os);
    (void)sim::run_campaign_streaming(sim::CampaignConfig{},
                                      {&writer, &out.check},
                                      sim::default_campaign_threads());
    out.bytes = std::move(os).str();
    return out;
  }();
  return s;
}

TEST(CampaignRoundTrip, StreamFormatIsExactOnFullArchive) {
  const Spill& s = spill();
  ASSERT_GT(s.check.raw_errors, 1000000u);  // full-scale input
  EXPECT_EQ(s.check.mismatches, 0u);

  // Read the stream back node by node and spill the decoded logs again:
  // the same window, the same frames, the same bytes.
  std::istringstream is(s.bytes, std::ios::binary);
  ArchiveReader reader(is);
  const CampaignWindow window = sim::CampaignConfig{}.window;
  EXPECT_EQ(reader.window().start, window.start);
  EXPECT_EQ(reader.window().end, window.end);
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(reader.window());
  std::string scratch;
  cluster::NodeId node;
  NodeLog log;
  std::uint64_t raw_errors = 0;
  while (reader.next(node, log)) {
    raw_errors += log.raw_error_count();
    writer.begin_node(node);
    EncodedNodeLog enc(node, log, scratch);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
  EXPECT_EQ(reader.frames_read(), s.check.frames);
  EXPECT_EQ(raw_errors, s.check.raw_errors);
  EXPECT_TRUE(os.view() == s.bytes);
}

/// Round-trip `original` through the text codec.  The text format keeps
/// temperatures at 0.1 degC resolution (the log files' human-facing
/// precision); every other field must survive exactly.
void expect_text_round_trip(const NodeLog& original, int i) {
  std::stringstream ss;
  write_node_log(ss, original);
  const NodeLog parsed = read_node_log(ss);

  ASSERT_EQ(parsed.starts().size(), original.starts().size()) << "node " << i;
  for (std::size_t r = 0; r < original.starts().size(); ++r) {
    const StartRecord& a = original.starts()[r];
    const StartRecord& b = parsed.starts()[r];
    ASSERT_EQ(b.time, a.time);
    ASSERT_EQ(b.node, a.node);
    ASSERT_EQ(b.allocated_bytes, a.allocated_bytes);
    ASSERT_EQ(has_temperature(b.temperature_c), has_temperature(a.temperature_c));
    if (has_temperature(a.temperature_c)) {
      ASSERT_NEAR(b.temperature_c, a.temperature_c, 0.05 + 1e-9);
    }
  }
  ASSERT_EQ(parsed.ends().size(), original.ends().size()) << "node " << i;
  for (std::size_t r = 0; r < original.ends().size(); ++r) {
    ASSERT_EQ(parsed.ends()[r].time, original.ends()[r].time);
    if (has_temperature(original.ends()[r].temperature_c)) {
      ASSERT_NEAR(parsed.ends()[r].temperature_c,
                  original.ends()[r].temperature_c, 0.05 + 1e-9);
    }
  }
  ASSERT_EQ(parsed.alloc_fails(), original.alloc_fails()) << "node " << i;
  ASSERT_EQ(parsed.error_runs().size(), original.error_runs().size());
  for (std::size_t r = 0; r < original.error_runs().size(); ++r) {
    const ErrorRun& a = original.error_runs()[r];
    const ErrorRun& b = parsed.error_runs()[r];
    ASSERT_EQ(b.first.time, a.first.time);
    ASSERT_EQ(b.first.virtual_address, a.first.virtual_address);
    ASSERT_EQ(b.first.expected, a.first.expected);
    ASSERT_EQ(b.first.actual, a.first.actual);
    ASSERT_EQ(b.first.physical_page, a.first.physical_page);
    ASSERT_EQ(b.period_s, a.period_s);
    ASSERT_EQ(b.count, a.count);
    if (has_temperature(a.first.temperature_c)) {
      ASSERT_NEAR(b.first.temperature_c, a.first.temperature_c, 0.05 + 1e-9);
    }
  }
}

TEST(CampaignRoundTrip, TextCodecRoundTripsFullArchive) {
  // The codec writes one line per record, in stored order, so a log's text
  // is its records' lines one after another.  A long log (node 21-07's
  // 2.27 M runs) is cut into pieces of at most kPieceRuns runs, the first
  // also holding the session records, and the pieces round-trip on every
  // hardware thread.  Parsing stably sorts the whole log by time, so sorted
  // pieces plus ordered piece boundaries are what a whole-log round trip
  // checks; the boundaries are checked here.
  constexpr std::size_t kPieceRuns = std::size_t{1} << 16;
  ThreadPool pool(sim::default_campaign_threads());
  std::uint64_t nodes = 0;
  test_support::for_each_node_log(spill().bytes, [&](cluster::NodeId node,
                                                     const NodeLog& log) {
    const int i = cluster::node_index(node);
    ++nodes;
    const std::span<const ErrorRun> runs(log.error_runs());
    if (runs.size() <= kPieceRuns) {
      expect_text_round_trip(log, i);
      return;
    }
    const std::size_t pieces = (runs.size() + kPieceRuns - 1) / kPieceRuns;
    for (std::size_t p = 1; p < pieces; ++p) {
      ASSERT_LE(runs[p * kPieceRuns - 1].first.time,
                runs[p * kPieceRuns].first.time)
          << "node " << i << " piece " << p;
    }
    pool.parallel_for(pieces,
                      [&](std::size_t p) {
                        NodeLog piece;
                        if (p == 0) {
                          for (const auto& r : log.starts()) piece.add_start(r);
                          for (const auto& r : log.ends()) piece.add_end(r);
                          for (const auto& r : log.alloc_fails())
                            piece.add_alloc_fail(r);
                        }
                        piece.add_error_runs(runs.subspan(
                            p * kPieceRuns,
                            std::min(kPieceRuns, runs.size() - p * kPieceRuns)));
                        expect_text_round_trip(piece, i);
                      });
  });
  EXPECT_EQ(nodes, spill().check.frames);
}

}  // namespace
}  // namespace unp::telemetry
