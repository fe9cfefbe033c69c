// The campaign cache key must cover everything that shapes the shared
// pipeline's products: the simulated campaign's identity AND the extraction
// parameters, so changing e.g. the merge window can never serve stale faults
// from a cache written under different settings.
#include "util/campaign_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/civil_time.hpp"
#include "sim/campaign.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::bench {
namespace {

TEST(CampaignFingerprint, StableForIdenticalInputs) {
  const sim::CampaignConfig config;
  const analysis::ExtractionConfig extraction;
  EXPECT_EQ(campaign_fingerprint(config, extraction),
            campaign_fingerprint(config, extraction));
}

TEST(CampaignFingerprint, SensitiveToCampaignSeed) {
  const analysis::ExtractionConfig extraction;
  sim::CampaignConfig a;
  sim::CampaignConfig b;
  b.seed = a.seed + 1;
  EXPECT_NE(campaign_fingerprint(a, extraction),
            campaign_fingerprint(b, extraction));
}

TEST(CampaignFingerprint, SensitiveToMergeWindow) {
  const sim::CampaignConfig config;
  analysis::ExtractionConfig a;
  analysis::ExtractionConfig b;
  b.merge_window_s = a.merge_window_s + 60;
  EXPECT_NE(campaign_fingerprint(config, a), campaign_fingerprint(config, b));
}

TEST(CampaignFingerprint, SensitiveToPathologicalFilter) {
  const sim::CampaignConfig config;
  const analysis::ExtractionConfig base;

  analysis::ExtractionConfig fraction = base;
  fraction.pathological_raw_fraction = 0.75;
  EXPECT_NE(campaign_fingerprint(config, base),
            campaign_fingerprint(config, fraction));

  analysis::ExtractionConfig min_raw = base;
  min_raw.pathological_min_raw = base.pathological_min_raw / 2;
  EXPECT_NE(campaign_fingerprint(config, base),
            campaign_fingerprint(config, min_raw));
}

// A cache spill must be atomic: the entry materializes under a pid-unique
// temp name and is renamed into place, so a crashing or concurrent writer
// can never leave a torn .unpc file (or a stray temp) for readers to trip
// over.
TEST(CampaignCacheSpill, AtomicWriteLeavesNoTempFiles) {
  const std::string dir =
      ::testing::TempDir() + "unp_cache_atomic_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(::setenv("UNP_CACHE_DIR", dir.c_str(), 1), 0);

  sim::CampaignConfig config;  // two days keeps the spill-side sim fast
  config.window = {from_civil_utc({2015, 3, 1, 0, 0, 0}),
                   from_civil_utc({2015, 3, 3, 0, 0, 0})};
  const analysis::ExtractionConfig extraction;

  const StreamStats first = stream_campaign(config, extraction, {}, 2);
  EXPECT_FALSE(first.from_cache);
  ASSERT_FALSE(first.cache_path.empty());
  EXPECT_TRUE(std::filesystem::exists(first.cache_path));

  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
  EXPECT_EQ(entries, 1);

  const StreamStats second = stream_campaign(config, extraction, {}, 2);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.cache_path, first.cache_path);

  ::unsetenv("UNP_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

// The UNPC tail (ground truth + accounting) is read from a file anyone can
// write: every corrupt count or delta must end in DecodeError, which the
// cache treats as "fall back to simulation", never in an allocation
// failure or signed overflow.
sim::CampaignSummary two_day_summary() {
  sim::CampaignConfig config;
  config.window = {from_civil_utc({2015, 3, 1, 0, 0, 0}),
                   from_civil_utc({2015, 3, 3, 0, 0, 0})};
  return sim::run_campaign_streaming(config, {}, 2);
}

std::string tail_of(const sim::CampaignSummary& summary) {
  std::string out;
  encode_campaign_tail(summary, out);
  return out;
}

TEST(CampaignTail, RoundTrips) {
  const sim::CampaignSummary summary = two_day_summary();
  ASSERT_FALSE(summary.ground_truth.empty());
  ASSERT_FALSE(summary.accounting.empty());
  const std::string tail = tail_of(summary);

  sim::CampaignSummary decoded;
  decode_campaign_tail(tail, decoded);
  EXPECT_EQ(decoded.ground_truth.size(), summary.ground_truth.size());
  EXPECT_EQ(decoded.accounting.size(), summary.accounting.size());
  EXPECT_EQ(tail_of(decoded), tail);

  sim::CampaignSummary sink;
  EXPECT_THROW(decode_campaign_tail(tail + '\0', sink), telemetry::DecodeError);
  EXPECT_THROW(decode_campaign_tail(tail.substr(0, tail.size() - 1), sink),
               telemetry::DecodeError);
}

TEST(CampaignTail, LyingCountsAreDecodeErrors) {
  sim::CampaignSummary summary = two_day_summary();
  ASSERT_FALSE(summary.ground_truth.empty());
  const std::string tail = tail_of(summary);
  constexpr std::uint64_t kLie = std::uint64_t{1} << 40;

  // Replace the leading varint of `bytes` with `count`.
  const auto with_count = [](const std::string& bytes, std::uint64_t count) {
    std::size_t pos = 0;
    (void)telemetry::get_varint(bytes, pos);
    std::string out;
    telemetry::put_varint(out, count);
    return out + bytes.substr(pos);
  };

  sim::CampaignSummary sink;
  // Ground-truth event count.
  EXPECT_THROW(decode_campaign_tail(with_count(tail, kLie), sink),
               telemetry::DecodeError);
  EXPECT_THROW(decode_campaign_tail(
                   with_count(tail, std::numeric_limits<std::uint64_t>::max()),
                   sink),
               telemetry::DecodeError);

  // The accounting count, behind an empty ground truth.
  summary.ground_truth.clear();
  const std::string accounting_only = tail_of(summary);
  EXPECT_THROW(decode_campaign_tail(with_count(accounting_only, kLie), sink),
               telemetry::DecodeError);
}

/// A hand-built tail: one event per entry of `deltas` (time delta,
/// active_until delta) on node 0 with `words` declared and one word
/// present, then an empty accounting section.
using Deltas = std::vector<std::pair<std::int64_t, std::int64_t>>;

std::string event_tail(const Deltas& deltas, std::uint64_t words) {
  std::string out;
  telemetry::put_varint(out, deltas.size());
  for (const auto& [time_delta, until_delta] : deltas) {
    telemetry::put_varint(out, telemetry::zigzag_encode(time_delta));
    telemetry::put_varint(out, 0);  // node index
    out.push_back('\0');            // mechanism
    out.push_back('\0');            // persistence
    telemetry::put_varint(out, telemetry::zigzag_encode(until_delta));
    telemetry::put_varint(out, words);
    telemetry::put_varint(out, 7);  // word index
    telemetry::put_varint(out, 1);  // affected mask
    telemetry::put_varint(out, 1);  // stuck value
  }
  telemetry::put_varint(out, 0);  // accounting entries
  return out;
}

TEST(CampaignTail, LyingWordCountIsDecodeError) {
  sim::CampaignSummary summary;
  decode_campaign_tail(event_tail({{1000, 60}}, 1), summary);
  ASSERT_EQ(summary.ground_truth.size(), 1u);
  EXPECT_EQ(summary.ground_truth.front().time, 1000);
  EXPECT_EQ(summary.ground_truth.front().active_until, 1060);
  const std::uint64_t lie = std::uint64_t{1} << 40;
  EXPECT_THROW(decode_campaign_tail(event_tail({{1000, 60}}, lie), summary),
               telemetry::DecodeError);
  EXPECT_THROW(decode_campaign_tail(event_tail({{1000, 60}}, 0), summary),
               telemetry::DecodeError);
}

TEST(CampaignTail, TimeDeltasWrapInsteadOfOverflowing) {
  // Two INT64_MAX steps overflow a signed running sum; the decoder sums in
  // wraparound arithmetic, so the result is defined: -2 after two steps.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  sim::CampaignSummary summary;
  decode_campaign_tail(event_tail({{kMax, kMax}, {kMax, kMax}}, 1), summary);
  ASSERT_EQ(summary.ground_truth.size(), 2u);
  EXPECT_EQ(summary.ground_truth[0].time, kMax);
  EXPECT_EQ(summary.ground_truth[1].time, -2);
  EXPECT_EQ(summary.ground_truth[1].active_until, kMax - 2);
}

}  // namespace
}  // namespace unp::bench
