// The campaign cache key must cover everything that shapes the shared
// pipeline's products: the simulated campaign's identity AND the extraction
// parameters, so changing e.g. the merge window can never serve stale faults
// from a cache written under different settings.
#include "util/campaign_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "analysis/extraction.hpp"
#include "common/civil_time.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"

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

// A UNPC file is the 13-byte header followed by the campaign's UNPS stream
// and nothing after it: the ground truth and accounting are recomputed from
// the config, never stored.
TEST(CampaignCacheSpill, FileIsHeaderThenStreamAndNothingElse) {
  const std::string dir = ::testing::TempDir() + "unp_cache_layout_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(::setenv("UNP_CACHE_DIR", dir.c_str(), 1), 0);

  sim::CampaignConfig config;
  config.window = {from_civil_utc({2015, 3, 1, 0, 0, 0}),
                   from_civil_utc({2015, 3, 3, 0, 0, 0})};
  const StreamStats miss =
      stream_campaign(config, analysis::ExtractionConfig{}, {}, 2);
  ASSERT_FALSE(miss.from_cache);

  std::string expected = "UNPC";
  expected.push_back('\x02');
  for (int i = 0; i < 8; ++i)
    expected.push_back(static_cast<char>((miss.fingerprint >> (8 * i)) & 0xFF));
  std::ostringstream stream(std::ios::binary);
  telemetry::ArchiveWriter writer(stream);
  (void)sim::run_campaign_streaming(config, {&writer}, 2);
  expected += stream.str();

  std::ifstream file(miss.cache_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), expected.size());
  EXPECT_TRUE(bytes == expected);

  ::unsetenv("UNP_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace unp::bench
