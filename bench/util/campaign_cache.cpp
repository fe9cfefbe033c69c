#include "util/campaign_cache.hpp"

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analysis/streaming_extractor.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "telemetry/archive_io.hpp"

namespace unp::bench {

namespace {

constexpr char kCacheMagic[4] = {'U', 'N', 'P', 'C'};
constexpr std::uint8_t kCacheVersion = 2;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The one default campaign configuration every bench shares.
const sim::CampaignConfig& default_config() {
  static const sim::CampaignConfig config{};
  return config;
}

bool cache_disabled() {
  const char* flag = std::getenv("UNP_CAMPAIGN_CACHE");
  return flag != nullptr &&
         (std::strcmp(flag, "0") == 0 || std::strcmp(flag, "off") == 0);
}

std::string cache_path_for(std::uint64_t fingerprint) {
  std::filesystem::path dir;
  if (const char* override_dir = std::getenv("UNP_CACHE_DIR")) {
    dir = override_dir;
  } else {
    std::error_code ec;
    dir = std::filesystem::temp_directory_path(ec);
    if (ec) return {};
  }
  char name[64];
  std::snprintf(name, sizeof name, "unp_campaign_%016llx.unpc",
                static_cast<unsigned long long>(fingerprint));
  return (dir / name).string();
}

// --- file header --------------------------------------------------------

void write_cache_header(std::ostream& os, std::uint64_t fingerprint) {
  os.write(kCacheMagic, sizeof kCacheMagic);
  os.put(static_cast<char>(kCacheVersion));
  for (int i = 0; i < 8; ++i) {
    os.put(static_cast<char>((fingerprint >> (8 * i)) & 0xFF));
  }
}

/// Validates magic/version/fingerprint; ContractViolation on mismatch.
void read_cache_header(std::istream& is, std::uint64_t expected) {
  char magic[4];
  is.read(magic, sizeof magic);
  UNP_REQUIRE(is.gcount() == sizeof magic);
  UNP_REQUIRE(std::memcmp(magic, kCacheMagic, sizeof magic) == 0);
  const int version = is.get();
  UNP_REQUIRE(version == kCacheVersion);
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    const int c = is.get();
    UNP_REQUIRE(c != std::char_traits<char>::eof());
    fingerprint |= static_cast<std::uint64_t>(c) << (8 * i);
  }
  UNP_REQUIRE(fingerprint == expected);
}

// --- replay / spill -----------------------------------------------------

/// Replay the cached record stream through `sink` with full framing,
/// without materializing an archive.  Returns false (after possibly having
/// pushed a partial stream — sinks must reset in begin_campaign) when the
/// file is missing, stale or torn.
bool replay_cached_stream(const std::string& path, std::uint64_t fingerprint,
                          telemetry::RecordSink& sink,
                          telemetry::ReplayStats& stats) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  try {
    read_cache_header(is, fingerprint);
    stats = telemetry::ArchiveReader(is).drain(sink);
  } catch (const ContractViolation&) {
    return false;
  }
  return true;
}

/// Simulate the campaign on `threads` threads, streaming the records to
/// `sinks` while spilling the stream into the cache file.  Cache write
/// failures degrade to a plain streaming run.
void simulate_and_spill(const std::string& path, std::uint64_t fingerprint,
                        const sim::CampaignConfig& config,
                        std::vector<telemetry::RecordSink*> sinks,
                        std::size_t threads) {
  // Temp name is pid-unique: concurrent bench processes racing on the same
  // cache path each spill a complete private file and rename it into place,
  // so a reader can never observe a torn UNPC file.
  const std::string tmp =
      path.empty() ? "" : path + ".tmp." + std::to_string(::getpid());
  std::ofstream os;
  std::unique_ptr<telemetry::ArchiveWriter> writer;
  if (!tmp.empty()) {
    os.open(tmp, std::ios::binary | std::ios::trunc);
    if (os.good()) {
      write_cache_header(os, fingerprint);
      writer = std::make_unique<telemetry::ArchiveWriter>(os);
    }
  }
  if (writer) sinks.push_back(writer.get());

  sim::run_campaign_streaming(config, sinks, threads);

  if (writer && os.good()) {
    os.close();
    if (os.good()) {
      std::error_code ec;
      std::filesystem::rename(tmp, path, ec);
      if (ec) std::filesystem::remove(tmp, ec);
    }
  } else if (!tmp.empty()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
}

/// Push one campaign through a default StreamingExtractor and a
/// ScanProfileSink: `acquire(sinks)` delivers the record stream.
template <class Acquire>
CampaignData collect_data(Acquire acquire) {
  CampaignData data;
  analysis::StreamingExtractor extractor;
  acquire(std::vector<telemetry::RecordSink*>{&extractor, &data.scan});
  data.extraction = extractor.finish();
  return data;
}

}  // namespace

std::uint64_t campaign_fingerprint(const sim::CampaignConfig& config,
                                   const analysis::ExtractionConfig& extraction) {
  std::uint64_t h = mix64(config.seed, kCacheVersion);
  h = mix64(h, static_cast<std::uint64_t>(config.window.start));
  h = mix64(h, static_cast<std::uint64_t>(config.window.end));
  h = mix64(h, static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
  // Extraction parameters participate so products computed under a
  // non-default configuration never pair with a defaults-keyed entry.
  h = mix64(h, static_cast<std::uint64_t>(extraction.merge_window_s));
  h = mix64(h, extraction.pathological_min_raw);
  h = mix64(h, std::bit_cast<std::uint64_t>(extraction.pathological_raw_fraction));
  // Hammer-enabled campaigns produce a different record stream for the
  // same seed, so their config participates - but only when enabled, which
  // keeps every existing time-driven cache entry valid.
  if (config.faults.enable_hammer) {
    const auto& hammer = config.faults.hammer;
    h = mix64(h, faults::hammer::kHammerDerivationVersion);
    for (const char c : hammer.mapping) {
      h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.hammered_node_fraction));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.episodes_per_node_mean));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.episode_min_h));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.episode_max_h));
    h = mix64(h,
              std::bit_cast<std::uint64_t>(hammer.activations_per_scanned_hour));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.threshold_median));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.threshold_log_sigma));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.distance2_factor));
    h = mix64(h, static_cast<std::uint64_t>(hammer.flip_words_min));
    h = mix64(h, static_cast<std::uint64_t>(hammer.flip_words_max));
    h = mix64(h, std::bit_cast<std::uint64_t>(hammer.flip_burst_hours));
  }
  return h;
}

std::uint64_t campaign_fingerprint(const sim::CampaignConfig& config,
                                   const analysis::ExtractionConfig& extraction,
                                   const sim::ShardSpec& shard) {
  std::uint64_t h = campaign_fingerprint(config, extraction);
  if (shard.is_monolithic()) return h;  // {1, 0} IS the whole campaign
  h = mix64(h, static_cast<std::uint64_t>(sim::kShardDerivationVersion));
  h = mix64(h, static_cast<std::uint64_t>(shard.count));
  h = mix64(h, static_cast<std::uint64_t>(shard.index));
  return h;
}

const CampaignData& default_data() {
  static const CampaignData data = collect_data([](const auto& sinks) {
    stream_campaign(default_config(), analysis::ExtractionConfig{}, sinks,
                    sim::default_campaign_threads());
  });
  return data;
}

CampaignData simulate_data(const sim::CampaignConfig& config) {
  return collect_data([&config](const auto& sinks) {
    sim::run_campaign_streaming(config, sinks, sim::default_campaign_threads());
  });
}

std::string default_cache_path() {
  if (cache_disabled()) return {};
  return cache_path_for(
      campaign_fingerprint(default_config(), analysis::ExtractionConfig{}));
}

StreamStats stream_campaign(const sim::CampaignConfig& config,
                            const analysis::ExtractionConfig& extraction,
                            const std::vector<telemetry::RecordSink*>& sinks,
                            std::size_t threads) {
  StreamStats stats;
  const std::uint64_t fingerprint = campaign_fingerprint(config, extraction);
  stats.fingerprint = fingerprint;
  if (!cache_disabled()) stats.cache_path = cache_path_for(fingerprint);

  const auto start = Clock::now();
  telemetry::FanOutSink fan;
  for (auto* sink : sinks) fan.add(*sink);
  if (!stats.cache_path.empty() &&
      replay_cached_stream(stats.cache_path, fingerprint, fan, stats.replay)) {
    stats.from_cache = true;
  } else {
    simulate_and_spill(stats.cache_path, fingerprint, config, sinks, threads);
  }
  stats.acquire_ms = ms_since(start);
  return stats;
}

void print_header(const std::string& experiment, const std::string& paper_shape,
                  FILE* out) {
  std::fprintf(out, "================================================================\n");
  std::fprintf(out, "%s\n", experiment.c_str());
  std::fprintf(out, "paper: %s\n", paper_shape.c_str());
  std::fprintf(out, "================================================================\n");
}

}  // namespace unp::bench
