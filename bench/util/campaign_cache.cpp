#include "util/campaign_cache.hpp"

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"

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

// --- ground truth / accounting sections ---------------------------------

void encode_ground_truth(std::string& out,
                         const std::vector<faults::FaultEvent>& events) {
  telemetry::put_varint(out, events.size());
  TimePoint previous = 0;
  for (const auto& ev : events) {
    telemetry::put_varint(out, telemetry::zigzag_encode(ev.time - previous));
    previous = ev.time;
    telemetry::put_varint(out,
                          static_cast<std::uint64_t>(cluster::node_index(ev.node)));
    out.push_back(static_cast<char>(ev.mechanism));
    out.push_back(static_cast<char>(ev.persistence));
    telemetry::put_varint(out,
                          telemetry::zigzag_encode(ev.active_until - ev.time));
    telemetry::put_varint(out, ev.words.size());
    for (const auto& wf : ev.words) {
      telemetry::put_varint(out, wf.word_index);
      telemetry::put_varint(out, wf.corruption.affected_mask);
      telemetry::put_varint(out, wf.corruption.stuck_value);
    }
  }
}

std::vector<faults::FaultEvent> decode_ground_truth(const std::string& in,
                                                    std::size_t& pos) {
  const std::uint64_t count = telemetry::get_varint(in, pos);
  std::vector<faults::FaultEvent> events;
  events.reserve(count);
  TimePoint previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    faults::FaultEvent ev;
    previous += telemetry::zigzag_decode(telemetry::get_varint(in, pos));
    ev.time = previous;
    const std::uint64_t index = telemetry::get_varint(in, pos);
    UNP_REQUIRE(index < static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
    ev.node = cluster::node_from_index(static_cast<int>(index));
    UNP_REQUIRE(pos + 2 <= in.size());
    const auto mechanism = static_cast<std::uint8_t>(in[pos++]);
    UNP_REQUIRE(mechanism <= static_cast<std::uint8_t>(faults::Mechanism::kRowhammer));
    ev.mechanism = static_cast<faults::Mechanism>(mechanism);
    const auto persistence = static_cast<std::uint8_t>(in[pos++]);
    UNP_REQUIRE(persistence <= static_cast<std::uint8_t>(faults::Persistence::kStuck));
    ev.persistence = static_cast<faults::Persistence>(persistence);
    ev.active_until =
        ev.time + telemetry::zigzag_decode(telemetry::get_varint(in, pos));
    const std::uint64_t words = telemetry::get_varint(in, pos);
    UNP_REQUIRE(words >= 1);
    ev.words.reserve(words);
    for (std::uint64_t w = 0; w < words; ++w) {
      faults::WordFault wf;
      wf.word_index = telemetry::get_varint(in, pos);
      wf.corruption.affected_mask =
          static_cast<Word>(telemetry::get_varint(in, pos));
      wf.corruption.stuck_value =
          static_cast<Word>(telemetry::get_varint(in, pos));
      ev.words.push_back(wf);
    }
    events.push_back(std::move(ev));
  }
  return events;
}

void encode_accounting(std::string& out,
                       const std::vector<sim::NodeAccounting>& accounting) {
  telemetry::put_varint(out, accounting.size());
  for (const auto& a : accounting) {
    telemetry::put_varint(out,
                          static_cast<std::uint64_t>(cluster::node_index(a.node)));
    telemetry::put_f64(out, a.scanned_hours);
    telemetry::put_f64(out, a.terabyte_hours);
    telemetry::put_varint(out, a.sessions);
  }
}

std::vector<sim::NodeAccounting> decode_accounting(const std::string& in,
                                                   std::size_t& pos) {
  const std::uint64_t count = telemetry::get_varint(in, pos);
  std::vector<sim::NodeAccounting> accounting;
  accounting.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    sim::NodeAccounting a;
    const std::uint64_t index = telemetry::get_varint(in, pos);
    UNP_REQUIRE(index < static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
    a.node = cluster::node_from_index(static_cast<int>(index));
    a.scanned_hours = telemetry::get_f64(in, pos);
    a.terabyte_hours = telemetry::get_f64(in, pos);
    a.sessions = telemetry::get_varint(in, pos);
    accounting.push_back(a);
  }
  return accounting;
}

// --- load / store -------------------------------------------------------

sim::CampaignResult empty_campaign(const sim::CampaignConfig& config) {
  return sim::CampaignResult{
      sim::CampaignSummary{sim::campaign_topology(config), {}, {}},
      telemetry::CampaignArchive(config.window)};
}

/// Reload `result` (archive + ground truth + accounting) from the cache
/// file; the topology is rebuilt deterministically from the config.  Any
/// format violation reports failure and falls back to simulation.
bool load_cached_campaign(const std::string& path,
                          const sim::CampaignConfig& config,
                          std::uint64_t fingerprint,
                          sim::CampaignResult& result) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  try {
    read_cache_header(is, fingerprint);

    // Move each decoded NodeLog straight into the archive rather than
    // replaying it record-by-record through the sink interface; on the
    // full campaign that halves reload time.
    telemetry::ArchiveReader reader(is);
    result.archive.begin_campaign(reader.window());
    cluster::NodeId node{};
    telemetry::NodeLog log;
    while (reader.next(node, log)) result.archive.log(node) = std::move(log);

    const std::string rest((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    result.summary.ground_truth = decode_ground_truth(rest, pos);
    result.summary.accounting = decode_accounting(rest, pos);
    UNP_REQUIRE(pos == rest.size());
  } catch (const ContractViolation&) {
    result = empty_campaign(config);
    return false;
  }
  result.summary.topology = sim::campaign_topology(config);
  return true;
}

/// Replay the cached record stream through `sink` with full framing,
/// without materializing an archive.  Returns false (after possibly having
/// pushed a partial stream — sinks must reset in begin_campaign) when the
/// file is missing, stale or torn.
bool replay_cached_stream(const std::string& path, std::uint64_t fingerprint,
                          telemetry::RecordSink& sink) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  try {
    read_cache_header(is, fingerprint);
    telemetry::ArchiveReader(is).drain(sink);
  } catch (const ContractViolation&) {
    return false;
  }
  return true;
}

/// Simulate the campaign on `threads` threads, streaming the records to
/// `sinks` while spilling the stream plus the ground-truth and accounting
/// sections into the cache file.  Cache write failures degrade to a plain
/// streaming run.
sim::CampaignSummary simulate_and_spill(
    const std::string& path, std::uint64_t fingerprint,
    const sim::CampaignConfig& config,
    std::vector<telemetry::RecordSink*> sinks, std::size_t threads) {
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

  sim::CampaignSummary summary =
      sim::run_campaign_streaming(config, sinks, threads);

  if (writer && os.good()) {
    std::string sections;
    encode_ground_truth(sections, summary.ground_truth);
    encode_accounting(sections, summary.accounting);
    os.write(sections.data(), static_cast<std::streamsize>(sections.size()));
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
  return summary;
}

/// A pipeline the registry owns: the campaign lives next to the data so
/// `data.campaign` stays valid for the process lifetime.
struct PipelineEntry {
  sim::CampaignResult campaign;
  CampaignData data;
};

std::unique_ptr<PipelineEntry> build_pipeline(
    const sim::CampaignConfig& config,
    const analysis::ExtractionConfig& extraction, std::uint64_t fingerprint) {
  auto entry = std::make_unique<PipelineEntry>(
      PipelineEntry{empty_campaign(config), {}});
  sim::CampaignResult& campaign = entry->campaign;
  CampaignData& d = entry->data;
  if (!cache_disabled()) d.stats.cache_path = cache_path_for(fingerprint);

  const auto acquire_start = Clock::now();
  if (!d.stats.cache_path.empty() &&
      load_cached_campaign(d.stats.cache_path, config, fingerprint, campaign)) {
    d.stats.from_cache = true;
  } else {
    campaign.summary = simulate_and_spill(d.stats.cache_path, fingerprint,
                                          config, {&campaign.archive},
                                          sim::default_campaign_threads());
  }
  d.stats.acquire_ms = ms_since(acquire_start);
  d.campaign = &campaign;

  const auto extract_start = Clock::now();
  d.extraction = analysis::extract_faults(campaign.archive, extraction);
  d.stats.extract_ms = ms_since(extract_start);

  const auto group_start = Clock::now();
  d.groups = analysis::group_simultaneous(d.extraction.faults);
  d.stats.group_ms = ms_since(group_start);

  d.stats.raw_records = d.extraction.total_raw_logs;
  d.stats.faults = d.extraction.faults.size();
  d.stats.groups = d.groups.size();
  return entry;
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
  return default_data(analysis::ExtractionConfig{});
}

const CampaignData& default_data(const analysis::ExtractionConfig& extraction) {
  static std::mutex mutex;
  static std::map<std::uint64_t, std::unique_ptr<PipelineEntry>> registry;
  const sim::CampaignConfig& config = default_config();
  const std::uint64_t fingerprint = campaign_fingerprint(config, extraction);
  const std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<PipelineEntry>& slot = registry[fingerprint];
  if (!slot) slot = build_pipeline(config, extraction, fingerprint);
  return slot->data;
}

std::string default_cache_path() {
  if (cache_disabled()) return {};
  return cache_path_for(
      campaign_fingerprint(default_config(), analysis::ExtractionConfig{}));
}

void invalidate_default_cache() {
  const std::string path = default_cache_path();
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

bool reload_default_campaign(sim::CampaignResult& out) {
  const std::string path = default_cache_path();
  if (path.empty()) return false;
  const sim::CampaignConfig& config = default_config();
  out = empty_campaign(config);
  return load_cached_campaign(
      path, config,
      campaign_fingerprint(config, analysis::ExtractionConfig{}), out);
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
      replay_cached_stream(stats.cache_path, fingerprint, fan)) {
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
