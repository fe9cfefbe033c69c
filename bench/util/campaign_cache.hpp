// Shared bench scaffolding: every bench driver consumes the same calibrated
// campaign (seed 42) and extraction, then prints its own view.
//
// The campaign is acquired through an on-disk cache: the first bench process
// simulates it (multithreaded) while spilling the record stream plus ground
// truth and accounting to a cache file; every later process — unp_report,
// the ablation/extension benches, the perf gates — replays that file
// instead of re-simulating seconds of fleet timeline.  Front ends stream it
// (stream_campaign); default_data() materializes archive and extraction
// for the benches that need the whole campaign in memory.
//
// Cache file (binary, varint/f64 encodings from telemetry/binary_codec):
//
//   file := magic "UNPC" u8 version u64 fingerprint
//           <archive stream, telemetry/archive_io format>
//           ground_truth_section accounting_section
//
// The fingerprint digests the campaign seed, window, topology size, the
// codec versions AND the extraction configuration, so an analysis run with
// a non-default merge window can never silently pair with pipeline products
// cached under the default parameters.  A mismatch (changed config or
// format) invalidates the file and triggers a fresh simulate-and-rewrite.
// Location: $UNP_CACHE_DIR (default: the system temp dir) /
// unp_campaign_<fingerprint>.unpc;  UNP_CAMPAIGN_CACHE=off disables the
// cache entirely.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/extraction.hpp"
#include "analysis/grouping.hpp"
#include "sim/campaign.hpp"
#include "sim/shard.hpp"
#include "telemetry/sink.hpp"

namespace unp::bench {

struct CampaignData {
  const sim::CampaignResult* campaign = nullptr;
  analysis::ExtractionResult extraction;
  std::vector<analysis::SimultaneousGroup> groups;  ///< over extraction.faults
};

/// Digest of everything that determines the shared pipeline's products:
/// campaign seed / window / topology size, codec version, and the full
/// ExtractionConfig (merge window + pathological-filter parameters).
[[nodiscard]] std::uint64_t campaign_fingerprint(
    const sim::CampaignConfig& config,
    const analysis::ExtractionConfig& extraction);

/// Shard-aware digest: additionally mixes the shard topology (count,
/// index) and the node-ownership derivation version, so a cached per-shard
/// product can never pair with a monolithic entry or with a shard cut
/// under a different partition rule.  The monolithic spec {1, 0} is the
/// identity — it returns exactly the two-argument fingerprint, which is
/// also the ensemble id all shards of one campaign stamp into their UNPH
/// archives.
[[nodiscard]] std::uint64_t campaign_fingerprint(
    const sim::CampaignConfig& config,
    const analysis::ExtractionConfig& extraction,
    const sim::ShardSpec& shard);

/// The default campaign + extraction pipeline, computed once per process
/// per extraction configuration (cache-reloaded when a valid cache file
/// exists, else simulated and spilled for the next process).
[[nodiscard]] const CampaignData& default_data();
[[nodiscard]] const CampaignData& default_data(
    const analysis::ExtractionConfig& extraction);

/// Cache file the default campaign maps to ("" when caching is disabled).
[[nodiscard]] std::string default_cache_path();

/// Instrumentation of a one-pass streaming acquisition.
struct StreamStats {
  bool from_cache = false;      ///< record stream replayed from disk
  std::string cache_path;       ///< file used (empty when caching is disabled)
  std::uint64_t fingerprint = 0;  ///< cache key of (config, extraction)
  double acquire_ms = 0.0;      ///< full pass: reload or simulate+spill
};

/// One-pass acquisition: push the campaign's canonical record stream for
/// `config` through `sinks`, replaying the on-disk cache entry when a valid
/// one exists and otherwise simulating on `threads` threads while spilling
/// a fresh entry.  Either way every sink observes the identical stream with
/// full framing.  Sinks must (re)initialize their state in begin_campaign —
/// on a torn cache file the acquisition falls back to simulation, which
/// re-opens the stream.
StreamStats stream_campaign(const sim::CampaignConfig& config,
                            const analysis::ExtractionConfig& extraction,
                            const std::vector<telemetry::RecordSink*>& sinks,
                            std::size_t threads);

/// The UNPC tail that follows the archive stream: the fleet ground truth
/// then the per-node accounting of `summary` (topology is not stored).
void encode_campaign_tail(const sim::CampaignSummary& summary,
                          std::string& out);

/// Inverse of encode_campaign_tail over all of `in`, filling `summary`'s
/// ground truth and accounting.  Throws telemetry::DecodeError on corrupt
/// bytes: a count the remaining bytes cannot hold, an out-of-range field,
/// truncation, or trailing bytes.  Time deltas sum in wraparound arithmetic.
void decode_campaign_tail(const std::string& in, sim::CampaignSummary& summary);

/// Standard bench header: experiment id, paper reference, and the shape the
/// paper reports (so every bench output is self-describing).
void print_header(const std::string& experiment, const std::string& paper_shape,
                  FILE* out = stdout);

}  // namespace unp::bench
