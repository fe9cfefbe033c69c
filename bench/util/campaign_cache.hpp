// Shared bench scaffolding: every bench driver consumes the same calibrated
// campaign (seed 42) and extraction, then prints its own view.
//
// The campaign is acquired through an on-disk cache: the first bench process
// simulates it (multithreaded) while spilling the record stream to a cache
// file; every later process — unp_report, unp_study, the perf gates —
// replays that file instead of re-simulating seconds of fleet timeline.
// Every consumer streams it (stream_campaign) through its own sinks; no
// bench code holds the whole record archive.  default_data() is one such
// pass into a StreamingExtractor and a ScanProfileSink, kept for the rest
// of the process for unp_study's fault-only studies.
//
// Cache file:
//
//   file := magic "UNPC" u8 version u64 fingerprint      (13 bytes)
//           <archive stream, telemetry/archive_io format>
//
// and nothing after the stream's end frame.  The ground truth and the
// per-node accounting are not stored: sim::plan_campaign recomputes the
// truth from the config, and the topology comes from
// sim::campaign_topology.  Files written before the truth left the cache
// carried it as a tail after the end frame; the version stays 2, so file
// names, UNPH ensemble ids and UNPF headers are unchanged, and old and new
// files share one cache dir safely — readers stop at the end frame and
// ignore an old tail, and an older binary rejects a tail-less file as
// corrupt and re-simulates.
//
// The fingerprint digests the campaign seed, window, topology size, the
// codec versions, the hammer config when hammer faults are enabled AND the
// extraction configuration, so an analysis run with a non-default merge
// window can never silently pair with pipeline products cached under the
// default parameters.  A mismatch (changed config or format) invalidates
// the file and triggers a fresh simulate-and-rewrite.  Nothing else of the
// CampaignConfig is keyed: a caller that changes the availability,
// planner, fault-model or session fields must not use the cache
// (unp_study's counterfactual studies go through simulate_data, which
// calls sim::run_campaign_streaming and writes no file).
// Location: $UNP_CACHE_DIR (default: the system temp dir) /
// unp_campaign_<fingerprint>.unpc;  UNP_CAMPAIGN_CACHE=off disables the
// cache entirely.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/shard.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/sink.hpp"

namespace unp::bench {

/// One campaign's extraction and scan profile, from a single pass of a
/// StreamingExtractor and a ScanProfileSink over its record stream.
struct CampaignData {
  analysis::ExtractionResult extraction;
  analysis::ScanProfileSink scan;
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

/// The default campaign (seed 42) under the default extraction, built by
/// one stream_campaign pass on first use and shared by every later caller
/// in the process (replayed from a valid cache file, else simulated and
/// spilled for the next process).
[[nodiscard]] const CampaignData& default_data();

/// `config`'s campaign simulated on sim::default_campaign_threads() threads
/// straight into the two sinks, under the default extraction.  Uncached:
/// the fingerprint does not key most of a CampaignConfig (see above).
[[nodiscard]] CampaignData simulate_data(const sim::CampaignConfig& config);

/// Cache file the default campaign maps to ("" when caching is disabled).
[[nodiscard]] std::string default_cache_path();

/// Instrumentation of a one-pass streaming acquisition.
struct StreamStats {
  bool from_cache = false;      ///< record stream replayed from disk
  std::string cache_path;       ///< file used (empty when caching is disabled)
  std::uint64_t fingerprint = 0;  ///< cache key of (config, extraction)
  double acquire_ms = 0.0;      ///< full pass: reload or simulate+spill
  telemetry::ReplayStats replay;  ///< what the cache replay delivered
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

/// Standard bench header: experiment id, paper reference, and the shape the
/// paper reports (so every study and perf-gate output is self-describing).
void print_header(const std::string& experiment, const std::string& paper_shape,
                  FILE* out = stdout);

}  // namespace unp::bench
