// StoreBuilder: the write side of the UNPF columnar store.
//
// It is an analysis::FaultSink, so it plugs into the exact spot every figure
// analyzer occupies: downstream of StreamingExtractor, consuming faults in
// canonical (time, node, address) order.  Faults buffer per segment and
// encode the moment a segment fills, so building a store streams in bounded
// memory regardless of campaign size.
//
// Campaign-level metadata (scan profile, extraction accounting, cache
// fingerprint) is attached via setters before encode()/write(); the scan
// profile carries everything the scan-side figures (Figs 1/2/9, headline)
// need, so a store-backed report never touches the raw record stream.
//
// write() is atomic: the encoded file lands in a same-directory temp file
// first and is renamed over the target, so readers never observe a torn
// store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "store/format.hpp"

namespace unp::store {

/// Convert the scan-side streaming product into its stored form.
[[nodiscard]] StoredScanProfile scan_profile_from(
    const analysis::ScanProfileSink& scan);

/// Extraction accounting worth persisting next to the fault columns.
[[nodiscard]] StoredExtractionMeta extraction_meta_from(
    const analysis::ExtractionResult& extraction);

class StoreBuilder final : public analysis::FaultSink {
 public:
  struct Config {
    std::size_t segment_rows = kDefaultSegmentRows;
  };

  StoreBuilder() : StoreBuilder(Config{}) {}
  explicit StoreBuilder(const Config& config);

  // FaultSink: faults must arrive in canonical order (the extractor's).
  void begin_faults(const analysis::FaultStreamContext& ctx) override;
  void on_fault(const analysis::FaultRecord& fault) override;
  void end_faults() override;

  /// Campaign-cache fingerprint recording which simulated campaign the
  /// store was distilled from (0 = unknown/live source).
  void set_fingerprint(std::uint64_t fingerprint) noexcept {
    fingerprint_ = fingerprint;
  }
  void set_scan_profile(StoredScanProfile profile);
  void set_extraction_meta(StoredExtractionMeta meta);
  void set_window(const CampaignWindow& window) noexcept { window_ = window; }

  [[nodiscard]] std::uint64_t rows_written() const noexcept { return rows_; }
  [[nodiscard]] std::size_t segments_written() const noexcept {
    return zones_.size();
  }

  /// Serialize the complete store file (header, metadata, directory, data).
  /// Requires a finished fault stream (end_faults has run or no fault was
  /// ever offered).
  [[nodiscard]] std::string encode() const;

  /// encode() to `path` atomically (same-directory temp file + rename).
  /// Throws ContractViolation on I/O failure.
  void write(const std::string& path) const;

 private:
  void flush_segment();

  Config config_;
  CampaignWindow window_;
  std::uint64_t fingerprint_ = 0;
  StoredScanProfile scan_profile_;
  StoredExtractionMeta extraction_meta_;
  std::vector<analysis::FaultRecord> pending_;  ///< rows of the open segment
  std::vector<SegmentZone> zones_;
  std::string data_;  ///< concatenated encoded segment bodies
  SegmentScratch arena_;  ///< reused across flushed segments
  std::uint64_t rows_ = 0;
  bool stream_open_ = false;
};

/// One-call convenience: build a store from a finished extraction plus the
/// scan profile and write it to `path`.
void write_store(const std::string& path,
                 const analysis::ExtractionResult& extraction,
                 const analysis::ScanProfileSink& scan,
                 std::uint64_t fingerprint = 0,
                 const StoreBuilder::Config& config = {});

/// Partitioned write: stripe the faults into part_paths.size() contiguous
/// canonical row ranges (ceil division, so every part but possibly the last
/// holds the same row count) and write each range as a self-describing UNPF
/// part file with the full campaign metadata replicated.  Striping by
/// canonical range — not by node ownership — keeps each part's zone
/// directory in canonical order, so StoreReader::open_partitioned can
/// concatenate directories in path order and preserve the reader invariant
/// "directory order = canonical order".
void write_partitioned_store(const std::vector<std::string>& part_paths,
                             const analysis::ExtractionResult& extraction,
                             const analysis::ScanProfileSink& scan,
                             std::uint64_t fingerprint = 0,
                             const StoreBuilder::Config& config = {});

}  // namespace unp::store
